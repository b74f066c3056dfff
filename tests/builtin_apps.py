"""Every builtin application on the core it targets, shared by the
tests that sweep them all (imported as ``from builtin_apps import ...``;
see ``stream_helpers.py`` for why helpers are not in ``conftest.py``).
"""

from __future__ import annotations

from repro.apps import (
    adaptive_core,
    audio_application,
    audio_io_binding,
    biquad_cascade_application,
    channel_frontend_application,
    fir_application,
    lms_application,
    stress_application,
)
from repro.arch import audio_core, fir_core

#: name -> (application factory, core factory, IO binding factory or
#: None).
BUILTIN_APPS = {
    "audio": (audio_application, audio_core, audio_io_binding),
    "fir8": (lambda: fir_application([0.05 * (k + 1) for k in range(8)],
                                     name="fir8"), fir_core, None),
    "biquad": (lambda: biquad_cascade_application(
        [(0.4, 0.1, -0.05, 0.2, -0.1), (0.3, 0.05, 0.0, 0.1, 0.0)]),
        audio_core, None),
    "lms": (lambda: lms_application(n_taps=2), adaptive_core, None),
    "channel": (channel_frontend_application, fir_core, None),
    "stress": (lambda: stress_application(4, seed=1), audio_core, None),
}


def app_case(name):
    """A fresh ``(application, core, io_binding)`` for ``name``."""
    make_app, make_core, make_binding = BUILTIN_APPS[name]
    binding = make_binding() if make_binding is not None else None
    return make_app(), make_core(), binding
