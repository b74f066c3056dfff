"""Observability: structured tracing, metrics and profiling hooks.

``repro.obs`` is the zero-dependency telemetry spine of the toolchain.
Every layer — the :class:`~repro.toolchain.Toolchain` driver, the
pipeline stages, both cache tiers, the scheduler/register-allocator/RT
generator and the design-space explorer — reports through one
process-wide :class:`Telemetry` registry:

* **Spans** are hierarchical wall-clock intervals with tags
  (:meth:`Telemetry.span` is a context manager; nesting follows the
  call stack, per thread).  A compile produces one ``compile`` root
  span with one ``stage:<name>`` child per pipeline stage, tagged with
  the stage name, its content fingerprint and the cache source that
  served it (``executed`` / ``memory`` / ``disk``).
* **Counters** are monotonically increasing named tallies
  (:meth:`Telemetry.count`); the canonical names live in
  :data:`COUNTERS` and are documented in ``docs/observability.md``
  (the doc-link checker keeps the two in sync).
* **Events** are timestamped structured records
  (:meth:`Telemetry.event`), delivered to registered callbacks as they
  happen — the explorer's per-candidate progress stream and the disk
  cache's one-shot write-error warning both travel this way.

The default registry is a *null* telemetry: disabled, it records
nothing, allocates nothing, and costs the instrumented hot paths one
attribute check.  Enable observability by installing a live registry::

    from repro.obs import Telemetry, use_telemetry

    obs = Telemetry()
    with use_telemetry(obs):
        toolchain.compile(source)
    print(obs.to_dict()["counters"])

or bind one to a toolchain — ``Toolchain("audio", telemetry=obs)`` —
which scopes it around every verb automatically.  Export with
:meth:`Telemetry.to_dict`, the human-readable
:func:`repro.report.timeline` renderer, or
:func:`chrome_trace`/:func:`write_chrome_trace` (the Chrome
``trace_event`` format, viewable in ``chrome://tracing`` or Perfetto).
:func:`profile_compile` drives repeated cold, cached-cold and warm
compiles and reports per-stage p50/p95 — the engine of the
``repro profile`` subcommand.
"""

from .core import (
    COUNTERS,
    NULL_SPAN,
    Span,
    Telemetry,
    current_telemetry,
    set_telemetry,
    use_telemetry,
)
from .profile import profile_compile, render_profile, write_profile
from .trace import chrome_trace, write_chrome_trace

__all__ = [
    "COUNTERS",
    "NULL_SPAN",
    "Span",
    "Telemetry",
    "chrome_trace",
    "current_telemetry",
    "profile_compile",
    "render_profile",
    "set_telemetry",
    "use_telemetry",
    "write_chrome_trace",
    "write_profile",
]
