"""The core registry: named targets as a first-class, extensible set.

The paper's pitch is *retargetability* — one compiler, many in-house
cores.  This module is the single place a core name resolves to a
:class:`~repro.arch.library.CoreSpec`: the built-in library cores are
pre-registered, user-defined cores join via :func:`register_core`, and
every surface that accepts a target (``Toolchain``, the sessions, the
CLI's ``--core``, docs examples) funnels through :func:`resolve_core`,
which also accepts a ready ``CoreSpec`` or a path to a JSON core
description (:func:`repro.arch.serialize.dump_core` output).

Factories, not instances, are registered: cores are mutable-ish object
graphs, and handing every caller a fresh spec keeps one user's
modifications from leaking into the next resolution.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from ..errors import ReproError
from .library import CoreSpec, audio_core, fir_core, tiny_core
from .serialize import load_core

#: name -> zero-argument factory producing a fresh CoreSpec.
_REGISTRY: dict[str, Callable[[], CoreSpec]] = {}


def register_core(name: str, factory: Callable[[], CoreSpec],
                  replace: bool = False) -> None:
    """Register a named core factory.

    ``factory`` is a zero-argument callable returning a
    :class:`CoreSpec` — called on every :func:`get_core`, so each
    resolution is a fresh spec.  Re-registering an existing name is an
    error unless ``replace=True`` (shadowing a built-in silently is how
    two libraries end up disagreeing about what ``"audio"`` means).
    """
    if not name:
        raise ReproError("core name must be non-empty")
    if name in _REGISTRY and not replace:
        raise ReproError(
            f"core {name!r} is already registered; pass replace=True "
            f"to override it")
    _REGISTRY[name] = factory


def unregister_core(name: str) -> None:
    """Remove a registered core (missing names are an error)."""
    if name not in _REGISTRY:
        raise ReproError(f"core {name!r} is not registered")
    del _REGISTRY[name]


def list_cores() -> list[str]:
    """The registered core names, sorted."""
    return sorted(_REGISTRY)


def registered_factory(name: str) -> Callable[[], CoreSpec] | None:
    """The factory registered under ``name``, or None.  What keeps a
    core bound across resolutions compares it to notice that the name
    was re-registered."""
    return _REGISTRY.get(name)


def get_core(name: str) -> CoreSpec:
    """Instantiate the registered core ``name``."""
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ReproError(
            f"unknown core {name!r}: not a registered core "
            f"({', '.join(list_cores())})")
    core = factory()
    if not isinstance(core, CoreSpec):
        raise ReproError(
            f"core factory for {name!r} returned "
            f"{type(core).__name__}, not a CoreSpec")
    return core


def resolve_core(core: CoreSpec | str) -> CoreSpec:
    """Resolve anything the public surface accepts as a target.

    A :class:`CoreSpec` passes through; a string is a registered core
    name or a path to a JSON core description.  This is the one
    resolution rule — the library and the CLI cannot drift.
    """
    if isinstance(core, CoreSpec):
        return core
    if not isinstance(core, str):
        raise ReproError(
            f"expected a CoreSpec or core name, got {type(core).__name__}")
    if core in _REGISTRY:
        return get_core(core)
    path = Path(core)
    if path.exists():
        return load_core(path.read_text())
    raise ReproError(
        f"unknown core {core!r}: not a registered core "
        f"({', '.join(list_cores())}) and no such file")


def _adaptive() -> CoreSpec:
    # Imported lazily: repro.apps builds on repro.arch, so registering
    # its core at this module's import time would cycle.
    from ..apps import adaptive_core

    return adaptive_core()


register_core("audio", audio_core)
register_core("fir", fir_core)
register_core("tiny", tiny_core)
register_core("adaptive", _adaptive)
