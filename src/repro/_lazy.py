"""Lazy re-exports for package inits (PEP 562).

A package init that re-exports its subpackages' names eagerly makes
``import repro`` pay for every subsystem — numpy, asyncio, the server,
the fuzzer — before the first compile.  :func:`lazy_exports` gives an
init a module ``__getattr__`` and ``__dir__`` instead: a re-exported
name imports its submodule the first time it is read, and is then
bound in the package namespace like an eager import would have bound
it.  ``__all__`` stays the package's own hand-written list.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, which re-exports
    ``exports`` (submodule name → the names it provides).

    Reading an unknown attribute that names a submodule imports it, so
    ``repro.sim`` resolves after a bare ``import repro`` just as it did
    when the init imported everything.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(
                importlib.import_module(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__
