"""The in-process medium of the persistent tier, and backend specs.

The compile *keys* are machine-independent — SHA-256 content
fingerprints of source, core and options — so nothing about the
persistent tier requires a local directory.
:class:`~.diskcache.CacheBackend` owns the tier's policy once (envelope
reads and their accounting, write errors, ``verify``, LRU ``gc``, the
admin surface); a medium subclasses it and supplies only where the
bytes live:

* :class:`~.diskcache.DiskCache` — the local-directory medium, still
  the default;
* :class:`MemoryBackend` — an in-process store holding the *serialized
  envelopes*, byte-for-byte what the disk medium would write.  Tests
  (and a server run with ``cache="memory:name"``) get the full
  store/restore/corruption/version semantics without touching disk.

:func:`open_backend` maps a *backend spec* string to an instance:
``None`` or a path open a :class:`DiskCache` (honoring the usual
``$REPRO_CACHE_DIR`` default), ``memory:`` / ``memory:<name>`` open a
process-shared named :class:`MemoryBackend` — two toolchains naming
the same memory backend share artifacts exactly like two processes
sharing a cache directory.  Every surface that accepted a cache
directory (``CompileOptions.cache_dir``, ``--cache-dir``, the explore
memo, the serve subsystem, the ``repro cache`` admin verb) accepts a
backend spec through this one function.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any

from .diskcache import CacheBackend, DiskCache


class MemoryBackend(CacheBackend):
    """An in-process :class:`CacheBackend` holding serialized envelopes.

    Entries round-trip through the exact envelope the disk medium
    writes, so version skew, payload-digest checks and corruption
    handling behave identically — only the bytes live in a dict
    instead of files.  Thread-safe; share one instance (or one
    ``memory:<name>`` spec) to share artifacts the way processes share
    a cache directory.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024,
                 name: str | None = None):
        super().__init__(max_bytes)
        self.location = name
        #: key -> (envelope bytes, monotonic last-use stamp); the tuple
        #: itself is the token naming one stored entry
        self._entries: dict[str, tuple[bytes, float]] = {}
        #: running sum of the stored envelopes' lengths
        self._bytes = 0

    get = CacheBackend.get
    put = CacheBackend.put

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.location!r}" if self.location else ""
        return f"MemoryBackend({label} {len(self)} entries)"

    # -- the medium: one dict entry per envelope -----------------------

    def _read(self, key: str, touch: bool = False) \
            -> tuple[bytes, tuple[bytes, float]] | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if touch:
                entry = self._entries[key] = (entry[0], time.monotonic())
        return entry[0], entry

    def _write(self, key: str, blob: bytes) -> int:
        with self._lock:
            old = self._entries.get(key)
            self._entries[key] = (blob, time.monotonic())
            self._bytes += len(blob) - (0 if old is None else len(old[0]))
            return self._bytes

    def _remove(self, key: str,
                token: tuple[bytes, float] | None = None) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or token is not None and entry is not token:
                return False
            del self._entries[key]
            self._bytes -= len(entry[0])
            return True

    def _scan(self) -> list[tuple[str, int, float]]:
        now = time.monotonic()
        with self._lock:
            return [(key, len(blob), now - stamp)
                    for key, (blob, stamp) in self._entries.items()]


# ----------------------------------------------------------------------
# Backend specs

#: Process-wide named memory backends (``memory:<name>`` specs).  Two
#: toolchains opening the same name share one store, the way two
#: processes share one cache directory.
_MEMORY_BACKENDS: dict[str, MemoryBackend] = {}
_MEMORY_LOCK = threading.Lock()

MEMORY_SCHEME = "memory:"


def open_backend(spec: str | None,
                 max_bytes: int | None = None) -> CacheBackend:
    """Open the backend a spec string names.

    ``None`` or a directory path → :class:`DiskCache` (the path
    defaulting per :func:`~.diskcache.default_cache_dir`);
    ``memory:`` / ``memory:<name>`` → the process-shared named
    :class:`MemoryBackend` (the bare scheme names ``"default"``).
    """
    if spec is not None and spec.startswith(MEMORY_SCHEME):
        name = spec[len(MEMORY_SCHEME):] or "default"
        with _MEMORY_LOCK:
            backend = _MEMORY_BACKENDS.get(name)
            if backend is None:
                backend = MemoryBackend(name=name, **(
                    {"max_bytes": max_bytes} if max_bytes else {}))
                _MEMORY_BACKENDS[name] = backend
        return backend
    if max_bytes:
        return DiskCache(spec, max_bytes=max_bytes)
    return DiskCache(spec)


def backend_stats(backend: CacheBackend) -> dict[str, Any]:
    """The admin-facing stats dict of any backend (``repro cache
    stats``, the server's ``/v1/cache/stats``)."""
    payload: dict[str, Any] = {
        "backend": type(backend).__name__,
        "entries": len(backend.keys()),
        "bytes": backend.size_bytes(),
        "max_bytes": backend.max_bytes,
    }
    if backend.location is not None:
        payload["location"] = backend.location
    payload["session"] = dataclasses.asdict(backend.stats)
    return payload
