"""Pluggable artifact-store backends behind the stage cache.

PR 3 hard-wired persistence to one implementation: a content-addressed
directory of versioned envelopes (:class:`~.diskcache.DiskCache`).
The compile *keys* were machine-independent from the start — SHA-256
content fingerprints of source, core and options — so nothing about
the cache's contract actually requires a local directory.  This module
names that contract (:class:`CacheBackend`) so the persistent tier is
a slot, not a class:

* :class:`~.diskcache.DiskCache` — the local-directory backend, still
  the default;
* :class:`MemoryBackend` — an in-process store holding the *serialized
  envelopes*, byte-for-byte what the disk backend would write.  Tests
  (and a server run with ``cache="memory:name"``) get the full
  store/restore/corruption/version semantics without touching disk;
* remote backends (object store, a peer ``repro serve`` instance)
  implement the same five methods and slot in unchanged — the keys
  already travel.

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

import threading
import time
from typing import Any, Iterable, Protocol, runtime_checkable

from ..obs import current_telemetry
from .diskcache import (
    CacheEntryError,
    CacheVersionError,
    DiskCache,
    DiskCacheStats,
    VerifyReport,
    deserialize,
    deserialize_envelope_only,
    serialize,
)


@runtime_checkable
class CacheBackend(Protocol):
    """What :class:`~.session.StageCache` (and the explore memo, and
    the cache admin verb) require of a persistent tier.

    ``get``/``put`` move whole objects under content-fingerprint keys;
    a backend owns its serialization and must treat every unreadable
    entry as a miss, never an error.  The admin surface (``keys``,
    ``stats``, ``gc``, ``verify``, ``clear``) is what ``repro cache``
    drives; see :class:`DiskCache` for the reference semantics.
    """

    def get(self, key: str, schema: dict[str, int] | None = None) -> Any:
        """The object stored under ``key``, or ``None`` on any miss."""
        ...

    def put(self, key: str, obj: Any,
            schema: dict[str, int] | None = None) -> None:
        """Publish ``obj`` under ``key`` (best effort, never raises)."""
        ...

    def keys(self) -> list[str]:
        """Every fingerprint currently stored."""
        ...

    def size_bytes(self) -> int:
        """Total serialized bytes currently stored."""
        ...

    def gc(self, max_bytes: int | None = None, *,
           min_age: float = 0.0, pinned: Iterable[str] = ()) -> int:
        """Bound the store; return the number of entries removed."""
        ...

    def verify(self) -> "VerifyReport":
        """Read back every entry; report (and drop) the unusable ones."""
        ...

    def clear(self) -> int:
        """Delete every entry; return how many were removed."""
        ...


class MemoryBackend:
    """An in-process :class:`CacheBackend` holding serialized envelopes.

    Entries round-trip through the exact
    :func:`~.diskcache.serialize`/:func:`~.diskcache.deserialize`
    envelope the disk backend writes, so version skew, payload-digest
    checks and corruption handling behave identically — only the bytes
    live in a dict instead of files.  Thread-safe; share one instance
    (or one ``memory:<name>`` spec) to share artifacts the way
    processes share a cache directory.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024,
                 name: str | None = None):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_bytes = max_bytes
        self.name = name
        #: key -> (envelope bytes, monotonic last-use stamp)
        self._entries: dict[str, tuple[bytes, float]] = {}
        #: running sum of the stored envelopes' lengths
        self._bytes = 0
        self._lock = threading.Lock()
        self.stats = DiskCacheStats()

    def __bool__(self) -> bool:
        # An *empty* backend is still a backend (see StageCache.__bool__).
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"MemoryBackend({label} {len(self)} entries)"

    # -- get / put -----------------------------------------------------

    def get(self, key: str, schema: dict[str, int] | None = None) -> Any:
        obs = current_telemetry()
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            with self._lock:
                self.stats.misses += 1
            obs.count("diskcache.miss")
            return None
        blob, _ = entry
        obs.count("diskcache.bytes_read", len(blob))
        try:
            obj = deserialize(blob, schema)
        except CacheVersionError:
            with self._lock:
                self.stats.version_skips += 1
                self.stats.misses += 1
                self._pop_locked(key)
            obs.count("diskcache.version_skip")
            obs.count("diskcache.miss")
            return None
        except CacheEntryError:
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
                self._pop_locked(key)
            obs.count("diskcache.corrupt")
            obs.count("diskcache.miss")
            return None
        with self._lock:
            # Refresh recency only if no other thread replaced or
            # dropped the entry meanwhile (the byte total counts it).
            if self._entries.get(key) is entry:
                self._entries[key] = (blob, time.monotonic())
            self.stats.hits += 1
        obs.count("diskcache.hit")
        return obj

    def put(self, key: str, obj: Any,
            schema: dict[str, int] | None = None) -> None:
        try:
            blob = serialize(obj, schema)
        except Exception:  # noqa: BLE001 — unpicklable object: degrade
            with self._lock:
                self.stats.write_errors += 1
            current_telemetry().count("diskcache.write_error")
            return
        with self._lock:
            self._pop_locked(key)
            self._entries[key] = (blob, time.monotonic())
            self._bytes += len(blob)
            self.stats.stores += 1
            over = self._bytes > self.max_bytes
        obs = current_telemetry()
        obs.count("diskcache.store")
        obs.count("diskcache.bytes_written", len(blob))
        if over:
            self.gc(self.max_bytes)

    # -- admin ---------------------------------------------------------

    def _pop_locked(self, key: str) -> bool:
        """Remove one entry and its bytes from the total (lock held);
        True when it existed."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._bytes -= len(entry[0])
        return True

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def delete(self, key: str) -> bool:
        """Remove one entry; True when it existed."""
        with self._lock:
            return self._pop_locked(key)

    def size_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def gc(self, max_bytes: int | None = None, *,
           min_age: float = 0.0, pinned: Iterable[str] = ()) -> int:
        bound = self.max_bytes if max_bytes is None else max_bytes
        keep = set(pinned)
        cutoff = time.monotonic() - min_age
        removed = 0
        obs = current_telemetry()
        with self._lock:
            by_age = sorted(self._entries.items(), key=lambda kv: kv[1][1])
            for key, (_, stamp) in by_age:
                if self._bytes <= bound:
                    break
                if key in keep or stamp > cutoff:
                    continue
                self._pop_locked(key)
                self.stats.evictions += 1
                removed += 1
        for _ in range(removed):
            obs.count("diskcache.eviction")
        return removed

    def verify(self) -> VerifyReport:
        report = VerifyReport()
        obs = current_telemetry()
        with self._lock:
            snapshot = list(self._entries.items())
        for key, (blob, _) in snapshot:
            report.checked += 1
            try:
                # Version skew is *expected* across checkouts, so probe
                # the envelope without pinning a schema: verify asks
                # "can this entry ever be served", not "by my version".
                deserialize_envelope_only(blob)
            except CacheVersionError:
                report.version_skew += 1
                report.dropped.append(key)
                with self._lock:
                    self._pop_locked(key)
                obs.count("cache.verify_failures")
                continue
            except CacheEntryError:
                report.corrupt += 1
                report.dropped.append(key)
                with self._lock:
                    self._pop_locked(key)
                obs.count("cache.verify_failures")
                continue
            report.ok += 1
        return report

    def clear(self) -> int:
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self._bytes = 0
        return removed


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
    stats = getattr(backend, "stats", None)
    payload: dict[str, Any] = {
        "backend": type(backend).__name__,
        "entries": len(backend.keys()),
        "bytes": backend.size_bytes(),
        "max_bytes": getattr(backend, "max_bytes", None),
    }
    location = getattr(backend, "root", None) or getattr(
        backend, "name", None)
    if location is not None:
        payload["location"] = str(location)
    if stats is not None:
        payload["session"] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "stores": stats.stores,
            "evictions": stats.evictions,
            "corrupt": stats.corrupt,
            "version_skips": stats.version_skips,
            "write_errors": stats.write_errors,
        }
    return payload
