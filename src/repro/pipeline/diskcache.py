"""The persistent tier: the versioned envelope, the policy every medium
shares, and the on-disk medium.

The in-memory :class:`~repro.pipeline.session.StageCache` makes
re-compiles inside one process nearly free, but a compiler that is
re-run constantly while a core design is iterated pays the full cold
path on every new process.  :class:`DiskCache` closes that gap: a
SHA-256 content fingerprint maps to one file holding a *versioned
serialization* of the cached object, so a second process (or a second
machine sharing the directory) restores stage artifacts instead of
recomputing them.

:class:`CacheBackend` holds every policy below exactly once (envelope
reads and their accounting, write errors, ``verify``, LRU ``gc``, the
admin surface).  A medium only says where the envelopes live:
:class:`DiskCache` here, and the in-process
:class:`~repro.pipeline.backend.MemoryBackend`.

Design constraints, in order:

* **A bad entry is a miss, never a crash.**  Truncated files, foreign
  bytes, stale pickles, concurrent half-writes — every read failure is
  absorbed, counted on :attr:`DiskCacheStats.corrupt`, and the entry is
  dropped so it cannot fail twice.
* **Versioned.**  Every entry carries the envelope format version, the
  pipeline version (:data:`~repro.pipeline.artifacts.PIPELINE_VERSION`)
  and a per-artifact-type schema (``artifact name -> version`` from
  :data:`~repro.pipeline.artifacts.ARTIFACT_VERSIONS`).  Any skew is a
  miss (:attr:`DiskCacheStats.version_skips`), so a cache written by an
  older checkout can never serve artifacts a newer pipeline would
  misread.
* **Atomic.**  Entries are written to a temporary file in the target
  directory and published with :func:`os.replace`; concurrent writers
  on one cache directory race benignly (last write wins, readers see
  either a complete entry or none).
* **Bounded.**  ``max_bytes`` caps the store; eviction removes the
  least-recently-used entries (reads refresh an entry's recency, a
  file's mtime on disk).  A running byte total decides when that
  scanning pass runs; on disk it is an estimate per directory, shared
  by every :class:`DiskCache` of the process and seeded by one scan per
  process, not per cache object (a compile server opens one per job).

Entry layout on disk (``<dir>/objects/<aa>/<fingerprint>.rpdc``)::

    MAGIC 'RPDC' | header length (4 bytes LE) | header JSON | payload

where the header records the versions above plus the payload's SHA-256,
and the payload is a pickle of the cached object, or the object itself
when it is ``bytes`` (a stage-cache snapshot pack is stored as it is,
not pickled again).  Pickle is safe here
because the cache directory is the user's own (the same trust domain as
the source being compiled); the digest guards against corruption, not
against an adversary.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..obs import current_telemetry
from .artifacts import PIPELINE_VERSION

#: Bump when the on-disk envelope itself changes shape.
#: v2: stage-cache entries hold the snapshot the stage cache pickled
#: (bytes, core by reference), not the artifact dict itself.
#: v3: that snapshot is a stream of per-stage frames, each holding only
#: the artifacts its stage changed; a v2 reader would load the first
#: frame alone, so v2 and v3 entries are version skips to each other.
#: v4: a ``bytes`` object is the payload as it is (``"raw"`` in the
#: header), not pickled again; stage-cache entries are snapshot packs
#: (a frame header, then the stream), which a v3 reader would take for a
#: bare stream.
FORMAT_VERSION = 4

_MAGIC = b"RPDC"
_SUFFIX = ".rpdc"
_HEADER_LIMIT = 1 << 20  # a sane bound; a bigger claim means corruption


#: Running size estimate of each store directory (``objects`` path),
#: shared by every :class:`DiskCache` of this process on it.
_SIZE_ESTIMATES: dict[str, int] = {}
_SIZE_ESTIMATES_LOCK = threading.Lock()


class CacheEntryError(Exception):
    """Internal: an entry cannot be used (corrupt or truncated)."""


class CacheVersionError(CacheEntryError):
    """Internal: an entry is intact but was written by a different
    pipeline/format/schema version."""


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def serialize(obj: Any, schema: dict[str, int] | None = None) -> bytes:
    """Wrap ``obj`` in the versioned envelope described above; a
    ``bytes`` object is the payload as it is."""
    raw = isinstance(obj, bytes)
    payload = obj if raw else pickle.dumps(obj,
                                           protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "format": FORMAT_VERSION,
            "pipeline": PIPELINE_VERSION,
            "schema": schema or {},
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "raw": raw,
        },
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    return _MAGIC + len(header).to_bytes(4, "little") + header + payload


def deserialize(blob: bytes, expected_schema: dict[str, int] | None = None,
                any_schema: bool = False) -> Any:
    """Unwrap an envelope; raise :class:`CacheEntryError` on any defect.

    ``expected_schema`` maps artifact-type name to the version the
    *current* code writes; the entry is usable when every type it
    actually contains matches (an entry never has to contain every
    known type — a partial compile stores a prefix).  ``any_schema``
    skips that per-artifact comparison (format/pipeline skew still
    raises) — the integrity pass of :meth:`CacheBackend.verify` asks
    "can this entry ever be served", not "by my artifact versions".
    """
    if blob[:4] != _MAGIC:
        raise CacheEntryError("bad magic")
    if len(blob) < 8:
        raise CacheEntryError("truncated header length")
    header_len = int.from_bytes(blob[4:8], "little")
    if header_len > _HEADER_LIMIT or len(blob) < 8 + header_len:
        raise CacheEntryError("truncated header")
    try:
        header = json.loads(blob[8:8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheEntryError(f"unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise CacheEntryError(f"header is {type(header).__name__}, not object")
    if header.get("format") != FORMAT_VERSION:
        raise CacheVersionError(f"format {header.get('format')!r}")
    if header.get("pipeline") != PIPELINE_VERSION:
        raise CacheVersionError(f"pipeline {header.get('pipeline')!r}")
    stored_schema = header.get("schema") or {}
    if not isinstance(stored_schema, dict):
        raise CacheEntryError("schema is not an object")
    if not any_schema:
        expected = expected_schema or {}
        for name, version in stored_schema.items():
            if expected.get(name) != version:
                raise CacheVersionError(f"artifact {name!r} v{version}")
    payload = blob[8 + header_len:]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise CacheEntryError("payload digest mismatch")
    if header.get("raw") is True:
        return payload
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 — any unpickling defect is a miss
        raise CacheEntryError(f"unpicklable payload: {exc}") from None


@dataclass
class VerifyReport:
    """The outcome of a backend integrity pass (``repro cache verify``).

    ``ok`` entries deserialized cleanly; ``corrupt`` ones could not be
    read back (and were dropped); ``version_skew`` entries are intact
    but written by a different pipeline/format version (dropped too —
    the current code can never serve them).
    """

    checked: int = 0
    ok: int = 0
    corrupt: int = 0
    version_skew: int = 0
    #: fingerprints of the dropped entries, for the admin report
    dropped: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every entry read back."""
        return self.checked == self.ok

    def to_dict(self) -> dict[str, Any]:
        return {
            "checked": self.checked,
            "ok": self.ok,
            "clean": self.clean,
            "corrupt": self.corrupt,
            "version_skew": self.version_skew,
            "dropped": list(self.dropped),
        }


@dataclass
class DiskCacheStats:
    """Counters of one :class:`CacheBackend`, on either medium."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: entries dropped because they could not be read back
    corrupt: int = 0
    #: intact entries skipped because of format/pipeline/schema skew
    version_skips: int = 0
    #: stores abandoned (unpicklable object, unwritable or full store)
    write_errors: int = 0




class CacheBackend:
    """The persistent tier behind :class:`~.session.StageCache`, the
    explore memo and the ``repro cache`` verb.

    ``get``/``put`` move whole objects under content-fingerprint keys
    through the envelope above.  Every unreadable entry is a miss,
    never an error, and every failed store is counted, never raised.
    This class owns that policy and the admin surface once; a subclass
    is a *medium* and only says where the envelopes live, through four
    primitives: :meth:`_read`, :meth:`_write`, :meth:`_remove` and
    :meth:`_scan`.

    Each medium binds ``get`` and ``put`` in its own class body
    (``get = CacheBackend.get``), so a profiler can wrap one medium's
    reads without the other's: ``perfbench/tracer.py`` patches them
    through the class ``__dict__``.
    """

    #: Where the bytes live, for the admin report: a directory, a
    #: memory backend's name, or None.
    location: str | None = None

    def __init__(self, max_bytes: int):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_bytes = max_bytes
        self.stats = DiskCacheStats()
        self._lock = threading.Lock()
        #: One structured warning per backend: the first abandoned
        #: store emits a ``diskcache.write_error`` telemetry event;
        #: later ones only bump the counters (a persistently unwritable
        #: store would otherwise flood the event log).
        self._write_error_reported = False

    def __bool__(self) -> bool:
        """Always ``True``: an *empty* cache is still a cache.

        Without this, ``__len__`` makes a fresh cache falsy, and code
        like ``cache or DiskCache()`` silently replaces a configured
        empty cache (the bug class of an early ``--refine`` defect).
        Explicit ``is None`` tests are still the idiom; this makes the
        truthiness shortcut safe too.
        """
        return True

    def __len__(self) -> int:
        return len(self._scan())

    # -- the medium ----------------------------------------------------

    def _read(self, key: str, touch: bool = False) \
            -> tuple[bytes, Any] | None:
        """The envelope stored under ``key`` and a token naming that
        very entry, or None; ``touch`` refreshes its LRU recency."""
        raise NotImplementedError

    def _write(self, key: str, blob: bytes) -> int:
        """Store ``blob`` under ``key``, raising on failure; return the
        running byte total of the store."""
        raise NotImplementedError

    def _remove(self, key: str, token: Any = None) -> bool:
        """Drop the entry under ``key`` (only if it is still the one
        ``token`` names, when given); True when one was dropped."""
        raise NotImplementedError

    def _scan(self) -> list[tuple[str, int, float]]:
        """Every entry as ``(key, bytes, seconds since last use)``."""
        raise NotImplementedError

    # -- get / put -----------------------------------------------------

    def get(self, key: str, schema: dict[str, int] | None = None) -> Any:
        """The object stored under ``key``, or ``None`` on any miss.

        A corrupt or version-skewed entry is dropped so it cannot fail
        twice, but only the entry this read saw: one that another
        thread stored meanwhile survives.
        """
        obs = current_telemetry()
        found = self._read(key, touch=True)
        if found is None:
            with self._lock:
                self.stats.misses += 1
            obs.count("diskcache.miss")
            return None
        blob, token = found
        obs.count("diskcache.bytes_read", len(blob))
        try:
            obj = deserialize(blob, schema)
        except CacheEntryError as exc:
            self._remove(key, token)
            skew = isinstance(exc, CacheVersionError)
            with self._lock:
                if skew:
                    self.stats.version_skips += 1
                else:
                    self.stats.corrupt += 1
                self.stats.misses += 1
            obs.count("diskcache.version_skip" if skew
                      else "diskcache.corrupt")
            obs.count("diskcache.miss")
            return None
        with self._lock:
            self.stats.hits += 1
        obs.count("diskcache.hit")
        return obj

    def put(self, key: str, obj: Any,
            schema: dict[str, int] | None = None) -> None:
        """Publish ``obj`` under ``key`` and enforce the size bound.

        A failed store (unpicklable object, unwritable directory, full
        disk) degrades to an uncached compile — counted on
        ``stats.write_errors``, never raised: a broken cache must not
        break the compiler.  The first failure per backend also emits
        a structured ``diskcache.write_error`` telemetry event naming
        the store and the error, so a silently-degraded cache is
        visible in ``--timings``/``--trace`` output.
        """
        try:
            blob = serialize(obj, schema)
            total = self._write(key, blob)
        except Exception as exc:  # noqa: BLE001 — OSError *or* pickling failure
            with self._lock:
                self.stats.write_errors += 1
                first = not self._write_error_reported
                self._write_error_reported = True
            obs = current_telemetry()
            obs.count("diskcache.write_error")
            if first:
                obs.event("diskcache.write_error", level="warning",
                          location=self.location, key=key,
                          error=f"{type(exc).__name__}: {exc}")
            return
        with self._lock:
            self.stats.stores += 1
        obs = current_telemetry()
        obs.count("diskcache.store")
        obs.count("diskcache.bytes_written", len(blob))
        if total > self.max_bytes:
            self.gc()

    # -- admin (the ``repro cache`` verb and the serve endpoints) ------

    def keys(self) -> list[str]:
        """Every fingerprint currently stored (sorted)."""
        return sorted(key for key, _, _ in self._scan())

    def size_bytes(self) -> int:
        """Total bytes currently stored (best effort under concurrency)."""
        return sum(size for _, size, _ in self._scan())

    def delete(self, key: str) -> bool:
        """Remove one entry; True when it existed."""
        return self._remove(key)

    def clear(self) -> int:
        """Delete every entry; return how many were removed."""
        return sum(self._remove(key) for key, _, _ in self._scan())

    def gc(self, max_bytes: int | None = None, *,
           min_age: float = 0.0, pinned: Iterable[str] = ()) -> int:
        """Bound the store to ``max_bytes`` (default: the configured
        bound), least-recently-used first; returns entries removed.

        ``min_age`` protects entries younger than that many seconds —
        the in-flight guard: a compile currently writing its stage
        snapshots keeps them until it finishes, so an admin ``gc``
        racing live traffic cannot evict artifacts a running job is
        about to read back.  ``pinned`` names fingerprints that are
        never removed regardless of age (a server pins the stage keys
        of queued/running jobs).

        :meth:`put` runs the same pass, unpinned and with no minimum
        age, only when the store's running byte total crosses the
        bound, so steady-state fills stay O(1) per store.  Competing
        evictors simply find some entries already gone.
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        keep = set(pinned)
        entries = self._scan()
        total = sum(size for _, size, _ in entries)
        removed = 0
        obs = current_telemetry()
        # Oldest first; equally old entries in key order.
        for key, size, age in sorted(entries, key=lambda e: (-e[2], e[0])):
            if total <= bound:
                break
            if key in keep or age < min_age:
                continue
            total -= size
            if self._remove(key):
                removed += 1
                with self._lock:
                    self.stats.evictions += 1
                obs.count("diskcache.eviction")
        return removed

    def verify(self) -> VerifyReport:
        """Read back every entry; drop (and report) the unusable ones.

        Corrupt entries can never be served; version-skewed ones can
        never be served *by this checkout* — both are removed so the
        store holds only entries a compile could actually restore.
        Version skew is expected across checkouts, so no artifact
        schema is pinned: verify asks "can this entry ever be served",
        not "by my artifact versions".
        """
        report = VerifyReport()
        obs = current_telemetry()
        for key in self.keys():
            report.checked += 1
            # An entry that vanished since the listing reads as corrupt.
            blob, token = self._read(key) or (b"", None)
            try:
                deserialize(blob, any_schema=True)
            except CacheVersionError:
                report.version_skew += 1
            except CacheEntryError:
                report.corrupt += 1
            else:
                report.ok += 1
                continue
            report.dropped.append(key)
            self._remove(key, token)
            obs.count("cache.verify_failures")
        return report


class DiskCache(CacheBackend):
    """SHA-256 fingerprint → versioned serialized object, on disk.

    The generic persistence layer: :class:`.session.StageCache` stores
    stage snapshot streams under stage keys, and
    :class:`repro.arch.explore.ExploreCache` stores evaluated sweep
    candidates — both through this one store, distinguished by their
    fingerprint namespaces and their schemas.

    Safe to share one directory between concurrent processes; see the
    module docstring for the guarantees.
    """

    def __init__(self, cache_dir: str | Path | None = None,
                 max_bytes: int = 256 * 1024 * 1024):
        super().__init__(max_bytes)
        self.root = Path(cache_dir) if cache_dir is not None \
            else default_cache_dir()
        self.location = str(self.root)
        self.objects = self.root / "objects"
        self._store = os.path.abspath(self.objects)

    get = CacheBackend.get
    put = CacheBackend.put

    @property
    def _size_estimate(self) -> int | None:
        """The directory's running size guess; None until this process
        lists the store.  Only gates *when* the real (scanning)
        eviction runs — drift from concurrent processes cannot over- or
        under-delete."""
        return _SIZE_ESTIMATES.get(self._store)

    def path_for(self, key: str) -> Path:
        """The entry file a fingerprint maps to (existing or not)."""
        return self.objects / key[:2] / f"{key}{_SUFFIX}"

    # -- the medium: one file per entry --------------------------------

    def _read(self, key: str, touch: bool = False) \
            -> tuple[bytes, int] | None:
        # The token is the file's inode: a concurrent os.replace
        # publishes a new one.
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
                inode = os.fstat(handle.fileno()).st_ino
        except OSError:
            return None
        if touch:
            with contextlib.suppress(OSError):
                os.utime(path)
        return blob, inode

    def _write(self, key: str, blob: bytes) -> int:
        path = self.path_for(key)
        # A same-key overwrite replaces the old entry's bytes: the
        # running estimate must only grow by the *delta*, or repeated
        # re-stores of the same keys inflate it past the bound and
        # trigger needless full-scan eviction passes.
        try:
            old_size = path.stat().st_size
        except OSError:
            old_size = 0
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except FileNotFoundError:
            # First entry of its fan-out directory: only then pay for
            # the mkdir.
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        with _SIZE_ESTIMATES_LOCK:
            total = _SIZE_ESTIMATES.get(self._store)
            if total is not None:
                total += len(blob) - old_size
                _SIZE_ESTIMATES[self._store] = total
        # The directory is scanned to seed the estimate once per
        # process, not once per cache object (a server opens one per job).
        return self.size_bytes() if total is None else total

    def _remove(self, key: str, token: int | None = None) -> bool:
        path = self.path_for(key)
        try:
            stat = path.stat()
            if token is not None and stat.st_ino != token:
                return False
            path.unlink()
        except OSError:
            return False
        with _SIZE_ESTIMATES_LOCK:
            if self._store in _SIZE_ESTIMATES:
                _SIZE_ESTIMATES[self._store] -= stat.st_size
        return True

    def _scan(self) -> list[tuple[str, int, float]]:
        # Every listing is a census of the directory: it re-seeds the
        # running estimate, which corrects drift from other processes.
        now = time.time()
        entries = []
        for path in self.objects.glob(f"*/*{_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((path.stem, stat.st_size, now - stat.st_mtime))
        with _SIZE_ESTIMATES_LOCK:
            _SIZE_ESTIMATES[self._store] = sum(size for _, size, _ in entries)
        return entries
