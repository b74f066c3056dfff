"""Content-addressed on-disk artifact store (the persistent cache layer).

The in-memory :class:`~repro.pipeline.session.StageCache` makes
re-compiles inside one process nearly free, but a compiler that is
re-run constantly while a core design is iterated pays the full cold
path on every new process.  :class:`DiskCache` closes that gap: a
SHA-256 content fingerprint maps to one file holding a *versioned
serialization* of the cached object, so a second process (or a second
machine sharing the directory) restores stage artifacts instead of
recomputing them.

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
  least-recently-used entries (reads refresh an entry's mtime).  A
  running size estimate per directory, shared by every
  :class:`DiskCache` of the process, decides when that scanning pass
  runs; the directory is scanned to seed it once per process, not once
  per cache object (a compile server opens one per job).

Entry layout on disk (``<dir>/objects/<aa>/<fingerprint>.rpdc``)::

    MAGIC 'RPDC' | header length (4 bytes LE) | header JSON | payload

where the header records the versions above plus the payload's SHA-256,
and the payload is a pickle of the cached object.  Pickle is safe here
because the cache directory is the user's own (the same trust domain as
the source being compiled); the digest guards against corruption, not
against an adversary.
"""

from __future__ import annotations

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
FORMAT_VERSION = 3

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
    """Wrap ``obj`` in the versioned envelope described above."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "format": FORMAT_VERSION,
            "pipeline": PIPELINE_VERSION,
            "schema": schema or {},
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
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
    raises) — the integrity pass of :meth:`DiskCache.verify` asks
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
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 — any unpickling defect is a miss
        raise CacheEntryError(f"unpicklable payload: {exc}") from None


def deserialize_envelope_only(blob: bytes) -> None:
    """Integrity-check an envelope without pinning an artifact schema.

    Raises :class:`CacheEntryError` on corruption (bad magic, truncated
    header, digest mismatch, unpicklable payload) and
    :class:`CacheVersionError` on format/pipeline skew — exactly the
    split a backend's :meth:`~DiskCache.verify` reports.
    """
    deserialize(blob, expected_schema=None, any_schema=True)


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
    """Counters of one :class:`DiskCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: entries dropped because they could not be read back
    corrupt: int = 0
    #: intact entries skipped because of format/pipeline/schema skew
    version_skips: int = 0
    #: stores abandoned because the directory was unwritable/full
    write_errors: int = 0


class DiskCache:
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
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.root = Path(cache_dir) if cache_dir is not None \
            else default_cache_dir()
        self.objects = self.root / "objects"
        self.max_bytes = max_bytes
        self.stats = DiskCacheStats()
        self._lock = threading.Lock()
        #: One structured warning per cache instance: the first
        #: abandoned store emits a ``diskcache.write_error`` telemetry
        #: event; later ones only bump the counters (a persistently
        #: unwritable directory would otherwise flood the event log).
        self._write_error_reported = False
        self._store = os.path.abspath(self.objects)

    @property
    def _size_estimate(self) -> int | None:
        """The directory's running size guess; None until a put of this
        process scans the store.  Only gates *when* the real (scanning)
        eviction runs — drift from concurrent processes cannot over- or
        under-delete."""
        return _SIZE_ESTIMATES.get(self._store)

    def _set_size_estimate(self, total: int) -> None:
        with _SIZE_ESTIMATES_LOCK:
            _SIZE_ESTIMATES[self._store] = total

    # -- paths ---------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """The entry file a fingerprint maps to (existing or not)."""
        return self.objects / key[:2] / f"{key}{_SUFFIX}"

    def _entries(self) -> list[Path]:
        if not self.objects.is_dir():
            return []
        return [p for p in self.objects.glob(f"*/*{_SUFFIX}") if p.is_file()]

    def __len__(self) -> int:
        return len(self._entries())

    def __bool__(self) -> bool:
        """Always ``True``: an *empty* cache is still a cache.

        Without this, ``__len__`` makes a fresh cache falsy, and code
        like ``cache or DiskCache()`` silently replaces a configured
        empty cache — the PR-4 ``--refine`` bug class.  Explicit
        ``is None`` tests are still the idiom; this makes the
        truthiness shortcut safe too.
        """
        return True

    def keys(self) -> list[str]:
        """Every fingerprint currently stored (sorted)."""
        return sorted(path.stem for path in self._entries())

    def size_bytes(self) -> int:
        """Total bytes currently stored (best effort under concurrency)."""
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    # -- get / put -----------------------------------------------------

    def get(self, key: str, schema: dict[str, int] | None = None) -> Any:
        """The object stored under ``key``, or ``None`` on any miss."""
        path = self.path_for(key)
        obs = current_telemetry()
        try:
            blob = path.read_bytes()
        except OSError:
            with self._lock:
                self.stats.misses += 1
            obs.count("diskcache.miss")
            return None
        obs.count("diskcache.bytes_read", len(blob))
        try:
            obj = deserialize(blob, schema)
        except CacheVersionError:
            with self._lock:
                self.stats.version_skips += 1
                self.stats.misses += 1
            obs.count("diskcache.version_skip")
            obs.count("diskcache.miss")
            self._drop(path)
            return None
        except CacheEntryError:
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
            obs.count("diskcache.corrupt")
            obs.count("diskcache.miss")
            self._drop(path)
            return None
        try:
            os.utime(path)  # LRU recency for eviction
        except OSError:
            pass
        with self._lock:
            self.stats.hits += 1
        obs.count("diskcache.hit")
        return obj

    def put(self, key: str, obj: Any,
            schema: dict[str, int] | None = None) -> None:
        """Atomically publish ``obj`` under ``key`` and enforce the
        size bound.

        Write failures (unwritable directory, full disk) degrade to an
        uncached compile — counted on ``stats.write_errors``, never
        raised: a broken cache must not break the compiler.  The first
        failure per cache additionally emits a structured
        ``diskcache.write_error`` telemetry event naming the path and
        the error, so a silently-degraded cache is visible in
        ``--timings``/``--trace`` output.
        """
        path = self.path_for(key)
        tmp = None
        try:
            blob = serialize(obj, schema)
            # A same-key overwrite replaces the old entry's bytes: the
            # running estimate must only grow by the *delta*, or
            # repeated re-stores of the same keys inflate it past the
            # bound and trigger needless full-scan eviction passes.
            try:
                old_size = path.stat().st_size
            except OSError:
                old_size = 0
            try:
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            except FileNotFoundError:
                # First entry of its fan-out directory: only then pay
                # for the mkdir.
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except Exception as exc:  # noqa: BLE001 — OSError *or* pickling failure
            if tmp is not None:
                self._drop(Path(tmp))
            with self._lock:
                self.stats.write_errors += 1
                first = not self._write_error_reported
                self._write_error_reported = True
            obs = current_telemetry()
            obs.count("diskcache.write_error")
            if first:
                obs.event("diskcache.write_error",
                          level="warning",
                          path=str(path),
                          error=f"{type(exc).__name__}: {exc}")
            return
        with self._lock:
            self.stats.stores += 1
        with _SIZE_ESTIMATES_LOCK:
            total = _SIZE_ESTIMATES.get(self._store)
            if total is None:
                total = self.size_bytes()
            else:
                total += len(blob) - old_size
            _SIZE_ESTIMATES[self._store] = total
        over_bound = total > self.max_bytes
        obs = current_telemetry()
        obs.count("diskcache.store")
        obs.count("diskcache.bytes_written", len(blob))
        if over_bound:
            self.gc()

    def clear(self) -> int:
        """Delete every entry (the directory itself is kept); returns
        the number of entries removed."""
        removed = 0
        for path in self._entries():
            self._drop(path)
            removed += 1
        self._set_size_estimate(0)
        return removed

    # -- admin (the ``repro cache`` verb and the serve endpoints) ------

    def delete(self, key: str) -> bool:
        """Remove one entry; True when it existed."""
        path = self.path_for(key)
        existed = path.is_file()
        self._drop(path)
        return existed

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
        age, only when the running size estimate crosses the bound, so
        steady-state fills stay O(1) per store.  Competing evictors
        racing on the same directory simply find some files already
        gone.
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        keep = set(pinned)
        now = time.time()
        stamped = []
        total = 0
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        removed = 0
        obs = current_telemetry()
        for mtime, size, path in sorted(stamped):
            if total <= bound:
                break
            if path.stem in keep or now - mtime < min_age:
                continue
            self._drop(path)
            with self._lock:
                self.stats.evictions += 1
            obs.count("diskcache.eviction")
            removed += 1
            total -= size
        self._set_size_estimate(total)
        return removed

    def verify(self) -> VerifyReport:
        """Read back every entry; drop (and report) the unusable ones.

        Corrupt entries can never be served; version-skewed ones can
        never be served *by this checkout* — both are removed so the
        store holds only entries a compile could actually restore.
        """
        report = VerifyReport()
        obs = current_telemetry()
        for path in sorted(self._entries()):
            report.checked += 1
            try:
                deserialize_envelope_only(path.read_bytes())
            except CacheVersionError:
                report.version_skew += 1
                report.dropped.append(path.stem)
                self._drop(path)
                obs.count("cache.verify_failures")
                continue
            except (CacheEntryError, OSError):
                report.corrupt += 1
                report.dropped.append(path.stem)
                self._drop(path)
                obs.count("cache.verify_failures")
                continue
            report.ok += 1
        return report

    # -- eviction ------------------------------------------------------

    def _drop(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
