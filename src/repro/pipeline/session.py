"""Stage caching: the machinery :class:`repro.toolchain.Toolchain` drives.

The stage-chain *driver* lives on :class:`repro.toolchain.Toolchain`
(the typed facade binding a core + options + cache); this module keeps
the cache machinery it drives — :class:`StageCache`, the per-compile
:class:`SnapshotStream`, the cache statistics, and the batch result
types of :meth:`~repro.toolchain.Toolchain.compile_many`.

Each cached compile writes **one pickle stream**
(:class:`SnapshotStream`): a pickler whose memo lives as long as the
compile.  Right after a stage runs, the stream pickles one frame
holding only the artifacts whose identity changed — after parse just
``source_dfg``, after impose just the new ``program`` and
``conflict_model`` — and every object an earlier frame already holds
is written as a memo reference, not copied again.  A stage's cache
entry is the stream's bytes up to and including its frame, so the
entries of one compile are prefixes of each other.  A restore reads
the frames in order and merges them into one artifact dict: a single
unpickling pass, so every compile works on a private object graph and
nothing a downstream stage (or the caller) does to its artifacts can
reach a cached prefix.  When stages run after a restored prefix, the
compile continues the restored stream (its pickler memo seeded from
the unpickler's), so a resumed compile still pickles only its new
artifacts.  The core is pickled by reference: restored artifacts point
at the requesting toolchain's own core object.

The stream rests on one rule: **a stage never edits an artifact an
earlier stage produced.**  A later frame refers to such an object
through the memo, so an in-place edit made after its frame would be
missing from every later entry, and a restored prefix would differ
from the uncached compile.  A stage that needs a changed artifact
builds a new object (impose returns a new ``program`` instead of
writing artificial resources into the lowering); facts several later
stages need are written by the stage that creates the objects, before
its frame (rtgen annotates every RT's class); a derived index filled
lazily on a shared object stays out of its pickled state (the DFG's
consumer index).

The driver resolves a compile by walking the key chain and restoring
only the deepest hit.  The parse and optimize entries are small and
are read first, because the optimize and rtgen keys hash their DFGs;
every key from rtgen on is a pure chain of the rtgen key and the
request, so those stages are probed from the deepest back and one
snapshot is deserialized.  An identical re-compile therefore restores
three snapshots, and a compile that differs only late in the chain
(say a new cycle budget) restores the deepest shared prefix once and
runs the rest.

The memory cache can be layered over a persistent
:class:`~repro.pipeline.backend.CacheBackend`: misses fall through to
the store, hydrate the memory tier with the same bytes, and stores are
written through — which is what makes a *second process* (or a warm
design sweep the next morning) start from the artifacts instead of the
source.  :meth:`~repro.toolchain.Toolchain.compile_many` compiles a
whole application set through one shared cache so identical prefixes
are computed once across the batch.
"""

from __future__ import annotations

import copyreg
import gc
import io
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..arch.library import CoreSpec
from ..obs import current_telemetry
from .artifacts import CompileState, artifact_schema
from .backend import CacheBackend


def _core_ref() -> CoreSpec:
    """The global a pickled core reference names; only
    :class:`_SnapshotUnpickler` resolves it (to the requesting core)."""
    raise pickle.UnpicklingError("stage snapshots load only through "
                                 "StageCache.restore")


def _reduce_core(core: CoreSpec):
    return _core_ref, ()


#: copyreg's reducers plus one for :class:`CoreSpec`.  A per-pickler
#: dispatch table is consulted in C, so only the core itself costs a
#: Python call (a ``persistent_id`` hook would run once per object).
_SNAPSHOT_REDUCERS = {**copyreg.dispatch_table, CoreSpec: _reduce_core}


class _SnapshotUnpickler(pickle.Unpickler):
    """Reads a snapshot stream, binding its core references to
    ``core``."""

    def __init__(self, buffer: io.BytesIO, core: CoreSpec):
        super().__init__(buffer)
        self.core = core

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == _core_ref.__name__:
            # Close over the core, not over self: pickle memoizes the
            # returned global, and a closure over the unpickler would
            # tie it into a cycle with its memo, leaving every restored
            # graph to the cyclic collector.
            core = self.core
            return lambda: core
        return super().find_class(module, name)


#: Marks an artifact name the stream has not written yet (``None`` is a
#: real artifact value).
_UNWRITTEN = object()


class SnapshotStream:
    """One compile's snapshot stream: one pickle frame per stage.

    :meth:`dump` pickles the artifacts whose identity changed since the
    previous frame and returns the stream's bytes so far — the entry
    of the stage that just ran.  :meth:`load` reads an entry back.
    The pickler memo lives as long as the stream, so a frame refers to
    what earlier frames hold instead of copying it.

    A stream belongs to one compile and is never shared: the stage
    cache may be used by several threads, the stream by one.
    """

    def __init__(self) -> None:
        #: the artifacts a restore produced (the compile takes this
        #: dict over); empty for a new stream
        self.artifacts: dict[str, Any] = {}
        self._written: dict[str, Any] = {}
        self._buffer: io.BytesIO | None = None
        self._pickler: pickle.Pickler | None = None
        self._unpickler: _SnapshotUnpickler | None = None

    @classmethod
    def load(cls, blob: bytes, core: CoreSpec) -> "SnapshotStream":
        """Read every frame of ``blob`` (merging them in order) with the
        core references bound to ``core``; raises on bytes that do not
        load."""
        buffer = io.BytesIO(blob)
        unpickler = _SnapshotUnpickler(buffer, core)
        artifacts: dict[str, Any] = {}
        while buffer.tell() < len(blob):
            artifacts.update(unpickler.load())
        stream = cls()
        stream.artifacts = artifacts
        stream._written = dict(artifacts)
        stream._buffer = buffer
        # Kept only to seed the pickler if this compile runs on; a
        # compile that restores its last stage never pays for that.
        stream._unpickler = unpickler
        return stream

    def extend(self, blob: bytes) -> bool:
        """Load the frames ``blob`` adds to this restored stream.

        ``blob`` must be a later entry of the stream (it starts with
        every byte loaded so far).  Returns ``False`` when it is not,
        when the stream has started writing, or when the added frames
        do not load; the stream then holds what it held before, and a
        stream whose extension failed is written on, never extended.
        """
        unpickler, buffer = self._unpickler, self._buffer
        if unpickler is None:
            return False
        size = buffer.tell()
        if len(blob) <= size or not blob.startswith(buffer.getvalue()):
            return False
        memo = unpickler.memo.copy()
        buffer.write(blob[size:])
        buffer.seek(size)
        added: dict[str, Any] = {}
        try:
            while buffer.tell() < len(blob):
                added.update(unpickler.load())
        except Exception:  # noqa: BLE001 — an unloadable entry is a miss
            # The unpickler's memo now holds the torn frame's objects:
            # cut the bytes back and continue from the memo as it was.
            buffer.seek(size)
            buffer.truncate()
            self._open(memo)
            return False
        self.artifacts.update(added)
        self._written.update(added)
        return True

    def dump(self, artifacts: dict[str, Any]) -> tuple[bytes, int]:
        """Append a frame of the artifacts of ``artifacts`` whose
        identity changed; return ``(entry bytes, frame bytes)``."""
        if self._pickler is None:
            self._open()
        written = self._written
        delta = {name: value for name, value in artifacts.items()
                 if written.get(name, _UNWRITTEN) is not value}
        start = self._buffer.tell()
        self._pickler.dump(delta)
        written.update(delta)
        return self._buffer.getvalue(), self._buffer.tell() - start

    def _open(self, memo: dict[int, Any] | None = None) -> None:
        """Create the pickler; after a restore it continues the loaded
        stream, numbering new objects where the unpickler left off (or
        after ``memo``, the unpickler's memo as it was)."""
        if self._buffer is None:
            self._buffer = io.BytesIO()
        pickler = pickle.Pickler(self._buffer, pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = _SNAPSHOT_REDUCERS
        if memo is None and self._unpickler is not None:
            memo = self._unpickler.memo.copy()
        self._unpickler = None
        if memo is not None:
            # The pickler numbers its next object len(memo).  Two slots
            # can load as one object (pickle returns cached one-character
            # strings); a placeholder then keeps the slot counted.
            if len({id(value) for value in memo.values()}) < len(memo):
                seen: set[int] = set()
                for index, value in memo.items():
                    if id(value) in seen:
                        value = memo[index] = object()
                    seen.add(id(value))
            pickler.memo = {index: (index, value)
                            for index, value in memo.items()}
        self._pickler = pickler


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`StageCache`.

    ``hits`` and ``misses`` count stages: a restore covers every stage
    up to the restored one.  ``disk_hits`` is the subset of ``hits``
    served by the persistent tier (and hydrated into memory).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0


class StageCache:
    """LRU cache of serialized per-stage snapshots, keyed by fingerprint.

    Thread-safe: explore workers running in threads may share one
    cache.  Each entry is the bytes of a compile's
    :class:`SnapshotStream` up to one stage (:meth:`put`), so cached
    state is immutable by construction and :meth:`restore` hands out a
    fresh object graph every time.

    ``disk`` layers a persistent backend underneath — any
    :class:`~repro.pipeline.backend.CacheBackend` (the local-directory
    :class:`~repro.pipeline.diskcache.DiskCache`, the in-process
    :class:`~repro.pipeline.backend.MemoryBackend`, a remote store): it
    receives the same bytes on every store, and a memory miss that the
    backend serves hydrates the memory tier with them.
    """

    def __init__(self, max_entries: int = 256,
                 disk: "CacheBackend | None" = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.disk = disk
        self.stats = CacheStats()
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        """Always ``True``: an *empty* cache is still a cache.

        ``__len__`` alone makes a fresh cache falsy, so shortcuts like
        ``cache or StageCache()`` silently dropped a configured empty
        cache (the PR-4 ``--refine`` bug).  Pinned by regression test;
        ``is None`` remains the way to ask "is caching disabled".
        """
        return True

    def resolve(self, keys: Sequence[str], core: CoreSpec,
                stream: SnapshotStream | None = None,
                ) -> tuple[int, SnapshotStream | None, str | None]:
        """Restore the deepest cached stage of a key chain.

        ``keys`` are consecutive stages' keys; a key certifies its
        whole prefix, so they are probed deepest first and only the
        first hit is deserialized.  Returns ``(n, stream, tier)``: the
        first ``n`` stages are hits served by ``tier`` (``"memory"`` or
        ``"disk"``) and restored as ``stream.artifacts``; the rest are
        misses, and the compile runs them on into ``stream``.
        ``(0, None, None)`` when nothing is cached.  ``stream`` is the
        compile's stream so far: a hit that extends it only loads the
        frames it adds (see :meth:`restore`).
        """
        current, stream = stream, None
        for depth in range(len(keys), 0, -1):
            blob, tier = self.get_entry(keys[depth - 1])
            stream = None if blob is None else self.restore(blob, core,
                                                            current)
            if stream is not None:
                break
        else:
            depth, tier = 0, None
        misses = len(keys) - depth
        with self._lock:
            self.stats.hits += depth
            self.stats.misses += misses
            if tier == "disk":
                self.stats.disk_hits += depth
        obs = current_telemetry()
        if depth:
            obs.count("stagecache.hit", depth)
            if tier == "disk":
                obs.count("stagecache.disk_hit", depth)
        if misses:
            obs.count("stagecache.miss", misses)
        return depth, stream, tier

    def get_entry(self, key: str) -> tuple[bytes | None, str | None]:
        """The serialized snapshot under ``key`` and its tier.

        Returns ``(bytes, "memory" | "disk")`` on a hit and
        ``(None, None)`` on a miss; a backend hit hydrates the memory
        tier.  Nothing is deserialized.
        """
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
                return blob, "memory"
        if self.disk is not None:
            from .artifacts import ARTIFACT_VERSIONS

            blob = self.disk.get(key, schema=ARTIFACT_VERSIONS)
            if blob is not None:
                with self._lock:
                    self._insert(key, blob)
                return blob, "disk"
        return None, None

    def restore(self, blob: bytes, core: CoreSpec,
                stream: SnapshotStream | None = None,
                ) -> SnapshotStream | None:
        """Deserialize one entry, its core references bound to
        ``core``; ``None`` when the bytes do not load (the stage then
        runs, and its store replaces the entry).

        When ``blob`` extends ``stream`` (a stream restored earlier in
        the same compile, e.g. up to the stage whose output keys the
        next run), only the added frames are loaded, into ``stream``,
        so a warm compile unpickles each frame once."""
        # A snapshot is thousands of fresh containers and no garbage:
        # cyclic collections triggered mid-load would only rescan them.
        paused = gc.isenabled()
        gc.disable()
        try:
            if stream is None or not stream.extend(blob):
                stream = SnapshotStream.load(blob, core)
        except Exception:  # noqa: BLE001 — an unloadable entry is a miss
            return None
        finally:
            if paused:
                gc.enable()
        current_telemetry().count("stagecache.restore")
        return stream

    def put(self, key: str, artifacts: dict[str, Any],
            stream: SnapshotStream | None = None) -> None:
        """Store the snapshot of ``artifacts`` under ``key`` in memory
        and, when layered, in the backend.

        ``stream`` is the compile's :class:`SnapshotStream`: only the
        artifacts that changed since its last frame are pickled, and
        the entry is the stream so far.  Without one the entry is a
        one-frame stream of all of ``artifacts``.
        """
        if stream is None:
            stream = SnapshotStream()
        blob, pickled = stream.dump(artifacts)
        with self._lock:
            self._insert(key, blob)
            self.stats.stores += 1
        obs = current_telemetry()
        obs.count("stagecache.store")
        obs.count("stagecache.bytes_pickled", pickled)
        obs.count("stagecache.bytes_stored", len(blob))
        if self.disk is not None:
            self.disk.put(key, blob, schema=artifact_schema(artifacts))

    def _insert(self, key: str, blob: bytes) -> None:
        """Install an entry and enforce the LRU bound (lock held)."""
        self._entries[key] = blob
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            current_telemetry().count("stagecache.eviction")

    def clear(self) -> None:
        """Drop the memory tier (the disk store is untouched)."""
        with self._lock:
            self._entries.clear()


class _DefaultCache:
    """Sentinel *type* for "create a private cache for this toolchain".

    A real class (not a bare ``object()``) so the ``cache`` parameter
    of :class:`repro.toolchain.Toolchain` can be annotated
    ``StageCache | None | _DefaultCache`` — type checkers then see an
    honest signature instead of an ``object`` escape hatch.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<default cache>"


#: The one sentinel instance: "create a private cache for this toolchain".
_DEFAULT_CACHE = _DefaultCache()


# ----------------------------------------------------------------------
# Batched multi-application compiles


@dataclass
class BatchEntry:
    """One application's outcome within a :class:`BatchResult`.

    Exactly one of ``state`` / ``error`` is set; ``seconds`` is the
    wall-clock cost of this application inside the batch.
    """

    name: str
    state: CompileState | None = None
    error: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when this application compiled."""
        return self.state is not None


@dataclass
class BatchResult:
    """The outcome of one batched compile
    (:meth:`repro.toolchain.Toolchain.compile_many`)."""

    entries: list[BatchEntry] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every application in the batch compiled."""
        return all(entry.ok for entry in self.entries)

    @property
    def states(self) -> list[CompileState]:
        """The states of the applications that compiled, batch order."""
        return [e.state for e in self.entries if e.state is not None]

    def stage_counts(self) -> dict[str, int]:
        """``{"executed": n, "memory": n, "disk": n}`` over the batch."""
        counts = {"executed": 0, "memory": 0, "disk": 0}
        for entry in self.entries:
            if entry.state is None:
                continue
            for tier, n in entry.state.cache_counts().items():
                counts[tier] += n
        return counts
