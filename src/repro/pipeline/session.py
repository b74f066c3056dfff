"""Stage caching: the machinery :class:`repro.toolchain.Toolchain` drives.

The stage-chain *driver* lives on :class:`repro.toolchain.Toolchain`
(the typed facade binding a core + options + cache); this module keeps
the cache machinery it drives — :class:`StageCache` (and the sweep
memo :class:`ExploreCache` beside it), the per-compile
:class:`SnapshotStream`, the cache statistics, and the batch result
types of :meth:`~repro.toolchain.Toolchain.compile_many`.

Each cached compile writes **one pickle stream**
(:class:`SnapshotStream`): a pickler whose memo lives as long as the
compile.  Right after a stage runs, the stream pickles one frame
holding only the artifacts whose identity changed — after parse just
``source_dfg``, after impose just the new ``program`` and
``conflict_model`` — and every object an earlier frame already holds
is written as a memo reference, not copied again.  The stream is
stored once per compile as a **pack**: the whole stream, behind a
header mapping every frame's stage key to the end offset of its frame.
A pack is stored under the key of the first stage the compile
executed, so a first compile writes one, under its parse key.  A
restore unpickles the frames in order, each restored stage its own
frame, into one artifact dict: one unpickler for the whole stream, so
every compile works on a private object graph and nothing a downstream
stage (or the caller) does to its artifacts can reach a cached prefix.
When stages run after a restored prefix, the compile continues the
restored stream (its pickler memo seeded from the unpickler's), so a
resumed compile still pickles only its new artifacts.  The core is
pickled by reference: restored artifacts point at the requesting
toolchain's own core object.

The stream rests on one rule: **a stage never edits an artifact an
earlier stage produced.**  A later frame refers to such an object
through the memo, so an in-place edit made after its frame would be
missing from every later frame, and a restored prefix would differ
from the uncached compile.  A stage that needs a changed artifact
builds a new object (impose returns a new ``program`` instead of
writing artificial resources into the lowering); facts several later
stages need are written by the stage that creates the objects, before
its frame (rtgen annotates every RT's class); a derived index filled
lazily on a shared object stays out of its pickled state (the DFG's
consumer index).

Every stage key chains onto the one before it, from the parse key on,
so the toolchain knows a compile's eight keys from the request and
resolves them once.  A lookup reads the pack under the parse key and
restores through the deepest frame whose header key matches; an
identical re-compile therefore reads and restores one pack.  A compile
that diverges (a new ``-O`` level, cycle budget or seed) restores the
shared prefix from that head pack, runs the rest, and stores a
**branch** pack under its first executed key (its new schedule key,
say).  The branch holds the whole stream, its header naming the
restored frames too, so both tails stay cached: when the head pack
leaves keys over, the lookup reads the pack under the next one and
restores from the deepest.  A compile whose stage raises still stores
the pack of the stages it ran; one whose restored frame does not load
drops the pack and stores nothing.

:class:`StageCache` and the explorer's :class:`ExploreCache` share one
policy, :class:`TwoTierCache`: a memory LRU over an optional
persistent :class:`~repro.pipeline.backend.CacheBackend`, which is
what makes a *second process* (or a warm design sweep the next
morning) start from the artifacts instead of the source.
:meth:`~repro.toolchain.Toolchain.compile_many` compiles a whole
application set through one shared cache so identical prefixes are
computed once across the batch.
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

from ..arch.explore import EXPLORATION_POINT_VERSION, ExplorationPoint
from ..arch.library import CoreSpec
from ..lang.dfg import Dfg
from ..lang.parser import parse_source
from ..obs import current_telemetry
from ..opt import optimize_machine_independent
from ..options import CompileOptions
from . import artifacts as _artifacts
from .artifacts import CompileState, artifact_schema, dfg_fingerprint
from .backend import CacheBackend, open_backend


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


def encode_pack(frames: Sequence[tuple[str, int]], stream: bytes) -> bytes:
    """A pack: a header naming each ``(stage key, end offset)`` of
    ``frames``, then the stream bytes through the last frame.

    Header: a count byte, then per frame a key length byte, the key
    (ASCII) and the frame's end offset (4 bytes LE) in ``stream``.
    """
    header = bytearray([len(frames)])
    for key, end in frames:
        raw = key.encode("ascii")
        header += len(raw).to_bytes(1, "little") + raw
        header += end.to_bytes(4, "little")
    return bytes(header) + stream[:frames[-1][1]]


def decode_pack(pack: bytes) -> tuple[list[tuple[str, int]], int]:
    """The ``(stage key, end offset)`` header of ``pack`` and the offset
    its stream starts at; raises on bytes that are not a pack."""
    frames, at = [], 1
    for _ in range(pack[0]):
        size = pack[at]
        key = pack[at + 1:at + 1 + size].decode("ascii")
        at += 1 + size
        frames.append((key, int.from_bytes(pack[at:at + 4], "little")))
        at += 4
    if not frames or at + frames[-1][1] != len(pack):
        raise ValueError("not a snapshot pack")
    return frames, at


def matched_frames(pack: bytes, keys: Sequence[str],
                   ) -> tuple[list[tuple[str, int]], int]:
    """The leading ``(stage key, end offset)`` frames of ``pack``'s
    header whose keys match ``keys``, and the offset its stream starts
    at; no frames for bytes that are not a pack."""
    try:
        frames, start = decode_pack(pack)
    except (IndexError, ValueError):
        return [], 0
    covered = 0
    for (key, _), wanted in zip(frames, keys):
        if key != wanted:
            break
        covered += 1
    return frames[:covered], start


class SnapshotStream:
    """One compile's snapshot stream: one pickle frame per stage.

    :meth:`dump` pickles the artifacts whose identity changed since the
    previous frame; :meth:`pack` hands out the stream with a header
    naming every frame.  A stream opened over a pack's bytes
    (:meth:`open`) loads its frames one at a time (:meth:`load_frame`), so each
    restored stage pays for its own frame.  The pickler memo lives as
    long as the stream, so a frame refers to what earlier frames hold
    instead of copying it.

    A stream belongs to one compile and is never shared: the stage
    cache may be used by several threads, the stream by one.
    """

    def __init__(self) -> None:
        #: the artifacts loaded so far (the compile takes this dict over)
        self.artifacts: dict[str, Any] = {}
        #: the key of the pack the stream was opened over
        self.origin: str | None = None
        self._written: dict[str, Any] = {}
        self._buffer: io.BytesIO | None = None
        self._pickler: pickle.Pickler | None = None
        self._unpickler: _SnapshotUnpickler | None = None
        #: ``(stage key, end offset)`` of every frame, restored or written
        self._frames: list[tuple[str, int]] = []
        #: how many leading frames came from a pack, and how many of
        #: those are loaded
        self._restored = 0
        self._loaded = 0
        #: set when a restored frame did not load: the stream then
        #: writes nothing and has no pack
        self._closed = False

    @classmethod
    def open(cls, blob: bytes, frames: Sequence[tuple[str, int]],
             core: CoreSpec) -> "SnapshotStream":
        """A stream over ``blob``, the bytes of ``frames``, with the
        core references bound to ``core``; nothing is loaded yet."""
        stream = cls()
        stream._buffer = io.BytesIO(blob)
        stream._unpickler = _SnapshotUnpickler(stream._buffer, core)
        stream._frames = list(frames)
        stream._restored = len(frames)
        return stream

    @property
    def pending(self) -> int:
        """The restored frames not loaded yet."""
        return self._restored - self._loaded

    def load_frame(self) -> bool:
        """Load the next restored frame, merging it into
        :attr:`artifacts`.  Returns ``False`` when it does not load; the
        stream is then closed."""
        # A frame is thousands of fresh containers and no garbage:
        # cyclic collections triggered mid-load would only rescan them.
        paused = gc.isenabled()
        gc.disable()
        try:
            added = self._unpickler.load()
        except Exception:  # noqa: BLE001 — an unloadable frame is a miss
            self._restored = self._loaded
            self._closed = True
            return False
        finally:
            if paused:
                gc.enable()
        self._loaded += 1
        self.artifacts.update(added)
        self._written.update(added)
        return True

    def dump(self, key: str, artifacts: dict[str, Any]) -> int:
        """Append the frame of the stage keyed ``key``: the artifacts of
        ``artifacts`` whose identity changed.  Returns its size."""
        if self._closed:
            return 0
        written = self._written
        delta = {name: value for name, value in artifacts.items()
                 if written.get(name, _UNWRITTEN) is not value}
        # A frame (and a pickler memo seeded from a restore) is
        # thousands of containers and no garbage: cyclic collections
        # triggered meanwhile would only rescan them.
        paused = gc.isenabled()
        gc.disable()
        try:
            if self._pickler is None:
                self._open()
            start = self._buffer.tell()
            self._pickler.dump(delta)
        finally:
            if paused:
                gc.enable()
        written.update(delta)
        end = self._buffer.tell()
        self._frames.append((key, end))
        current_telemetry().count("stagecache.bytes_pickled", end - start)
        return end - start

    def pack(self) -> tuple[str, bytes, dict[str, int]] | None:
        """``(key, pack, schema)`` of the stream, or None when it wrote
        no frame (or is closed).

        The pack is the whole stream (a frame refers to every earlier
        one), its header naming every frame, the restored ones too, so
        it restores on its own; it is stored under the key of the
        first frame written.  ``schema`` is the artifact schema of
        everything the stream holds.
        """
        if self._closed or len(self._frames) == self._restored:
            return None
        pack = encode_pack(self._frames, self._buffer.getvalue())
        return (self._frames[self._restored][0], pack,
                artifact_schema(self._written))

    def _open(self) -> None:
        """Create the pickler; after a restore it continues the loaded
        stream, numbering new objects where the unpickler left off."""
        if self._buffer is None:
            self._buffer = io.BytesIO()
        pickler = pickle.Pickler(self._buffer, pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = _SNAPSHOT_REDUCERS
        if self._unpickler is not None:
            memo = self._unpickler.memo.copy()
            self._unpickler = None
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

    ``hits`` and ``misses`` count stages: a compile's restored stages
    are hits, the rest of its chain misses.  ``disk_hits`` is the subset
    of ``hits`` served by the persistent tier (and hydrated into
    memory).
    ``stores`` and ``evictions`` count packs.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0


class TwoTierCache:
    """A bounded, thread-safe in-memory LRU over an optional
    :class:`~repro.pipeline.backend.CacheBackend` (``disk``): the one
    tiering policy of :class:`StageCache` and :class:`ExploreCache`.

    A memory miss falls through to the backend, and its hit is copied
    into memory; :meth:`store` writes both tiers.  Values are held as
    given, so a subclass stores only immutable ones.
    """

    def __init__(self, max_entries: int, disk: "CacheBackend | None"):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.disk = disk
        self._entries: OrderedDict[str, Any] = OrderedDict()
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

    def lookup(self, key: str, schema: dict[str, int],
               ) -> tuple[Any, str | None]:
        """``(value, "memory" | "disk")`` stored under ``key``, or
        ``(None, None)``; the backend serves only entries of ``schema``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                return value, "memory"
        if self.disk is not None:
            value = self.disk.get(key, schema=schema)
            if value is not None:
                with self._lock:
                    self._insert(key, value)
                return value, "disk"
        return None, None

    def store(self, key: str, value: Any,
              schema: dict[str, int] | None) -> None:
        """Store ``value`` under ``key`` in memory and, when layered, in
        the backend (with ``schema``)."""
        with self._lock:
            self._insert(key, value)
        if self.disk is not None:
            self.disk.put(key, value, schema=schema)

    def drop(self, key: str) -> None:
        """Remove ``key`` from both tiers."""
        with self._lock:
            self._entries.pop(key, None)
        if self.disk is not None:
            self.disk.delete(key)

    def clear(self) -> None:
        """Drop the memory tier (the disk store is untouched)."""
        with self._lock:
            self._entries.clear()

    def _insert(self, key: str, value: Any) -> None:
        """Install an entry and enforce the LRU bound (lock held)."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evicted()

    def _evicted(self) -> None:
        """Account for one LRU eviction (lock held)."""


class StageCache(TwoTierCache):
    """Cache of snapshot packs, keyed by stage fingerprint.

    Each entry is a pack (:meth:`SnapshotStream.pack`): the bytes of a
    compile's stream through its last executed stage, stored under the
    key of its first executed stage, so cached state is immutable by
    construction and :meth:`restore` hands out a fresh object graph
    every time.
    """

    def __init__(self, max_entries: int = 256,
                 disk: "CacheBackend | None" = None):
        super().__init__(max_entries, disk)
        self.stats = CacheStats()

    @classmethod
    def placed(cls, options: CompileOptions) -> "StageCache":
        """The cache ``options`` place: memory only without
        ``disk_cache``, else over the backend ``cache_dir`` names (a
        directory path, ``None`` for the default :class:`DiskCache`
        placement, or ``"memory:<name>"`` for a process-shared
        in-memory backend)."""
        if options.disk_cache:
            return cls(disk=open_backend(options.cache_dir))
        return cls()

    def resolve(self, keys: Sequence[str], core: CoreSpec,
                ) -> tuple[SnapshotStream, str | None]:
        """Find the deepest cached stage of a compile's key chain.

        ``keys`` are consecutive stages' keys, from parse on.  The pack
        under ``keys[0]`` covers the stages its header shares with
        ``keys``; when that leaves keys over, the pack under the next
        one (a branch a diverging compile stored) is read, and so on,
        and the deepest pack wins.  Returns ``(stream, tier)``: a
        stream opened over that pack, whose first ``stream.pending``
        stages are hits the compile loads one frame at a time
        (:meth:`load_frame`), and the tier (``"memory"`` or ``"disk"``)
        that served it.  A fresh stream and ``None`` when nothing is
        cached.  Nothing is deserialized here.
        """
        found, tier, depth = None, None, 0
        while depth < len(keys):
            origin = keys[depth]
            pack, source = self.get_entry(origin)
            covered = 0 if pack is None else len(matched_frames(pack, keys)[0])
            if covered <= depth:
                break
            found, tier, depth = (origin, pack), source, covered
        if found is None:
            return SnapshotStream(), None
        origin, pack = found
        current_telemetry().count("stagecache.restore")
        stream = self.restore(pack, keys, core)
        stream.origin = origin
        return stream, tier

    def load_frame(self, stream: SnapshotStream) -> bool:
        """Load the next restored frame of a stream :meth:`resolve`
        returned.

        A frame that does not load (a class moved since the pack was
        written) drops the pack from both tiers and returns ``False``:
        the compile runs its remaining stages uncached, and the next
        compile stores a new pack.
        """
        if stream.load_frame():
            return True
        self.drop(stream.origin)
        return False

    def tally(self, hits: int, misses: int, tier: str | None) -> None:
        """Count one compile's stages: ``hits`` restored from ``tier``,
        ``misses`` not."""
        from_disk = hits if tier == "disk" else 0
        with self._lock:
            self.stats.hits += hits
            self.stats.misses += misses
            self.stats.disk_hits += from_disk
        obs = current_telemetry()
        if hits:
            obs.count("stagecache.hit", hits)
        if from_disk:
            obs.count("stagecache.disk_hit", from_disk)
        if misses:
            obs.count("stagecache.miss", misses)

    def get_entry(self, key: str) -> tuple[bytes | None, str | None]:
        """The pack stored under ``key`` and its tier (:meth:`lookup`
        under the current artifact schema).  Nothing is deserialized."""
        return self.lookup(key, _artifacts.ARTIFACT_VERSIONS)

    def restore(self, pack: bytes, keys: Sequence[str],
                core: CoreSpec) -> SnapshotStream | None:
        """A stream over ``pack`` through the deepest frame whose key
        matches ``keys`` (its header's keys in order), the core
        references bound to ``core``; ``stream.pending`` is the number
        of stages it restores.  None when the first key does not match
        or the bytes are not a pack (the stages then run, and their
        store replaces the pack)."""
        frames, start = matched_frames(pack, keys)
        if not frames:
            return None
        return SnapshotStream.open(pack[start:start + frames[-1][1]],
                                   frames, core)

    def put(self, key: str, pack: bytes,
            schema: dict[str, int] | None = None) -> None:
        """Store ``pack`` under ``key`` in both tiers (with ``schema``,
        the artifact schema of what it holds)."""
        self.store(key, pack, schema)
        with self._lock:
            self.stats.stores += 1
        obs = current_telemetry()
        obs.count("stagecache.store")
        obs.count("stagecache.bytes_stored", len(pack))

    def _evicted(self) -> None:
        self.stats.evictions += 1
        current_telemetry().count("stagecache.eviction")


#: Points an :class:`ExploreCache` keeps in memory: more than any
#: committed sweep evaluates, so a warm re-sweep is served from memory.
_EXPLORE_MEMORY_POINTS = 4096

_POINT_SCHEMA = {"exploration_point": EXPLORATION_POINT_VERSION}


class ExploreCache(TwoTierCache):
    """Memo of evaluated candidates, keyed by (applications, allocation,
    budget, opt level).  Share one across sweeps to pay only for new
    candidates; with ``disk``, a warm re-sweep in a *new process* reads
    yesterday's feedback instead of recompiling it.  Points are frozen,
    so the memo hands out the objects it holds.

    It also memoizes, in memory only, the sweep's front end
    (:meth:`parse` and :meth:`optimize`), so a re-sweep over the same
    sources parses nothing and runs no optimizer pass.
    """

    def __init__(self, disk: "CacheBackend | None" = None):
        super().__init__(_EXPLORE_MEMORY_POINTS, disk)
        # source text -> its parsed graph
        self._parsed: dict[str, Dfg] = {}
        # (source fingerprint, opt level) -> (optimized graph, its
        # fingerprint)
        self._optimized: dict[tuple[str, int], tuple[Dfg, str]] = {}
        self.hits = 0
        self.misses = 0
        #: subset of ``hits`` served by the persistent tier
        self.disk_hits = 0

    def get(self, key: str) -> ExplorationPoint | None:
        point, tier = self.lookup(key, _POINT_SCHEMA)
        if point is None:
            self.misses += 1
            return None
        self.hits += 1
        if tier == "disk":
            self.disk_hits += 1
        return point

    def put(self, key: str, point: ExplorationPoint) -> None:
        self.store(key, point, _POINT_SCHEMA)

    def parse(self, text: str) -> Dfg:
        """``text`` parsed, memoized on the text.  The sweep only reads
        its source graphs, so every sweep shares the one parsed graph
        (and with it that graph's memoized fingerprint)."""
        dfg = self._parsed.get(text)
        if dfg is None:
            dfg = self._parsed[text] = parse_source(text)
        return dfg

    def optimize(self, dfg: Dfg, level: int) -> tuple[Dfg, str]:
        """``dfg`` machine-independently optimized at ``level``, with the
        optimized graph's fingerprint (what candidate keys are built
        from), memoized on the source's fingerprint."""
        key = (dfg_fingerprint(dfg), level)
        front = self._optimized.get(key)
        if front is None:
            optimized = optimize_machine_independent(dfg, level=level)[0]
            front = self._optimized[key] = (optimized,
                                            dfg_fingerprint(optimized))
        return front


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
