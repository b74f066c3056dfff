"""Tests for the per-compile snapshot stream of the stage cache.

Each cached compile pickles one stream with a frame per stage and
stores it as one pack: the whole stream, with a header naming every
frame.  These tests pin what the stream rests on (stages never edit an
earlier stage's artifacts), that every frame of every pack restores to
the artifacts its stage stored, that a first compile writes one pack
and stores little more than it pickles, that a diverging or failing
compile keeps a pack of what it ran, that a resumed compile's packs
restore in a fresh cache, that each restored stage loads its own
frame, and that a restore leaves no garbage for the cyclic collector.
"""

from __future__ import annotations

import enum
import gc
import pickle
import types

import pytest

from repro import Toolchain
from repro.arch import MergeSpec, audio_core
from repro.arch.library import CoreSpec
from repro.errors import ReproError
from repro.obs import Telemetry, use_telemetry
from repro.pipeline import (
    PIPELINE_STAGES,
    CompileRequest,
    CompileState,
    StageCache,
)
from repro.pipeline.backend import MemoryBackend
from repro.pipeline.diskcache import DiskCache
from repro.pipeline.session import SnapshotStream, decode_pack
from repro.pipeline.stages import chain_keys

from builtin_apps import BUILTIN_APPS, app_case


def merge_spec(name, merged):
    """A merge the application's core takes and still allocates."""
    if not merged:
        return None
    if name == "audio":
        return MergeSpec().merge_register_files(
            "rf_opb", ["rf_opb1", "rf_opb2"])
    return MergeSpec().merge_buses("bus_ma", ["bus_mult", "bus_alu"])


def canonical(value, memo=None) -> str:
    """A structural rendering of an artifact graph for comparison.

    Objects render as their class and reduced state, sets sorted (set
    iteration order is not part of an artifact's value), and a core as
    a marker (snapshots hold it by reference).  Each object is rendered
    once and its text reused; a reference back into an object still
    being rendered renders as a marker.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, CoreSpec):
        return "<core>"
    if isinstance(value, enum.Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if isinstance(value, (type, types.FunctionType)):
        return f"{value.__module__}.{value.__qualname__}"
    memo = {} if memo is None else memo
    if id(value) in memo:
        return memo[id(value)][1]
    # The memo keeps each value alive, so no id is reused mid-render.
    memo[id(value)] = (value, "<cycle>")
    if isinstance(value, (list, tuple)):
        parts = [canonical(item, memo) for item in value]
    elif isinstance(value, (set, frozenset)):
        parts = sorted(canonical(item, memo) for item in value)
    elif isinstance(value, dict):
        parts = [f"{canonical(k, memo)}: {canonical(v, memo)}"
                 for k, v in value.items()]
    else:
        parts = [canonical(part, memo)
                 for part in value.__reduce_ex__(5)[1:]]
    text = f"{type(value).__qualname__}({', '.join(parts)})"
    memo[id(value)] = (value, text)
    return text


def rendered(artifacts) -> dict[str, str]:
    """Artifact name -> :func:`canonical` text, one memo for all."""
    memo: dict = {}
    return {name: canonical(value, memo) for name, value in artifacts.items()}


def fresh_state(application, core, binding, merges, opt):
    """An empty compile state for driving the stages by hand."""
    toolchain = Toolchain(core, cache=None, opt=opt)
    request = CompileRequest(application=application, core=toolchain.core,
                             options=toolchain.options, io_binding=binding,
                             merges=merges)
    return CompileState(request=request)


def body(pack: bytes) -> bytes:
    """The stream bytes a pack holds (without its header)."""
    _, start = decode_pack(pack)
    return pack[start:]


def header_keys(pack: bytes) -> list[str]:
    """The stage keys a pack's header names, in order."""
    frames, _ = decode_pack(pack)
    return [key for key, _ in frames]


def dumped(stream: SnapshotStream, artifacts) -> bytes:
    """Dump a frame of ``artifacts`` into ``stream``; its bytes so far."""
    stream.dump("frame", artifacts)
    return body(stream.pack()[1])


def loaded(stream: SnapshotStream) -> SnapshotStream:
    """``stream`` with every restored frame loaded."""
    while stream.pending:
        assert stream.load_frame()
    return stream


def reopened(stream: SnapshotStream, core) -> SnapshotStream:
    """``stream``'s pack opened again and loaded, as a restore does."""
    pack = stream.pack()[1]
    frames, start = decode_pack(pack)
    return loaded(SnapshotStream.open(pack[start:], frames, core))


def pickled(value) -> bytes:
    """The value's bytes as the stage cache would pickle it."""
    return dumped(SnapshotStream(), {"value": value})


class TestStagePurity:
    @pytest.mark.parametrize("merged", [False, True],
                             ids=["plain", "merged"])
    @pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
    def test_no_stage_edits_an_earlier_artifact(self, name, merged):
        """After each stage body, every artifact object an earlier stage
        produced and the state still holds pickles exactly as before.
        A later frame refers to such objects by memo, so an edit would
        be lost from every later entry."""
        application, core, binding = app_case(name)
        state = fresh_state(application, core, binding,
                            merge_spec(name, merged), opt=1)
        for stage in PIPELINE_STAGES:
            before = {artifact: (value, pickled(value))
                      for artifact, value in state.artifacts.items()}
            stage.run(state)
            state.completed.append(stage.name)
            for artifact, (value, blob) in before.items():
                if state.artifacts[artifact] is value:
                    assert pickled(value) == blob, \
                        f"stage {stage.name!r} edited {artifact!r}"


class TestEntriesRestore:
    @pytest.mark.parametrize("merged", [False, True],
                             ids=["plain", "merged"])
    @pytest.mark.parametrize("opt", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
    def test_every_entry_restores_its_stored_artifacts(self, name, opt,
                                                       merged, monkeypatch):
        """Every frame of every pack restores, through its own key, to
        the artifacts its stage dumped."""
        stored = {}
        real_dump = SnapshotStream.dump

        def recording(self, key, artifacts):
            stored[key] = rendered(artifacts)
            return real_dump(self, key, artifacts)

        monkeypatch.setattr(SnapshotStream, "dump", recording)
        application, core, binding = app_case(name)
        cache = StageCache()
        toolchain = Toolchain(core, cache=cache, opt=opt)
        toolchain.compile(application, io_binding=binding,
                          merges=merge_spec(name, merged))
        assert len(stored) == len(PIPELINE_STAGES)
        assert len(cache) == 1
        for pack in cache._entries.values():
            keys = header_keys(pack)
            for depth, key in enumerate(keys, 1):
                stream = cache.restore(pack, keys[:depth], toolchain.core)
                assert stream.pending == depth
                restored = rendered(loaded(stream).artifacts)
                expected = stored[key]
                differing = [name for name in expected
                             if restored.get(name) != expected[name]]
                assert sorted(restored) == sorted(expected)
                assert differing == [], f"frame {key[:12]}"

    def test_a_first_compile_stores_one_pack_naming_every_stage(self):
        """A first compile stores one pack, under its parse key; the
        header names the eight keys the request chains to, each frame
        ending after the one before it."""
        application, core, binding = app_case("audio")
        cache = StageCache()
        state = Toolchain(core, cache=cache).run_pipeline(
            application, io_binding=binding)
        keys = chain_keys(PIPELINE_STAGES, state.request)
        assert keys == [state.fingerprints[stage.name]
                        for stage in PIPELINE_STAGES]
        assert len(cache) == 1
        frames, _ = decode_pack(cache.get_entry(keys[0])[0])
        assert [key for key, _ in frames] == keys
        ends = [end for _, end in frames]
        assert ends == sorted(set(ends))

    def test_each_artifact_is_pickled_once(self):
        """The frames a compile pickles add up to its pack's stream: no
        stage re-pickles what an earlier frame holds."""
        application, core, binding = app_case("audio")
        cache = StageCache()
        obs = Telemetry()
        with use_telemetry(obs):
            state = Toolchain(core, cache=cache).run_pipeline(
                application, io_binding=binding)
        pack, _ = cache.get_entry(state.fingerprints["parse"])
        assert obs.counters["stagecache.bytes_pickled"] == len(body(pack))
        assert obs.counters["stagecache.bytes_stored"] == len(pack)

    def test_put_stores_the_pack_as_it_is(self):
        cache = StageCache()
        stream = SnapshotStream()
        stream.dump("k", {"a": [1, 2], "b": "x"})
        key, pack, schema = stream.pack()
        assert key == "k" and set(schema) == {"a", "b"}
        cache.put(key, pack, schema)
        blob, tier = cache.get_entry("k")
        assert blob is pack and tier == "memory"
        restored = cache.restore(blob, ["k"], audio_core())
        assert restored.pending == 1
        assert loaded(restored).artifacts == {"a": [1, 2], "b": "x"}
        assert cache.restore(blob, ["other"], audio_core()) is None
        assert cache.restore(b"not a pack", ["k"], audio_core()) is None


class TestPacks:
    """One pack per compile; a compile that diverges from a cached one
    adds a branch pack."""

    @pytest.mark.parametrize("opt", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
    def test_a_first_compile_stores_one_pack(self, name, opt):
        application, core, binding = app_case(name)
        obs = Telemetry()
        with use_telemetry(obs):
            Toolchain(core, cache=StageCache(disk=MemoryBackend()),
                      opt=opt).compile(application, io_binding=binding)
        counters = obs.counters
        assert counters["diskcache.store"] == counters["stagecache.store"] \
            == 1
        assert counters["stagecache.bytes_stored"] <= \
            1.3 * counters["stagecache.bytes_pickled"]

    def test_a_partial_then_full_compile_leaves_a_branch_pack(
            self, tmp_path):
        """The full compile restores the partial one's pack through
        impose and stores the whole stream as a branch under its
        schedule key; a warm recompile reads both and restores the
        branch alone, from either tier."""
        application, core, binding = app_case("audio")
        cache = StageCache(disk=DiskCache(tmp_path))
        toolchain = Toolchain(core, cache=cache, budget=64)
        partial = toolchain.replace(stop_after="impose").run_pipeline(
            application, io_binding=binding)
        assert partial.completed[-1] == "impose"
        full = toolchain.run_pipeline(application, io_binding=binding)
        assert full.cache_counts() == \
            {"executed": 3, "memory": 5, "disk": 0}
        keys = [full.fingerprints[stage.name] for stage in PIPELINE_STAGES]
        head, _ = cache.get_entry(keys[0])
        branch, _ = cache.get_entry(keys[5])
        assert header_keys(head) == keys[:5]
        assert header_keys(branch) == keys
        assert body(branch).startswith(body(head))
        assert len(cache) == 2

        obs = Telemetry()
        with use_telemetry(obs):
            warm = toolchain.run_pipeline(application, io_binding=binding)
        assert warm.cache_counts() == \
            {"executed": 0, "memory": 8, "disk": 0}
        assert obs.counters["stagecache.restore"] == 1
        fresh = Toolchain(core, cache=StageCache(disk=DiskCache(tmp_path)),
                          budget=64).run_pipeline(application,
                                                  io_binding=binding)
        assert fresh.cache_counts() == \
            {"executed": 0, "memory": 0, "disk": 8}
        assert fresh.binary.words == warm.binary.words == full.binary.words

    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_a_failing_stage_keeps_the_pack_of_what_ran(self, tmp_path,
                                                        tier):
        """A budget below the critical path makes schedule raise; the
        stages before it still publish their pack, so a larger budget
        restores through impose, from the same cache or from a fresh
        one over the same directory."""
        application, core, binding = app_case("audio")
        cache = StageCache(disk=DiskCache(tmp_path))
        with pytest.raises(ReproError):
            Toolchain(core, cache=cache, opt=0, budget=10).compile(
                application, io_binding=binding)
        assert cache.stats.stores == 1
        if tier == "disk":
            cache = StageCache(disk=DiskCache(tmp_path))
        state = Toolchain(core, cache=cache, opt=0, budget=64).run_pipeline(
            application, io_binding=binding)
        assert state.cache_counts() == {"executed": 3, "memory": 0,
                                        "disk": 0, tier: 5}
        assert state.as_compiled().n_cycles == 63


class TestResumedStreams:
    @pytest.mark.parametrize("change", [{"seed": 5}, {"budget": 80},
                                        {"restarts": 2}],
                             ids=["seed", "budget", "restarts"])
    def test_prefix_hit_entries_restore_in_a_fresh_cache(self, change):
        """A compile resumed from a cached prefix continues the restored
        stream; a fresh cache over the same backend restores the entries
        it wrote to a compile bit-identical to an uncached one."""
        application, core, binding = app_case("audio")
        backend = MemoryBackend()
        first = Toolchain(core, cache=StageCache(disk=backend), budget=64)
        first.compile(application, io_binding=binding)
        resumed = first.replace(**change).run_pipeline(
            application, io_binding=binding)
        assert resumed.cache_counts()["memory"] == 5
        assert resumed.cache_counts()["executed"] == 3

        options = {"budget": 64, **change}
        fresh = Toolchain(core, cache=StageCache(disk=backend), **options)
        state = fresh.run_pipeline(application, io_binding=binding)
        assert state.cache_counts() == \
            {"executed": 0, "memory": 0, "disk": len(PIPELINE_STAGES)}
        uncached = Toolchain(core, cache=None, **options) \
            .compile(application, io_binding=binding)
        compiled = state.as_compiled()
        assert compiled.binary.words == uncached.binary.words
        assert compiled.binary.rom_words == uncached.binary.rom_words
        assert compiled.n_cycles == uncached.n_cycles

    def test_an_opt_level_change_stores_a_branch_pack(self, tmp_path):
        """A new ``-O`` level restores parse from the head pack and
        stores a branch under its optimize key that continues the parse
        frame byte for byte; both levels then recompile warm, from
        memory and from a fresh cache over the same store."""
        application, core, binding = app_case("audio")
        disk = DiskCache(tmp_path)
        cache = StageCache(disk=disk)
        one = Toolchain(core, cache=cache, opt=1)
        head_keys = [one.run_pipeline(application, io_binding=binding)
                     .fingerprints[stage.name] for stage in PIPELINE_STAGES]
        two = one.replace(opt=2)
        branched = two.run_pipeline(application, io_binding=binding)
        assert branched.cache_counts() == \
            {"executed": 7, "memory": 1, "disk": 0}
        keys = [branched.fingerprints[stage.name]
                for stage in PIPELINE_STAGES]
        assert keys[0] == head_keys[0] and keys[1] != head_keys[1]
        head, _ = cache.get_entry(keys[0])
        branch, _ = cache.get_entry(keys[1])
        assert header_keys(head) == head_keys
        assert header_keys(branch) == keys
        parse_end = decode_pack(head)[0][0][1]
        assert body(branch).startswith(body(head)[:parse_end])
        assert len(cache) == 2
        for toolchain in (one, two):
            warm = toolchain.run_pipeline(application, io_binding=binding)
            assert warm.cache_counts() == \
                {"executed": 0, "memory": 8, "disk": 0}
            fresh = toolchain.replace(cache=StageCache(disk=disk)) \
                .run_pipeline(application, io_binding=binding)
            assert fresh.cache_counts() == \
                {"executed": 0, "memory": 0, "disk": 8}
            assert fresh.binary.words == warm.binary.words

    def test_aliased_memo_slots_keep_the_numbering(self):
        """Two distinct equal one-character strings load as one cached
        object; the resumed pickler must still number new objects where
        the unpickler would."""
        literal, computed = "q", "qz"[:1]
        assert literal is not computed
        first = SnapshotStream()
        first.dump("a", {"a": [literal, computed]})
        restored = reopened(first, audio_core())
        shared = ["new"]
        restored.dump("b", {"a": restored.artifacts["a"],
                            "b": (shared, shared, "tail")})
        again = reopened(restored, audio_core()).artifacts
        assert again["a"] == ["q", "q"]
        assert again["b"] == (["new"], ["new"], "tail")
        assert again["b"][0] is again["b"][1]


class Marker:
    """A picklable object of this module."""


class TestFrameLoads:
    """A restore reads one pack and each restored stage loads its own
    frame; a frame that does not load is a miss from that stage on."""

    def test_a_warm_compile_loads_each_frame_once(self, monkeypatch):
        application, core, binding = app_case("audio")
        toolchain = Toolchain(core, cache=StageCache())
        toolchain.replace(stop_after="impose").run_pipeline(
            application, io_binding=binding)
        cold = toolchain.run_pipeline(application, io_binding=binding)
        opened, loads = [], []
        real_open, real_load = SnapshotStream.open, SnapshotStream.load_frame
        monkeypatch.setattr(SnapshotStream, "open", classmethod(
            lambda cls, blob, frames, core: opened.append(len(frames))
            or real_open.__func__(cls, blob, frames, core)))

        def load_frame(self):
            loads.append(self._loaded)
            return real_load(self)

        monkeypatch.setattr(SnapshotStream, "load_frame", load_frame)
        warm = toolchain.run_pipeline(application, io_binding=binding)
        assert all(warm.cache_hits.values())
        # The head pack is read but not opened: the branch holds the
        # whole stream, and each of its frames loads once.
        assert opened == [len(PIPELINE_STAGES)]
        assert loads == list(range(len(PIPELINE_STAGES)))
        assert rendered(warm.artifacts) == rendered(cold.artifacts)

    def test_a_frame_that_does_not_load_drops_the_pack(self):
        """Parse and optimize restore; the rtgen frame names a module
        that does not exist, so rtgen onward executes, the pack leaves
        both tiers, and the next compile stores a good one."""
        application, core, binding = app_case("audio")
        backend = MemoryBackend()
        cache = StageCache(disk=backend)
        toolchain = Toolchain(core, cache=cache, budget=64)
        expected = toolchain.compile(application, io_binding=binding)
        key = toolchain.run_pipeline(application, io_binding=binding) \
            .fingerprints["parse"]
        pack = cache._entries[key]
        frames, start = decode_pack(pack)
        module = b"repro.rtgen.program"
        assert pack.index(module) > start + frames[1][1]
        cache._entries[key] = pack.replace(module, b"repro.rtgen.pXogram")
        state = toolchain.run_pipeline(application, io_binding=binding)
        assert state.cache_counts() == \
            {"executed": 6, "memory": 2, "disk": 0}
        assert state.binary.words == expected.binary.words
        assert key not in cache._entries and backend.get(key) is None
        toolchain.run_pipeline(application, io_binding=binding)
        warm = toolchain.run_pipeline(application, io_binding=binding)
        assert warm.cache_counts()["memory"] == len(PIPELINE_STAGES)


class TestRestoreGarbage:
    def test_a_dropped_restore_leaves_no_cycles(self):
        application, core, binding = app_case("audio")
        cache = StageCache()
        toolchain = Toolchain(core, cache=cache)
        state = toolchain.run_pipeline(application, io_binding=binding)
        pack, _ = cache.get_entry(state.fingerprints["parse"])
        del state
        gc.collect()
        stream = cache.restore(pack, header_keys(pack), toolchain.core)
        assert stream.pending == len(PIPELINE_STAGES)
        loaded(stream)
        assert isinstance(stream.artifacts["source_dfg"].nodes, list)
        del stream
        assert gc.collect() == 0

    def test_core_references_bind_to_the_requesting_core(self):
        core = audio_core()
        other = audio_core()
        stream = SnapshotStream()
        stream.dump("k", {"core": core, "pair": (core, 1)})
        artifacts = reopened(stream, other).artifacts
        assert artifacts["core"] is other
        assert artifacts["pair"][0] is other
        assert isinstance(other, CoreSpec)
