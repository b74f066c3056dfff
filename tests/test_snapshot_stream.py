"""Tests for the per-compile snapshot stream of the stage cache.

Each cached compile pickles one stream with a frame per stage and
stores it as one pack per key run: the stream through the run's last
frame, with a header naming the run's frames.  These tests pin what the
stream rests on (stages never edit an earlier stage's artifacts), that
every frame of every pack restores to the artifacts its stage stored,
that a compile writes at most three packs and stores little more than
it pickles, that a diverging or failing compile keeps a pack of what
it ran, that a resumed compile's packs restore in a fresh cache, and
that a restore leaves no garbage for the cyclic collector.
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
        assert len(cache) == 3
        for pack in cache._entries.values():
            keys = header_keys(pack)
            for depth, key in enumerate(keys, 1):
                covered, stream = cache.restore(pack, keys[:depth],
                                                toolchain.core)
                assert covered == depth
                restored, expected = rendered(stream.artifacts), stored[key]
                differing = [name for name in expected
                             if restored.get(name) != expected[name]]
                assert sorted(restored) == sorted(expected)
                assert differing == [], f"frame {key[:12]}"

    def test_entries_of_one_compile_are_prefixes(self):
        """A first compile stores one pack per key run, each under the
        run's first key; their streams are prefixes of each other."""
        application, core, binding = app_case("audio")
        cache = StageCache()
        state = Toolchain(core, cache=cache).run_pipeline(
            application, io_binding=binding)
        keys = [state.fingerprints[stage.name] for stage in PIPELINE_STAGES]
        packs = [cache.get_entry(key)[0] for key in keys[:3]]
        assert len(cache) == 3
        assert [header_keys(pack) for pack in packs] == \
            [keys[:1], keys[1:2], keys[2:]]
        bodies = [body(pack) for pack in packs]
        for shorter, longer in zip(bodies, bodies[1:]):
            assert longer.startswith(shorter) and len(longer) > len(shorter)

    def test_each_artifact_is_pickled_once(self):
        """The frames a compile pickles add up to its last pack's
        stream: no stage re-pickles what an earlier frame holds."""
        application, core, binding = app_case("audio")
        cache = StageCache()
        obs = Telemetry()
        with use_telemetry(obs):
            state = Toolchain(core, cache=cache).run_pipeline(
                application, io_binding=binding)
        packs = [cache.get_entry(state.fingerprints[name])[0]
                 for name in ("parse", "optimize", "rtgen")]
        assert obs.counters["stagecache.bytes_pickled"] == len(body(packs[-1]))
        assert obs.counters["stagecache.bytes_stored"] == \
            sum(len(pack) for pack in packs)

    def test_put_stores_the_pack_as_it_is(self):
        cache = StageCache()
        stream = SnapshotStream()
        stream.dump("k", {"a": [1, 2], "b": "x"})
        key, pack, schema = stream.pack()
        assert key == "k" and set(schema) == {"a", "b"}
        assert stream.pack() is None  # every frame is packed
        cache.put(key, pack, schema)
        blob, tier = cache.get_entry("k")
        assert blob is pack and tier == "memory"
        covered, restored = cache.restore(blob, ["k"], audio_core())
        assert covered == 1
        assert restored.artifacts == {"a": [1, 2], "b": "x"}
        assert cache.restore(blob, ["other"], audio_core()) == (0, None)
        assert cache.restore(b"not a pack", ["k"], audio_core()) == (0, None)


class TestPacks:
    """One pack per key run: parse, optimize, rtgen ... assemble."""

    @pytest.mark.parametrize("opt", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
    def test_a_first_compile_stores_three_packs(self, name, opt):
        application, core, binding = app_case(name)
        obs = Telemetry()
        with use_telemetry(obs):
            Toolchain(core, cache=StageCache(disk=MemoryBackend()),
                      opt=opt).compile(application, io_binding=binding)
        counters = obs.counters
        assert counters["diskcache.store"] == counters["stagecache.store"] \
            <= 3
        assert counters["stagecache.bytes_stored"] <= \
            1.3 * counters["stagecache.bytes_pickled"]

    def test_a_partial_then_full_compile_leaves_a_branch_pack(
            self, tmp_path):
        """The full compile restores the partial one's pack through
        impose and stores what it ran as a branch under its schedule
        key; a warm recompile restores both, from either tier."""
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
        head, _ = cache.get_entry(keys[2])
        branch, _ = cache.get_entry(keys[5])
        assert header_keys(head) == keys[2:5]
        assert header_keys(branch) == keys[5:]
        assert body(branch).startswith(body(head))
        assert len(cache) == 4

        obs = Telemetry()
        with use_telemetry(obs):
            warm = toolchain.run_pipeline(application, io_binding=binding)
        assert warm.cache_counts() == \
            {"executed": 0, "memory": 8, "disk": 0}
        assert obs.counters["stagecache.restore"] == 4
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
        stages before it still publish their packs, so a larger budget
        restores through impose, from the same cache or from a fresh
        one over the same directory."""
        application, core, binding = app_case("audio")
        cache = StageCache(disk=DiskCache(tmp_path))
        with pytest.raises(ReproError):
            Toolchain(core, cache=cache, opt=0, budget=10).compile(
                application, io_binding=binding)
        assert cache.stats.stores == 3
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

    def test_resume_after_an_optimize_miss_continues_the_parse_frame(self):
        """Parse restored, optimize run: the optimize entry extends the
        restored parse entry byte for byte."""
        application, core, binding = app_case("audio")
        cache = StageCache()
        toolchain = Toolchain(core, cache=cache, opt=0)
        zero = toolchain.run_pipeline(application, io_binding=binding)
        one = toolchain.replace(opt=1).run_pipeline(application,
                                                    io_binding=binding)
        assert one.cache_hits["parse"] and not one.cache_hits["optimize"]
        parse_pack, _ = cache.get_entry(zero.fingerprints["parse"])
        optimize_pack, _ = cache.get_entry(one.fingerprints["optimize"])
        assert body(optimize_pack).startswith(body(parse_pack))

    def test_aliased_memo_slots_keep_the_numbering(self):
        """Two distinct equal one-character strings load as one cached
        object; the resumed pickler must still number new objects where
        the unpickler would."""
        literal, computed = "q", "qz"[:1]
        assert literal is not computed
        blob = dumped(SnapshotStream(), {"a": [literal, computed]})
        restored = SnapshotStream.load(blob, audio_core())
        shared = ["new"]
        blob = dumped(restored, {"a": restored.artifacts["a"],
                                 "b": (shared, shared, "tail")})
        again = SnapshotStream.load(blob, audio_core()).artifacts
        assert again["a"] == ["q", "q"]
        assert again["b"] == (["new"], ["new"], "tail")
        assert again["b"][0] is again["b"][1]


class Marker:
    """A picklable object of this module."""


class TestExtendedRestores:
    """A warm compile restores one key run after another; each later
    entry extends the stream restored so far, so only its added frames
    are loaded."""

    def test_a_warm_compile_loads_each_frame_once(self, monkeypatch):
        application, core, binding = app_case("audio")
        toolchain = Toolchain(core, cache=StageCache())
        cold = toolchain.run_pipeline(application, io_binding=binding)
        loads, extensions = [], []
        real_load, real_extend = SnapshotStream.load, SnapshotStream.extend
        monkeypatch.setattr(SnapshotStream, "load", classmethod(
            lambda cls, blob, core: loads.append(blob)
            or real_load.__func__(cls, blob, core)))

        def extend(self, blob):
            extended = real_extend(self, blob)
            extensions.append(extended)
            return extended

        monkeypatch.setattr(SnapshotStream, "extend", extend)
        warm = toolchain.run_pipeline(application, io_binding=binding)
        assert all(warm.cache_hits.values())
        # The first run has nothing to extend; the other two add frames.
        assert len(loads) == 1 and extensions == [False, True, True]
        assert rendered(warm.artifacts) == rendered(cold.artifacts)

    def test_an_unrelated_or_bad_entry_leaves_the_stream_intact(self):
        stream = SnapshotStream()
        first = dumped(stream, {"a": [1, 2]})
        second = dumped(stream, {"a": [1, 2], "b": ("x", [3])})
        assert SnapshotStream.load(first, audio_core()).extend(second)
        restored = SnapshotStream.load(first, audio_core())
        assert not restored.extend(b"unrelated bytes, longer than first")
        # A frame that memoizes objects before it fails to load.
        torn = pickle.dumps({"zz": ["pad", Marker()]}, protocol=5)
        assert not restored.extend(first + torn.replace(b"Marker", b"Absent"))
        assert restored.artifacts == {"a": [1, 2]}
        # A failed extension leaves a stream that is written on: its
        # next frame continues the bytes that loaded, numbering its
        # objects where they left off.
        assert not restored.extend(second)
        a, shared = restored.artifacts["a"], ["new"]
        blob = dumped(restored, {"a": a, "c": (a, shared, shared)})
        assert blob.startswith(first)
        again = SnapshotStream.load(blob, audio_core()).artifacts
        assert again == {"a": [1, 2], "c": ([1, 2], ["new"], ["new"])}
        assert again["c"][0] is again["a"]
        assert again["c"][1] is again["c"][2]


class TestRestoreGarbage:
    def test_a_dropped_restore_leaves_no_cycles(self):
        application, core, binding = app_case("audio")
        cache = StageCache()
        toolchain = Toolchain(core, cache=cache)
        state = toolchain.run_pipeline(application, io_binding=binding)
        pack, _ = cache.get_entry(state.fingerprints["rtgen"])
        del state
        gc.collect()
        covered, stream = cache.restore(pack, header_keys(pack),
                                        toolchain.core)
        assert covered == 6
        assert isinstance(stream.artifacts["source_dfg"].nodes, list)
        del stream
        assert gc.collect() == 0

    def test_core_references_bind_to_the_requesting_core(self):
        core = audio_core()
        other = audio_core()
        blob = dumped(SnapshotStream(), {"core": core, "pair": (core, 1)})
        artifacts = SnapshotStream.load(blob, other).artifacts
        assert artifacts["core"] is other
        assert artifacts["pair"][0] is other
        assert isinstance(other, CoreSpec)
