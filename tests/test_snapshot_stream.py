"""Tests for the per-compile snapshot stream of the stage cache.

Each cached compile pickles one stream with a frame per stage; a
stage's entry is the stream up to its frame.  These tests pin what the
stream rests on (stages never edit an earlier stage's artifacts), that
every entry restores to the artifacts its stage stored, that a resumed
compile's entries restore in a fresh cache, and that a restore leaves
no garbage for the cyclic collector.
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
from repro.pipeline import (
    PIPELINE_STAGES,
    CompileRequest,
    CompileState,
    StageCache,
)
from repro.pipeline.backend import MemoryBackend
from repro.pipeline.session import SnapshotStream

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


def pickled(value) -> bytes:
    """The value's bytes as the stage cache would pickle it."""
    blob, _ = SnapshotStream().dump({"value": value})
    return blob


class RecordingCache(StageCache):
    """A stage cache remembering what each put stored."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.stored: list[tuple[str, object]] = []

    def put(self, key, artifacts, stream=None):
        super().put(key, artifacts, stream)
        self.stored.append((key, rendered(artifacts)))


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
                                                       merged):
        application, core, binding = app_case(name)
        cache = RecordingCache()
        toolchain = Toolchain(core, cache=cache, opt=opt)
        toolchain.compile(application, io_binding=binding,
                          merges=merge_spec(name, merged))
        assert len(cache.stored) == len(PIPELINE_STAGES)
        for key, expected in cache.stored:
            blob, _ = cache.get_entry(key)
            restored = rendered(cache.restore(blob, toolchain.core).artifacts)
            differing = [name for name in expected
                         if restored.get(name) != expected[name]]
            assert sorted(restored) == sorted(expected)
            assert differing == [], f"entry {key[:12]}"

    def test_entries_of_one_compile_are_prefixes(self):
        application, core, binding = app_case("audio")
        cache = StageCache()
        state = Toolchain(core, cache=cache).run_pipeline(
            application, io_binding=binding)
        entries = [cache.get_entry(state.fingerprints[stage.name])[0]
                   for stage in PIPELINE_STAGES]
        for shorter, longer in zip(entries, entries[1:]):
            assert longer.startswith(shorter) and len(longer) > len(shorter)

    def test_each_artifact_is_pickled_once(self):
        """The frames a compile pickles add up to its last entry: no
        stage re-pickles what an earlier frame holds."""
        from repro.obs import Telemetry, use_telemetry

        application, core, binding = app_case("audio")
        cache = StageCache()
        obs = Telemetry()
        with use_telemetry(obs):
            state = Toolchain(core, cache=cache).run_pipeline(
                application, io_binding=binding)
        entries = [cache.get_entry(key)[0]
                   for key in state.fingerprints.values()]
        assert obs.counters["stagecache.bytes_pickled"] == len(entries[-1])
        assert obs.counters["stagecache.bytes_stored"] == \
            sum(len(entry) for entry in entries)

    def test_put_without_a_stream_is_one_frame(self):
        cache = StageCache()
        cache.put("k", {"a": [1, 2], "b": "x"})
        blob, tier = cache.get_entry("k")
        assert tier == "memory"
        assert cache.restore(blob, audio_core()).artifacts == \
            {"a": [1, 2], "b": "x"}


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
        parse_entry, _ = cache.get_entry(zero.fingerprints["parse"])
        optimize_entry, _ = cache.get_entry(one.fingerprints["optimize"])
        assert optimize_entry.startswith(parse_entry)

    def test_aliased_memo_slots_keep_the_numbering(self):
        """Two distinct equal one-character strings load as one cached
        object; the resumed pickler must still number new objects where
        the unpickler would."""
        literal, computed = "q", "qz"[:1]
        assert literal is not computed
        stream = SnapshotStream()
        blob, _ = stream.dump({"a": [literal, computed]})
        restored = SnapshotStream.load(blob, audio_core())
        shared = ["new"]
        blob, _ = restored.dump({"a": restored.artifacts["a"],
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
        first, _ = stream.dump({"a": [1, 2]})
        second, _ = stream.dump({"a": [1, 2], "b": ("x", [3])})
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
        blob, _ = restored.dump({"a": a, "c": (a, shared, shared)})
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
        blob, _ = cache.get_entry(state.fingerprints["assemble"])
        del state
        gc.collect()
        stream = cache.restore(blob, toolchain.core)
        assert isinstance(stream.artifacts["source_dfg"].nodes, list)
        del stream
        assert gc.collect() == 0

    def test_core_references_bind_to_the_requesting_core(self):
        core = audio_core()
        other = audio_core()
        blob, _ = SnapshotStream().dump({"core": core, "pair": (core, 1)})
        artifacts = SnapshotStream.load(blob, other).artifacts
        assert artifacts["core"] is other
        assert artifacts["pair"][0] is other
        assert isinstance(other, CoreSpec)
