"""Tests for the staged pipeline: toolchains, caching, partial compiles.

Satellite coverage of the stage cache: hit on identical re-compile,
invalidation when the source / core / opt level changes, bit-identical
binaries between cached and cold compiles, and the
:class:`CompileOptions` round-trip / fingerprint-stability properties
the cache keys rest on.
"""

import copy
import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    Q15,
    CompileOptions,
    Telemetry,
    Toolchain,
    audio_core,
    run_reference,
    tiny_core,
)
from repro.apps import audio_application, audio_io_binding
from repro.errors import OptionsError
from repro.gen import GenSpec, generate_dfg
from repro.lang import parse_source
from repro.lang.dfg import Node, NodeKind, StateSpec
from repro.options import SEMANTIC_FIELDS
from repro.pipeline import (
    PIPELINE_STAGES,
    STAGE_NAMES,
    CompileRequest,
    DiskCache,
    StageCache,
    core_fingerprint,
    dfg_fingerprint,
)
from repro.pipeline import artifacts as artifacts_module
from repro.pipeline import stages as stages_module
from repro.pipeline.session import encode_pack
from repro.pipeline.stages import chain_keys

from builtin_apps import BUILTIN_APPS

SOURCE = """
app opts;
param k = 0.5;
input i; output o;
state s(1);
loop {
  s = i;
  m := mlt(k, s@1);
  o = add_clip(m, i);
}
"""

VARIANT = SOURCE.replace("0.5", "0.25")

N_STAGES = len(PIPELINE_STAGES)


def stimulus():
    return {"i": [Q15.from_float(v) for v in (0.5, -0.25, 0.125, 0.0, 0.9)]}


def toolchain(core=None, **options):
    """A memory-cached toolchain (the sessions' classic behavior)."""
    return Toolchain(core if core is not None else audio_core(),
                     cache=StageCache(), **options)


def words_of(compiled) -> tuple[list, list]:
    """The bits of a compiled program, copied out."""
    return list(compiled.binary.words), list(compiled.binary.rom_words)


def deep_edit(compiled) -> None:
    """Vandalize a compiled program deep inside, in place: cycles,
    an RT's resource uses, the register allocation, the binary."""
    for rt in compiled.schedule.cycle_of:
        compiled.schedule.cycle_of[rt] += 3
    compiled.rt_program.rts[0].uses = ()
    compiled.allocation.register_of.clear()
    compiled.allocation.pressure.clear()
    compiled.binary.words.clear()


class TestToolchainBasics:
    def test_cached_and_cold_toolchains_binaries_identical(self):
        cold = Toolchain(audio_core(), cache=None, budget=64).compile(SOURCE)
        warm = toolchain(budget=64).compile(SOURCE)
        assert cold.binary.words == warm.binary.words

    def test_stage_chain_names(self):
        assert STAGE_NAMES == ("parse", "optimize", "rtgen", "merge",
                               "impose", "schedule", "regalloc", "assemble")

    def test_unknown_stop_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            toolchain(stop_after="codegen")

    def test_partial_compile_stops_after_stage(self):
        state = toolchain(budget=64, stop_after="schedule") \
            .run_pipeline(SOURCE)
        assert state.completed == list(STAGE_NAMES[:6])
        assert not state.is_complete
        assert state.schedule.length <= 64
        assert "binary" not in state.artifacts
        with pytest.raises(ValueError, match="stopped after"):
            state.as_compiled()

    def test_partial_then_full_resumes_from_cached_prefix(self):
        partial = toolchain(budget=64, stop_after="schedule")
        partial.run_pipeline(SOURCE)
        state = partial.replace(stop_after=None).run_pipeline(SOURCE)
        assert all(state.cache_hits[name] for name in STAGE_NAMES[:6])
        assert not state.cache_hits["regalloc"]
        compiled = state.as_compiled()
        assert compiled.run(stimulus()) == \
            run_reference(compiled.dfg, stimulus())

    def test_compile_always_runs_the_full_chain(self):
        # compile() ignores a configured stop_after: it promises a
        # CompiledProgram (run_pipeline is the partial-compile verb).
        compiled = toolchain(budget=64, stop_after="schedule") \
            .compile(SOURCE)
        assert compiled.binary.words

    def test_core_resolution_by_name(self):
        by_name = Toolchain("audio", cache=None, budget=64).compile(SOURCE)
        by_spec = Toolchain(audio_core(), cache=None, budget=64) \
            .compile(SOURCE)
        assert by_name.binary.words == by_spec.binary.words


class TestStageCache:
    def test_cache_hit_on_identical_recompile(self):
        tc = toolchain(budget=64)
        first = tc.compile(SOURCE)
        second = tc.compile(SOURCE)
        assert tc.cache.stats.hits == N_STAGES
        assert tc.cache.stats.misses == N_STAGES
        assert first.binary.words == second.binary.words

    def test_cached_and_cold_binaries_bit_identical(self):
        cold = Toolchain(audio_core(), cache=None, budget=64).compile(SOURCE)
        tc = toolchain(budget=64)
        tc.compile(SOURCE)
        warm = tc.compile(SOURCE)
        assert warm.binary.words == cold.binary.words
        assert warm.binary.rom_words == cold.binary.rom_words
        assert warm.run(stimulus()) == cold.run(stimulus())

    def test_source_change_invalidates_everything(self):
        tc = toolchain(budget=64)
        tc.compile(SOURCE)
        state = tc.run_pipeline(VARIANT)
        assert not any(state.cache_hits.values())

    def test_opt_level_change_invalidates_optimize(self):
        # A common subexpression -O1 removes, so -O0 and -O1 lower
        # different graph content.
        cse_source = """
        app cse;
        param k = 0.5;
        input i; output o;
        loop {
          a := mlt(k, i);
          b := mlt(k, i);
          o = add_clip(a, b);
        }
        """
        tc = toolchain(opt=1)
        tc.compile(cse_source)
        state = tc.replace(opt=0).run_pipeline(cse_source)
        assert state.cache_hits["parse"]
        assert not state.cache_hits["optimize"]
        # -O0 lowers the unoptimized graph: different content, so the
        # downstream stages must re-run too.
        assert not state.cache_hits["rtgen"]

    def test_core_change_keeps_machine_independent_prefix(self):
        tc = toolchain()
        tc.compile("app g; input i; output o; loop { o = pass(i); }")
        state = tc.replace(core=tiny_core()).run_pipeline(
            "app g; input i; output o; loop { o = pass(i); }")
        # audio and tiny share the fixed-point format, so parse AND the
        # machine-independent optimize stage are reused; lowering is not.
        assert state.cache_hits["parse"]
        assert state.cache_hits["optimize"]
        assert not state.cache_hits["rtgen"]

    def test_budget_change_reuses_prefix_through_impose(self):
        tc = toolchain(budget=64)
        tc.compile(SOURCE)
        state = tc.replace(budget=32).run_pipeline(SOURCE)
        for name in ("parse", "optimize", "rtgen", "merge", "impose"):
            assert state.cache_hits[name], name
        assert not state.cache_hits["schedule"]

    def test_downstream_mutation_cannot_poison_cache(self):
        tc = toolchain(budget=64)
        first = tc.compile(SOURCE)
        first.rt_program.rts.clear()
        first.binary.words.clear()
        second = tc.compile(SOURCE)
        assert second.binary.words
        assert second.run(stimulus()) == \
            run_reference(second.dfg, stimulus())

    def test_downstream_mutation_cannot_poison_disk_tier(self, tmp_path):
        disk = DiskCache(tmp_path)
        tc = Toolchain(audio_core(), cache=StageCache(disk=disk), budget=64)
        first = tc.compile(SOURCE)
        expected = words_of(first)
        deep_edit(first)
        fresh = Toolchain(audio_core(), cache=StageCache(disk=disk),
                          budget=64)
        assert words_of(fresh.compile(SOURCE)) == expected
        assert words_of(tc.compile(SOURCE)) == expected

    def test_mutating_a_warm_result_cannot_poison_cache(self):
        tc = toolchain(budget=64)
        expected = words_of(tc.compile(SOURCE))
        warm = tc.compile(SOURCE)
        assert tc.cache.stats.hits == N_STAGES
        deep_edit(warm)
        assert words_of(tc.compile(SOURCE)) == expected
        assert words_of(tc.compile(SOURCE)) == expected

    def test_deep_in_place_edits_cannot_poison_cache(self):
        tc = toolchain(budget=64)
        first = tc.compile(SOURCE)
        expected = words_of(first)
        deep_edit(first)
        assert words_of(tc.compile(SOURCE)) == expected
        # A new budget restores the impose snapshot, whose RTs the
        # edits reached in the live result.
        resumed = tc.replace(budget=48).compile(SOURCE)
        assert resumed.run(stimulus()) == \
            run_reference(resumed.dfg, stimulus())
        assert words_of(tc.compile(SOURCE)) == expected

    def test_shared_cache_across_toolchains(self):
        cache = StageCache()
        Toolchain(audio_core(), cache=cache, budget=64).compile(SOURCE)
        state = Toolchain(audio_core(), cache=cache, budget=64) \
            .run_pipeline(SOURCE)
        assert all(state.cache_hits.values())

    def test_lru_eviction(self):
        """The bound counts packs: a first compile stores one."""
        cache = StageCache(max_entries=1)
        tc = Toolchain(audio_core(), cache=cache, budget=64)
        tc.compile(SOURCE)
        assert (len(cache), cache.stats.evictions) == (1, 0)
        tc.compile(VARIANT)
        assert (len(cache), cache.stats.evictions) == (1, 1)
        state = tc.run_pipeline(SOURCE)
        assert not any(state.cache_hits.values())


class TestSerializedSnapshots:
    """Snapshots are pickled once per stage and restored with one
    unpickling pass: no deep copies, the core by reference, one full
    restore per warm compile."""

    def test_no_deepcopy_on_any_compile_path(self, tmp_path, monkeypatch):
        import copy

        def refuse(*args, **kwargs):
            raise AssertionError("copy.deepcopy called on a compile path")

        monkeypatch.setattr(copy, "deepcopy", refuse)
        cache = StageCache(disk=DiskCache(tmp_path))
        tc = Toolchain(audio_core(), cache=cache, budget=64)
        cold = tc.run_pipeline(SOURCE)
        warm = tc.run_pipeline(SOURCE)
        prefix = tc.replace(budget=48).run_pipeline(SOURCE)
        disk = Toolchain(audio_core(), budget=64,
                         cache=StageCache(disk=DiskCache(tmp_path))) \
            .run_pipeline(SOURCE)
        assert cold.cache_counts() == {"executed": 8, "memory": 0, "disk": 0}
        assert warm.cache_counts() == {"executed": 0, "memory": 8, "disk": 0}
        assert prefix.cache_counts() == \
            {"executed": 3, "memory": 5, "disk": 0}
        assert disk.cache_counts() == {"executed": 0, "memory": 0, "disk": 8}
        assert disk.binary.words == warm.binary.words == cold.binary.words

    def test_restored_artifacts_reference_the_toolchains_core(self,
                                                              tmp_path):
        disk = DiskCache(tmp_path)
        first = Toolchain(audio_core(), cache=StageCache(disk=disk),
                          budget=64)
        first.compile(SOURCE)
        warm = first.run_pipeline(SOURCE)
        assert warm.program.core is first.core
        assert warm.base_program.core is first.core
        # A new process brings its own (equal, distinct) core object.
        second = Toolchain(audio_core(), cache=StageCache(disk=disk),
                           budget=64)
        assert second.core is not first.core
        restored = second.run_pipeline(SOURCE)
        assert restored.cache_counts()["disk"] == N_STAGES
        assert restored.program.core is second.core
        assert restored.as_compiled().core is second.core

    def test_warm_strict_verification_checks_every_boundary(self):
        obs = Telemetry()
        tc = Toolchain("audio", CompileOptions(disk_cache=False,
                                               verify="strict", budget=64),
                       telemetry=obs)
        tc.compile(SOURCE)
        cold_checks = obs.counters["verify.checks"]
        tc.compile(SOURCE)
        assert tc.cache.stats.hits == N_STAGES
        assert cold_checks > 0
        assert obs.counters["verify.checks"] == 2 * cold_checks

    def test_warm_audio_compile_reads_one_pack_a_frame_per_stage(
            self, monkeypatch):
        """One lookup, one pack, and each stage unpickles its own frame
        inside its own span."""
        from repro.obs import current_telemetry
        from repro.pipeline.session import SnapshotStream

        obs = Telemetry()
        tc = Toolchain("audio", CompileOptions(disk_cache=False),
                       telemetry=obs)
        tc.compile(audio_application(), io_binding=audio_io_binding())
        assert "stagecache.restore" not in obs.counters
        lookups, spans = [], []
        real_get, real_load = StageCache.get_entry, SnapshotStream.load_frame

        def get_entry(self, key):
            lookups.append(key)
            return real_get(self, key)

        def load_frame(self):
            spans.append(current_telemetry().current_span.name)
            return real_load(self)

        monkeypatch.setattr(StageCache, "get_entry", get_entry)
        monkeypatch.setattr(SnapshotStream, "load_frame", load_frame)
        state = tc.run_pipeline(audio_application(),
                                io_binding=audio_io_binding())
        assert state.cache_counts()["memory"] == N_STAGES
        assert lookups == [state.fingerprints["parse"]]
        assert obs.counters["stagecache.restore"] == 1
        assert spans == [f"stage:{name}" for name in STAGE_NAMES]
        assert obs.counters["stagecache.bytes_stored"] > 0

    def test_unloadable_snapshot_is_a_miss_and_gets_replaced(self):
        """A pack whose bytes no longer unpickle (a class moved since
        they were written) is a miss: the compile executes again and
        drops the pack, and the next compile stores a new one."""
        tc = toolchain(budget=64)
        state = tc.run_pipeline(SOURCE)
        key = state.fingerprints["parse"]
        bad = b"cno_such_module\nThing\n."
        tc.cache._entries[key] = encode_pack([(key, len(bad))], bad)
        again = tc.run_pipeline(SOURCE)
        assert not any(again.cache_hits.values())
        assert key not in tc.cache._entries
        tc.run_pipeline(SOURCE)
        keys = [state.fingerprints[stage.name] for stage in PIPELINE_STAGES]
        restored = tc.cache.restore(tc.cache._entries[key], keys, tc.core)
        assert restored.pending == N_STAGES
        assert again.as_compiled().run(stimulus()) == \
            run_reference(again.dfg, stimulus())

    def test_impose_leaves_the_lowered_program_alone(self):
        """On an unmerged core ``program`` starts as ``base_program``;
        imposing the instruction set must not write the artificial
        resource uses back into the plain lowering."""
        for cache in (None, StageCache()):
            state = Toolchain("audio", cache=cache, opt=0, budget=64) \
                .run_pipeline(audio_application(),
                              io_binding=audio_io_binding())
            artificial = set(state.conflict_model.artificial_resources)
            assert artificial  # the audio core imposes iset:ABC

            def artificial_uses(program):
                return [use for rt in program.rts for use in rt.uses
                        if use.resource in artificial]

            assert artificial_uses(state.program)
            assert artificial_uses(state.base_program) == []
            assert state.base_rts == state.base_program.rts


class TestKeyChain:
    """Parse is the one root key; every later key chains onto the one
    before it, so a compile's keys are known from the request alone."""

    def test_only_a_graph_application_is_hashed(self, monkeypatch):
        hashed = []
        real = stages_module.dfg_fingerprint

        def recording(dfg):
            hashed.append(dfg)
            return real(dfg)

        monkeypatch.setattr(stages_module, "dfg_fingerprint", recording)
        monkeypatch.setattr("repro.pipeline.artifacts.dfg_fingerprint",
                            recording)
        tc = toolchain(budget=64)
        tc.compile(SOURCE)
        tc.compile(SOURCE)
        assert hashed == []
        graph = parse_source(SOURCE)
        tc.compile(graph)
        assert hashed == [graph]

    def test_an_unchanged_graph_is_rendered_once(self, dfg_renders):
        tc = toolchain(budget=64)
        graph = parse_source(SOURCE)
        first = tc.compile(graph)
        second = tc.compile(graph)
        assert dfg_renders == [graph.name]
        assert words_of(second) == words_of(first)

    def test_keys_are_known_before_any_stage_runs(self):
        request = CompileRequest(application=SOURCE, core=audio_core(),
                                 options=CompileOptions(budget=64))
        keys = chain_keys(PIPELINE_STAGES, request)
        state = toolchain(budget=64).run_pipeline(SOURCE)
        assert keys == [state.fingerprints[name] for name in STAGE_NAMES]
        assert len(set(keys)) == N_STAGES


@pytest.fixture
def dfg_renders(monkeypatch):
    """The graph renderings :func:`dfg_fingerprint` pays for (its
    ``fingerprint("dfg", ...)`` calls), counted as they happen."""
    renders = []
    real = artifacts_module.fingerprint

    def counting(*parts):
        if parts[0] == "dfg":
            renders.append(parts[1])
        return real(*parts)

    monkeypatch.setattr(artifacts_module, "fingerprint", counting)
    return renders


def fresh_digest(dfg) -> str:
    """The digest of an equal graph that was never fingerprinted."""
    twin = copy.deepcopy(dfg)
    assert id(twin) not in artifacts_module._DFG_DIGESTS
    return dfg_fingerprint(twin)


#: Graphs the digest memo is checked over: every builtin application
#: and a few generated ones.
MEMO_GRAPHS = {
    **{name: factory for name, (factory, _, _) in BUILTIN_APPS.items()},
    **{f"gen_{seed}": (lambda seed=seed: generate_dfg(GenSpec(), seed))
       for seed in (1, 2, 3)},
}


def edit_append_node(dfg):
    dfg.nodes.append(Node(id=len(dfg.nodes), kind=NodeKind.OUTPUT,
                          name=dfg.outputs[0], args=(0,)))


def edit_replace_node(dfg):
    node = dfg.nodes[-1]
    dfg.nodes[-1] = dataclasses.replace(node, label=(node.label or "") + "_")
    dfg.invalidate_consumers()


def set_param(value):
    def edit(dfg):
        dfg.params[next(iter(dfg.params))] = value
    return edit


def edit_rename_param(dfg):
    name = next(iter(dfg.params))
    dfg.params[name + "_"] = dfg.params.pop(name)


def edit_rename_graph(dfg):
    dfg.name += "_"


def edit_reorder_ports(dfg):
    dfg.inputs.append(dfg.inputs.pop(0))
    dfg.outputs.append(dfg.outputs.pop(0))


def edit_rename_port(dfg):
    dfg.outputs[0] += "_"


def edit_state_depth(dfg):
    name, spec = next(iter(dfg.states.items()))
    dfg.states[name] = StateSpec(name, spec.depth + 1)


#: In-place edits of the audio graph that change what its digest renders.
IN_PLACE_EDITS = {
    "append_node": edit_append_node,
    "replace_node": edit_replace_node,
    "param_negative_zero": set_param(-0.0),
    "param_int": set_param(1),
    "rename_param": edit_rename_param,
    "rename_graph": edit_rename_graph,
    "reorder_ports": edit_reorder_ports,
    "rename_port": edit_rename_port,
    "state_depth": edit_state_depth,
}


def edit_base(name):
    """The audio graph to edit: the signed-zero and int edits start
    from the parameter values they must be told apart from."""
    dfg = audio_application()
    if name == "param_negative_zero":
        set_param(0.0)(dfg)
    elif name == "param_int":
        set_param(1.0)(dfg)
    return dfg


class TestFingerprints:
    def test_dfg_fingerprint_is_content_keyed(self):
        assert dfg_fingerprint(parse_source(SOURCE)) == \
            dfg_fingerprint(parse_source(SOURCE))
        assert dfg_fingerprint(parse_source(SOURCE)) != \
            dfg_fingerprint(parse_source(VARIANT))

    def test_core_fingerprint_distinguishes_cores(self):
        assert core_fingerprint(audio_core()) == core_fingerprint(audio_core())
        assert core_fingerprint(audio_core()) != core_fingerprint(tiny_core())

    def test_audio_digest_is_pinned(self):
        """Stage keys and every persistent store rest on this digest."""
        assert dfg_fingerprint(audio_application()) == (
            "f221d37f5d20de4bf93a6dd6676d8975d9eeb22dab1e831407bee2d29e95da0a")

    @pytest.mark.parametrize("name", sorted(MEMO_GRAPHS))
    def test_a_graph_is_rendered_once(self, name, dfg_renders):
        dfg = MEMO_GRAPHS[name]()
        first = dfg_fingerprint(dfg)
        assert dfg_renders == [dfg.name]
        assert dfg_fingerprint(dfg) == first
        assert dfg_renders == [dfg.name]
        assert fresh_digest(dfg) == first

    @pytest.mark.parametrize("name", sorted(IN_PLACE_EDITS))
    def test_an_in_place_edit_is_rendered_again(self, name, dfg_renders):
        dfg = edit_base(name)
        before = dfg_fingerprint(dfg)
        IN_PLACE_EDITS[name](dfg)
        after = dfg_fingerprint(dfg)
        assert len(dfg_renders) == 2
        assert after != before
        assert after == fresh_digest(dfg)
        assert dfg_fingerprint(dfg) == after
        assert len(dfg_renders) == 3  # the fresh twin only

    def test_an_equal_replacement_node_is_rendered_again(self, dfg_renders):
        dfg = audio_application()
        before = dfg_fingerprint(dfg)
        dfg.nodes[0] = dataclasses.replace(dfg.nodes[0])
        assert dfg_fingerprint(dfg) == before
        assert len(dfg_renders) == 2

    def test_digest_dies_with_its_graph(self):
        dfg = audio_application()
        dfg_fingerprint(dfg)
        key = id(dfg)
        graph = weakref.ref(dfg)
        assert key in artifacts_module._DFG_DIGESTS
        del dfg
        gc.collect()
        assert graph() is None
        assert key not in artifacts_module._DFG_DIGESTS


# ----------------------------------------------------------------------
# CompileOptions round-trip and fingerprint stability (the properties
# the stage-cache keys rest on).

options_strategy = st.builds(
    CompileOptions,
    opt=st.sampled_from([0, 1, 2]),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=4096)),
    cover=st.sampled_from(["greedy", "exact", "edge"]),
    mode=st.sampled_from(["loop", "once", "repeat"]),
    repeat=st.integers(min_value=1, max_value=16),
    restarts=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=-2**31, max_value=2**31),
    stop_after=st.sampled_from([None, *STAGE_NAMES]),
    cache_dir=st.one_of(st.none(), st.text(min_size=1, max_size=20)),
    disk_cache=st.booleans(),
)


class TestOptionsRoundTrip:
    @given(options_strategy)
    def test_to_dict_from_dict_identity(self, options):
        assert CompileOptions.from_dict(options.to_dict()) == options

    @given(options_strategy)
    def test_to_dict_is_json_stable(self, options):
        rendered = json.dumps(options.to_dict(), sort_keys=True)
        assert CompileOptions.from_dict(json.loads(rendered)) == options

    @given(options_strategy)
    def test_fingerprint_is_deterministic(self, options):
        copy = CompileOptions.from_dict(options.to_dict())
        assert options.fingerprint() == copy.fingerprint()

    @given(options_strategy)
    def test_placement_fields_do_not_enter_the_fingerprint(self, options):
        moved = options.replace(cache_dir="/somewhere/else",
                                disk_cache=not options.disk_cache,
                                stop_after=None)
        assert moved.fingerprint() == options.fingerprint()

    @given(options_strategy, st.sampled_from(SEMANTIC_FIELDS))
    def test_semantic_change_changes_the_fingerprint(self, options, field):
        changed = {
            "opt": (options.opt + 1) % 3,
            "budget": (options.budget or 0) + 1,
            "cover": "exact" if options.cover != "exact" else "edge",
            "mode": "once" if options.mode != "once" else "repeat",
            "repeat": options.repeat + 1,
            "restarts": options.restarts + 1,
            "seed": options.seed + 1,
        }[field]
        assert options.replace(**{field: changed}).fingerprint() != \
            options.fingerprint()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(OptionsError, match="unknown option field"):
            CompileOptions.from_dict({"opt": 1, "optlevel": 2})

    def test_fingerprint_rejects_placement_fields(self):
        with pytest.raises(OptionsError, match="non-semantic"):
            CompileOptions().fingerprint("cache_dir")

    def test_fingerprint_is_stable_across_processes(self):
        options = CompileOptions(budget=64, opt=2, cover="exact", seed=3)
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        script = ("from repro import CompileOptions; "
                  "print(CompileOptions(budget=64, opt=2, cover='exact', "
                  "seed=3).fingerprint())")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              cwd=root, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == options.fingerprint()

    def _schedule_key(self, options):
        """The schedule stage's cache key under ``options``."""
        request = CompileRequest(application=SOURCE, core=audio_core(),
                                 options=options)
        return chain_keys(PIPELINE_STAGES, request)[
            STAGE_NAMES.index("schedule")]

    def test_same_options_same_stage_key_changed_option_cache_miss(self):
        base = CompileOptions(budget=64)
        assert self._schedule_key(base) == \
            self._schedule_key(CompileOptions(budget=64))
        # A changed semantic option is a different key — a cache miss —
        # while cache *placement* is not.
        assert self._schedule_key(base) != \
            self._schedule_key(CompileOptions(budget=32))
        assert self._schedule_key(base) == \
            self._schedule_key(CompileOptions(budget=64, cache_dir="/x",
                                              disk_cache=False))


class TestOptSplit:
    """The explore-facing optimizer split stays bit-exact."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_split_optimizer_preserves_semantics(self, level):
        from repro.opt import optimize_machine_independent, specialize_for_core

        core = audio_core()
        source_dfg = parse_source(SOURCE)
        mi_dfg, _ = optimize_machine_independent(source_dfg, level=level)
        specialized, _ = specialize_for_core(mi_dfg, core, level=level)
        compiled = Toolchain(core, cache=None, opt=0).compile(specialized)
        assert compiled.run(stimulus()) == run_reference(source_dfg, stimulus())

    def test_specialization_is_noop_below_o2(self):
        from repro.opt import specialize_for_core

        dfg = parse_source(SOURCE)
        specialized, report = specialize_for_core(dfg, audio_core(), level=1)
        assert specialized is dfg
        assert not report.changed


class TestValidateOnce:
    """Each graph is validated once, where it is made: by the builder,
    by each optimizer half that changes it, or by the parse stage for
    an outside graph.  The public entry points that take an outside
    graph keep their own check."""

    @staticmethod
    def count_validations(monkeypatch) -> list[int]:
        from repro.lang.dfg import Dfg

        calls = [0]
        real = Dfg.validate

        def counting(self):
            calls[0] += 1
            return real(self)

        monkeypatch.setattr(Dfg, "validate", counting)
        return calls

    @pytest.mark.parametrize("level, expected", [(0, 1), (1, 2), (2, 3)])
    def test_validations_per_compile(self, monkeypatch, level, expected):
        calls = self.count_validations(monkeypatch)
        Toolchain(audio_core(), cache=None, opt=level).compile(SOURCE)
        assert calls[0] == expected

    @pytest.mark.parametrize("level, expected", [(0, 1), (1, 2), (2, 3)])
    def test_outside_graph_validated_on_entry(self, monkeypatch, level,
                                              expected):
        dfg = parse_source(SOURCE)
        calls = self.count_validations(monkeypatch)
        Toolchain(audio_core(), cache=None, opt=level).compile(dfg)
        assert calls[0] == expected

    @staticmethod
    def invalid_graph():
        """``o`` reads a node defined after it."""
        from repro.lang.dfg import Dfg, Node, NodeKind

        nodes = [Node(id=0, kind=NodeKind.INPUT, name="i"),
                 Node(id=1, kind=NodeKind.OUTPUT, name="o", args=(2,)),
                 Node(id=2, kind=NodeKind.OP, name="pass", args=(0,))]
        return Dfg(name="bad", nodes=nodes, params={}, inputs=["i"],
                   outputs=["o"], states={})

    def test_invalid_outside_graph_raises_on_every_route(self):
        from repro.errors import SemanticError
        from repro.opt import optimize, optimize_machine_independent
        from repro.rtgen import generate_rts

        with pytest.raises(SemanticError) as direct:
            self.invalid_graph().validate()
        message = str(direct.value)
        assert "uses n2 before its definition" in message
        core = audio_core()
        routes = [
            lambda dfg: Toolchain(core, cache=None).compile(dfg),
            lambda dfg: Toolchain(core, cache=None, opt=0).compile(dfg),
            lambda dfg: Toolchain(core, cache=None, opt=2).compile(dfg),
            lambda dfg: toolchain(core).compile(dfg),
            lambda dfg: optimize(dfg),
            lambda dfg: optimize(dfg, core, level=2),
            lambda dfg: optimize_machine_independent(dfg),
            lambda dfg: generate_rts(dfg, core),
        ]
        for route in routes:
            with pytest.raises(SemanticError) as err:
                route(self.invalid_graph())
            assert str(err.value) == message
