"""Tests for the typed public surface: the core registry,
:class:`CompileOptions` validation, and the :class:`Toolchain` facade.
"""

import functools
import inspect
import re
from pathlib import Path

import pytest

from repro import (
    Q15,
    CompileOptions,
    SweepSpec,
    Toolchain,
    audio_core,
    get_core,
    list_cores,
    register_core,
    resolve_core,
    run_reference,
    tiny_core,
)
from repro.arch import CoreSpec, dump_core, unregister_core
from repro.errors import OptionsError, ReproError
from repro.pipeline import DiskCache, StageCache

SOURCE = """
app gain;
param g = 0.5;
input i; output o;
loop { o = mlt(g, i); }
"""


def stimulus():
    return {"i": [Q15.from_float(v) for v in (0.5, -0.25, 0.125)]}


class TestRegistry:
    def test_library_cores_are_registered(self):
        assert {"audio", "fir", "tiny", "adaptive"} <= set(list_cores())

    def test_get_core_instantiates_fresh_specs(self):
        first, second = get_core("audio"), get_core("audio")
        assert isinstance(first, CoreSpec)
        assert first is not second

    def test_get_core_unknown_names_known(self):
        with pytest.raises(ReproError, match="unknown core 'warp-drive'"):
            get_core("warp-drive")

    def test_register_custom_core_everywhere(self):
        source = "app p; input i; output o; loop { o = pass(i); }"
        register_core("my-tiny", tiny_core)
        try:
            assert "my-tiny" in list_cores()
            compiled = Toolchain("my-tiny", cache=None).compile(source)
            reference = Toolchain(tiny_core(), cache=None).compile(source)
            assert compiled.binary.words == reference.binary.words
        finally:
            unregister_core("my-tiny")
        assert "my-tiny" not in list_cores()

    def test_duplicate_registration_needs_replace(self):
        with pytest.raises(ReproError, match="already registered"):
            register_core("audio", audio_core)
        # replace=True is allowed (restore the original immediately).
        register_core("audio", audio_core, replace=True)

    def test_unregister_unknown_core(self):
        with pytest.raises(ReproError, match="not registered"):
            unregister_core("nope")

    def test_factory_must_return_a_core(self):
        register_core("broken", lambda: 42)
        try:
            with pytest.raises(ReproError, match="not a CoreSpec"):
                get_core("broken")
        finally:
            unregister_core("broken")

    def test_resolve_core_passthrough_name_and_file(self, tmp_path):
        spec = tiny_core()
        assert resolve_core(spec) is spec
        assert resolve_core("tiny").name == "tiny"
        path = tmp_path / "core.json"
        path.write_text(dump_core(tiny_core()))
        assert resolve_core(str(path)).name == "tiny"

    def test_resolve_core_rejects_garbage(self):
        with pytest.raises(ReproError, match="unknown core"):
            resolve_core("no-such-core")
        with pytest.raises(ReproError, match="expected a CoreSpec"):
            resolve_core(42)


class TestCompileOptionsValidation:
    def test_defaults_are_valid(self):
        options = CompileOptions()
        assert options.opt == 1
        assert options.budget is None
        assert options.disk_cache is True

    @pytest.mark.parametrize("field,value,message", [
        ("opt", 5, "opt must be one of"),
        ("budget", 0, "budget must be >= 1"),
        ("budget", -3, "budget must be >= 1"),
        ("cover", "magic", "cover must be one of"),
        ("mode", "bogus", "mode must be one of"),
        ("repeat", 0, "repeat must be >= 1"),
        ("repeat", -1, "repeat must be >= 1"),
        ("restarts", -1, "restarts must be >= 0"),
        ("stop_after", "codegen", "unknown stage"),
    ])
    def test_out_of_range_values_rejected(self, field, value, message):
        with pytest.raises(OptionsError, match=message):
            CompileOptions(**{field: value})

    def test_bools_are_rejected_in_integer_fields(self):
        # isinstance(True, int) is True, but canonical JSON renders
        # True != 1 — accepting bools would let "equal" options produce
        # different stage-cache keys.
        for field in ("opt", "budget", "repeat", "restarts", "seed"):
            with pytest.raises(OptionsError):
                CompileOptions(**{field: True})

    def test_options_error_is_a_value_error(self):
        # Generic callers can catch ValueError without knowing repro.
        with pytest.raises(ValueError):
            CompileOptions(budget=0)

    def test_replace_revalidates(self):
        options = CompileOptions(budget=64)
        assert options.replace(budget=32).budget == 32
        with pytest.raises(OptionsError):
            options.replace(budget=0)


class TestToolchain:
    def test_default_cache_matches_uncached_bit_for_bit(self):
        """The acceptance criterion: the default cached toolchain and a
        ``cache=None`` one produce bit-identical binaries."""
        cached = Toolchain(core="audio", options=CompileOptions(opt=2)) \
            .compile(SOURCE)
        uncached = Toolchain(audio_core(), CompileOptions(opt=2),
                             cache=None).compile(SOURCE)
        assert cached.binary.words == uncached.binary.words
        assert cached.binary.rom_words == uncached.binary.rom_words

    def test_option_field_shorthand(self):
        by_fields = Toolchain("fir", cache=None, budget=16, opt=2)
        by_object = Toolchain("fir", CompileOptions(budget=16, opt=2),
                              cache=None)
        assert by_fields.options == by_object.options
        with pytest.raises(OptionsError):
            Toolchain("fir", budget=0)
        with pytest.raises(ValueError, match="unknown stage"):
            Toolchain("fir", stop_after="codegen")

    def test_options_object_plus_field_overrides(self):
        toolchain = Toolchain("fir", CompileOptions(budget=16), cache=None,
                              opt=0)
        assert toolchain.options == CompileOptions(budget=16, opt=0)

    def test_run_executes_on_the_simulator(self):
        outputs = Toolchain("fir", cache=None).run(SOURCE, stimulus())
        from repro import parse_source

        assert outputs == run_reference(parse_source(SOURCE), stimulus())

    def test_compile_many_shares_the_cache(self, tmp_path):
        from repro.apps import audio_application, audio_io_binding

        cases = [  # core, budget, application, io_binding, cache
            ("fir", 16, SOURCE, None, StageCache()),
            ("fir", 16, SOURCE, None, StageCache(disk=DiskCache(tmp_path))),
            ("audio", 64, audio_application(), audio_io_binding(),
             StageCache()),
        ]
        for core, budget, app, binding, cache in cases:
            toolchain = Toolchain(core, cache=cache, budget=budget)
            result = toolchain.compile_many([app, app], io_binding=binding)
            assert result.ok
            first, second = result.states
            assert not any(first.cache_hits.values())
            assert all(second.cache_hits.values())
            uncached = Toolchain(core, cache=None, budget=budget).compile(
                app, io_binding=binding)
            assert second.binary.words == uncached.binary.words
            assert second.binary.rom_words == uncached.binary.rom_words

    def test_replace_shares_cache_and_rebinds(self):
        toolchain = Toolchain("audio", cache=StageCache(), budget=64)
        variant = toolchain.replace(budget=32)
        assert variant.cache is toolchain.cache
        assert variant.core is toolchain.core
        assert variant.options.budget == 32
        retargeted = toolchain.replace(core="tiny")
        assert retargeted.core.name == "tiny"

    def test_replace_rebuilds_cache_when_placement_changes(self, tmp_path,
                                                           monkeypatch):
        # Sharing the old cache would silently ignore the new
        # placement; a placement change gets a fresh default cache.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        toolchain = Toolchain("fir", disk_cache=False)
        persistent = toolchain.replace(disk_cache=True)
        assert persistent.cache is not toolchain.cache
        assert persistent.cache.disk is not None
        moved = persistent.replace(cache_dir=str(tmp_path / "elsewhere"))
        assert moved.cache is not persistent.cache
        same = persistent.replace(budget=16)
        assert same.cache is persistent.cache
        # An explicitly uncached toolchain stays uncached — placement
        # changes must not resurrect caching behind the user's back.
        uncached = Toolchain("fir", cache=None)
        assert uncached.replace(cache_dir=str(tmp_path / "new")).cache is None
        assert uncached.replace(disk_cache=False).cache is None

    def test_default_cache_honors_disk_cache_toggle(self):
        with_disk = Toolchain("fir")
        without = Toolchain("fir", disk_cache=False)
        assert with_disk.cache.disk is not None
        assert without.cache.disk is None

    def test_default_disk_cache_warms_across_toolchains(self):
        # Two independent toolchains, no shared memory tier: the second
        # restores every stage from the persistent store (the hermetic
        # fixture points it at a per-test directory).
        Toolchain("fir", budget=16).compile(SOURCE)
        state = Toolchain("fir", budget=16).run_pipeline(SOURCE)
        assert all(state.cache_hits.values())
        assert all(src == "disk" for src in state.cache_sources.values())

    def test_explore_uses_bound_options(self):
        from repro import parse_source

        spec = SweepSpec(n_mults=(1,), n_alus=(1, 2))
        toolchain = Toolchain("audio", budget=32, disk_cache=False)
        points = toolchain.explore([SOURCE], spec)
        assert len(points) == 2
        assert all(p.opt_level == toolchain.options.opt for p in points)
        refined = toolchain.explore([parse_source(SOURCE)], spec, refine=True)
        assert refined.n_grid == 2

    def test_explore_on_an_uncached_toolchain_stays_uncached(self, tmp_path,
                                                             monkeypatch):
        # cache=None means "no caching" for every verb, explore
        # included: nothing may be written to the persistent store.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        toolchain = Toolchain("audio", cache=None)
        points = toolchain.explore([SOURCE], SweepSpec())
        assert len(points) == 1
        sweep = toolchain.explore([SOURCE], SweepSpec(n_alus=(1, 2)),
                                  refine=True)
        assert sweep.n_evaluated >= 1
        assert not (tmp_path / "store").exists()

    def test_explore_memo_persists_across_calls(self):
        toolchain = Toolchain("audio", disk_cache=False)
        toolchain.explore([SOURCE], SweepSpec())
        assert toolchain._explore_cache.misses == 1
        toolchain.explore([SOURCE], SweepSpec())
        assert toolchain._explore_cache.hits == 1
        assert toolchain._explore_cache.misses == 1

    def test_explore_memo_mirrors_the_stage_cache_backing(self, tmp_path,
                                                          monkeypatch):
        # A memory-only toolchain must not read or write the shared
        # persistent store; a disk-backed one memoizes into the same
        # store its stage cache uses.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        memory_only = Toolchain("audio", disk_cache=False)
        memory_only.explore([SOURCE], SweepSpec())
        assert not (tmp_path / "store").exists()
        disk_backed = Toolchain("audio")
        disk_backed.explore([SOURCE], SweepSpec())
        assert (tmp_path / "store").exists()

    def test_explore_refine_needs_a_sweep_spec(self):
        toolchain = Toolchain("audio", disk_cache=False)
        with pytest.raises(ValueError, match="SweepSpec"):
            toolchain.explore([SOURCE], [object()], refine=True)

    def test_explore_axes_requires_refine(self):
        toolchain = Toolchain("audio", disk_cache=False)
        with pytest.raises(ValueError, match="refine=True"):
            toolchain.explore([SOURCE], SweepSpec(),
                              axes=("worst_length", "n_opus"))

    def test_run_accepts_merges(self):
        from repro.arch import MergeSpec

        merges = MergeSpec().merge_register_files(
            "rf_opb", ["rf_opb1", "rf_opb2"])
        src = ("app m; param k = 0.5; input i; output o; state s(1); "
               "loop { s = i; o = add_clip(mlt(k, s@1), i); }")
        outputs = Toolchain("audio", cache=None).run(
            src, stimulus(), merges=merges)
        from repro import parse_source

        assert outputs == run_reference(parse_source(src), stimulus())

    def test_core_resolution_failure_is_a_repro_error(self):
        with pytest.raises(ReproError, match="unknown core"):
            Toolchain("warp-drive")


def migration_rows() -> list[str]:
    """The 1.x spellings: left column of docs/api.md's migration table."""
    text = (Path(__file__).parents[1] / "docs" / "api.md").read_text()
    section = text.split("\n## Migrating from 1.x", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)`", section, re.MULTILINE)


def test_public_api_surface():
    """Every exported name resolves, and no 1.x spelling of the
    migration table still works: the name is gone, or the call passes
    a keyword the 2.0 signature no longer takes."""
    import repro
    import repro.arch
    import repro.pipeline

    assert repro.__version__ == "2.0.0"
    for module in (repro, repro.pipeline, repro.arch):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    rows = migration_rows()
    assert len(rows) >= 10
    for row in rows:
        path, _, args = row.partition("(")
        head, *rest = path.split(".")
        assert head == "repro", row
        try:
            target = functools.reduce(getattr, rest, repro)
        except AttributeError:
            continue  # removed
        assert args, f"{row} still resolves"
        keywords = set(re.findall(r"(\w+)=", args))
        parameters = inspect.signature(target).parameters
        assert keywords - set(parameters), f"{row} still works"
