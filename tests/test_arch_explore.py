"""Tests for intermediate architectures and design-space exploration."""

import pytest

from repro import Q15, CompileOptions, Toolchain, run_reference
from repro.apps import fir_application, stress_application
from repro.arch import (
    ARCHITECTURE_FAILURE,
    MERGE_VARIANTS,
    PARETO_AXES,
    STORAGE_AXES,
    Allocation,
    ControllerSpec,
    CoreSpec,
    ExplorationPoint,
    ExploreCache,
    SweepSpec,
    explore,
    explore_refined,
    intermediate_architecture,
    merge_spec_for,
    pareto_axes,
    pareto_front,
    required_operations,
)
from repro.errors import ArchitectureError
from repro.lang import DfgBuilder


def app_set():
    return [
        stress_application(4, seed=1),
        fir_application([0.5, 0.25, 0.125]),
    ]


class TestIntermediateArchitecture:
    def test_is_style_valid(self):
        core = intermediate_architecture(app_set())
        CoreSpec(core.name, core.datapath, ControllerSpec())  # no raise

    def test_covers_required_operations(self):
        dfgs = app_set()
        core = intermediate_architecture(dfgs)
        for operation in required_operations(dfgs):
            assert core.datapath.opus_supporting(operation), operation

    def test_fully_parallel_instruction_set(self):
        core = intermediate_architecture(app_set())
        assert len(core.instruction_types) == 1
        assert core.instruction_types[0] == frozenset(
            cd.name for cd in core.class_defs
        )

    def test_no_artificial_resources_needed(self):
        core = intermediate_architecture(app_set())
        compiled = Toolchain(core, cache=None).compile(app_set()[1])
        assert compiled.conflict_model.cover == []

    def test_multi_unit_allocation(self):
        core = intermediate_architecture(
            app_set(), Allocation(n_mult=2, n_alu=2))
        names = set(core.datapath.opus)
        assert {"mult_0", "mult_1", "alu_0", "alu_1"} <= names

    def test_compiled_code_is_bit_exact(self):
        dfg = app_set()[1]
        core = intermediate_architecture([dfg])
        compiled = Toolchain(core, cache=None).compile(dfg)
        xs = [Q15.from_float(v) for v in (0.7, -0.7, 0.35, 0.0)]
        assert compiled.run({"x": xs}) == run_reference(dfg, {"x": xs})

    def test_stateless_app_gets_no_ram(self):
        b = DfgBuilder("pure")
        b.output("o", b.op("pass", b.input("i")))
        core = intermediate_architecture([b.build()])
        assert not any(o.kind.value == "ram" for o in core.datapath.opus.values())

    def test_unknown_operation_rejected(self):
        b = DfgBuilder("weird")
        b.output("o", b.op("fft", b.input("i")))
        with pytest.raises(ArchitectureError, match="fft"):
            intermediate_architecture([b.build()])

    def test_bad_allocation_rejected(self):
        with pytest.raises(ArchitectureError, match="at least one"):
            Allocation(n_mult=0)

    def test_zero_storage_sizes_rejected(self):
        for bad in (dict(rf_size=0), dict(ram_size=0), dict(rom_size=-4)):
            with pytest.raises(ArchitectureError, match="sizes >= 1"):
                Allocation(**bad)

    def test_unknown_merge_variant_rejected(self):
        with pytest.raises(ArchitectureError, match="unknown merge variant"):
            Allocation(merge_variant="fuse-everything")

    def test_ram_and_rom_sizes_reach_the_datapath(self):
        core = intermediate_architecture(
            app_set(), Allocation(ram_size=64, rom_size=32))
        sizes = {opu.name: opu.memory_size
                 for opu in core.datapath.opus.values()
                 if opu.memory_size is not None}
        assert sizes["ram"] == 64
        assert sizes["rom"] == 32


class TestSweepSpec:
    def test_allocations_cross_product(self):
        spec = SweepSpec(n_mults=(1, 2), n_alus=(1, 2), rf_sizes=(8, 16))
        allocations = spec.allocations()
        assert len(allocations) == spec.size == 8
        assert len(set(a.astuple() for a in allocations)) == 8
        assert allocations[0] == Allocation(n_mult=1, n_alu=1, rf_size=8)

    def test_axes_sorted_and_deduplicated(self):
        spec = SweepSpec(n_mults=(2, 1, 2), rf_sizes=(16, 8, 8))
        assert spec.n_mults == (1, 2)
        assert spec.rf_sizes == (8, 16)

    def test_empty_or_invalid_axis_rejected(self):
        with pytest.raises(ArchitectureError, match="empty"):
            SweepSpec(n_alus=())
        with pytest.raises(ArchitectureError, match="values < 1"):
            SweepSpec(rf_sizes=(0, 8))
        with pytest.raises(ArchitectureError, match="unknown merge variant"):
            SweepSpec(merge_variants=("none", "zap"))

    def test_coarse_thins_every_other_value(self):
        spec = SweepSpec(n_alus=(1, 2, 3, 4), rf_sizes=(4, 8, 12, 16, 20))
        coarse = spec.coarse()
        assert coarse.n_alus == (1, 3, 4)         # endpoints always kept
        assert coarse.rf_sizes == (4, 12, 20)
        assert coarse.n_mults == spec.n_mults     # short axes untouched

    def test_coarse_keeps_merge_variants_whole(self):
        spec = SweepSpec(merge_variants=("none", "alu-operands"))
        assert spec.coarse().merge_variants == ("none", "alu-operands")

    def test_neighborhood_covers_the_coarse_cell(self):
        spec = SweepSpec(rf_sizes=(4, 8, 12, 16, 20))
        # Coarse grid is (4, 12, 20); the cell around 12 is 8..16.
        cell = spec.neighborhood(Allocation(rf_size=12))
        assert sorted(a.rf_size for a in cell) == [8, 12, 16]
        edge = spec.neighborhood(Allocation(rf_size=4))
        assert sorted(a.rf_size for a in edge) == [4, 8]

    def test_neighborhood_holds_merge_variant_fixed(self):
        spec = SweepSpec(n_alus=(1, 2, 3),
                         merge_variants=("none", "alu-operands"))
        cell = spec.neighborhood(Allocation(n_alu=1,
                                            merge_variant="alu-operands"))
        assert {a.merge_variant for a in cell} == {"alu-operands"}


class TestMergeVariants:
    def test_every_variant_builds_or_degenerates(self):
        core = intermediate_architecture(app_set())
        for variant in MERGE_VARIANTS:
            spec = merge_spec_for(variant, core)
            if spec is not None:
                spec.validate(core.datapath)

    def test_unknown_variant_raises(self):
        core = intermediate_architecture(app_set())
        with pytest.raises(ArchitectureError, match="unknown merge variant"):
            merge_spec_for("zap", core)

    def test_variant_without_targets_degenerates_to_none(self):
        b = DfgBuilder("pure")
        b.output("o", b.op("pass", b.input("i")))
        core = intermediate_architecture([b.build()])
        assert merge_spec_for("mult-operands", core) is None

    def test_merged_candidate_trades_length_for_register_files(self):
        dfgs = app_set()
        plain, merged = explore(dfgs, [
            Allocation(), Allocation(merge_variant="alu-operands"),
        ])
        assert plain.feasible and merged.feasible
        assert merged.n_rfs < plain.n_rfs
        assert merged.n_opus == plain.n_opus
        assert merged.storage_words == plain.storage_words
        assert merged.worst_length >= plain.worst_length

    def test_points_carry_storage_metrics(self):
        point = explore(app_set(), [Allocation(rf_size=8)])[0]
        assert point.n_rfs > 0
        assert point.storage_words > 0


class TestExploration:
    def test_more_multipliers_never_hurt(self):
        dfgs = [stress_application(6, seed=2)]
        points = explore(dfgs, [Allocation(n_mult=1), Allocation(n_mult=2)])
        assert len(points) == 2
        one, two = points
        assert two.schedule_lengths["stress_6"] <= \
            one.schedule_lengths["stress_6"]

    def test_every_point_reports_all_apps(self):
        dfgs = app_set()
        points = explore(dfgs, [Allocation()])
        assert len(points) == 1
        assert set(points[0].schedule_lengths) == {d.name for d in dfgs}

    def test_worst_length(self):
        points = explore(app_set(), [Allocation()])
        point = points[0]
        assert point.worst_length == max(point.schedule_lengths.values())

    def test_budget_infeasibility_is_recorded_not_dropped(self):
        dfgs = [stress_application(6, seed=2)]
        points = explore(dfgs, [Allocation()],
                         options=CompileOptions(budget=2))
        assert len(points) == 1
        point = points[0]
        assert not point.feasible
        assert "BudgetExceededError" in point.failures["stress_6"]
        assert point.schedule_lengths == {}

    def test_worst_length_guard_on_empty_lengths(self):
        point = ExplorationPoint(
            allocation=Allocation(), schedule_lengths={}, n_opus=9,
            failures={"fir8": "BudgetExceededError: ..."},
        )
        with pytest.raises(ArchitectureError, match="no schedule lengths"):
            point.worst_length

    def test_architecture_failure_recorded(self):
        b = DfgBuilder("weird")
        b.output("o", b.op("fft", b.input("i")))
        points = explore([b.build()], [Allocation()])
        assert not points[0].feasible
        assert "fft" in points[0].failures[ARCHITECTURE_FAILURE]

    def test_points_preserve_allocation_order(self):
        dfgs = [stress_application(4, seed=1)]
        allocations = [Allocation(n_alu=a) for a in (2, 1, 3)]
        points = explore(dfgs, allocations)
        assert [p.allocation for p in points] == allocations

    def test_machine_independent_optimization_runs_once_per_dfg(
            self, monkeypatch):
        import importlib
        explore_module = importlib.import_module("repro.arch.explore")
        calls = []
        real = explore_module.optimize_machine_independent

        def counting(dfg, level=1, fmt=None):
            calls.append(dfg.name)
            return real(dfg, level=level, fmt=fmt)

        monkeypatch.setattr(explore_module,
                            "optimize_machine_independent", counting)
        dfgs = app_set()
        allocations = [Allocation(n_mult=m, n_alu=a)
                       for m in (1, 2) for a in (1, 2)]
        explore_module.explore(dfgs, allocations,
                               options=CompileOptions(opt=1))
        assert sorted(calls) == sorted(d.name for d in dfgs)

    def test_parallel_matches_sequential(self):
        """jobs=2 must agree with jobs=None point for point — including
        on the storage axes and with a merge variant in the sweep (the
        workers receive the DFGs via the pool initializer, not per
        task)."""
        dfgs = app_set()
        allocations = SweepSpec(
            n_mults=(1, 2), rf_sizes=(8, 16),
            merge_variants=("none", "alu-operands"),
        ).allocations()
        sequential = explore(dfgs, allocations)
        parallel = explore(dfgs, allocations, jobs=2)
        assert [p.schedule_lengths for p in parallel] == \
            [p.schedule_lengths for p in sequential]
        assert [p.n_opus for p in parallel] == [p.n_opus for p in sequential]
        assert [p.n_rfs for p in parallel] == [p.n_rfs for p in sequential]
        assert [p.storage_words for p in parallel] == \
            [p.storage_words for p in sequential]

    def test_degenerate_variant_is_not_recompiled(self, monkeypatch):
        """A merge variant with nothing to merge on the application set
        canonicalizes to 'none' and shares that candidate's evaluation
        instead of compiling identical feedback twice."""
        import importlib
        explore_module = importlib.import_module("repro.arch.explore")
        calls = []
        real = explore_module._evaluate_candidate

        def counting(dfgs, allocation, options):
            calls.append(allocation.astuple())
            return real(dfgs, allocation, options)

        monkeypatch.setattr(explore_module, "_evaluate_candidate", counting)
        b = DfgBuilder("pure")
        b.output("o", b.op("pass", b.input("i")))
        points = explore_module.explore(
            [b.build()],
            [Allocation(), Allocation(merge_variant="mult-operands")],
        )
        assert len(calls) == 1
        assert points[1].allocation.merge_variant == "none"
        assert points[0].schedule_lengths == points[1].schedule_lengths

    def test_cache_reuses_candidates_across_sweeps(self):
        dfgs = [stress_application(4, seed=1)]
        cache = ExploreCache()
        first = explore(dfgs, [Allocation(), Allocation(n_alu=2)],
                        cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        second = explore(dfgs, [Allocation(n_alu=2), Allocation(n_alu=3)],
                         cache=cache)
        assert cache.hits == 1
        assert second[0].schedule_lengths == first[1].schedule_lengths

    def test_opt_level_shortens_or_keeps_lengths(self):
        dfgs = [stress_application(6, seed=2)]
        unoptimized = explore(dfgs, [Allocation()],
                              options=CompileOptions(opt=0))
        optimized = explore(dfgs, [Allocation()],
                            options=CompileOptions(opt=2))
        assert optimized[0].schedule_lengths["stress_6"] <= \
            unoptimized[0].schedule_lengths["stress_6"]


class TestRefinement:
    """Coarse-to-fine sweeps: fewer evaluations, same Pareto front."""

    @staticmethod
    def spec():
        return SweepSpec(n_mults=(1, 2), n_alus=(1, 2, 3),
                         rf_sizes=(8, 12, 16))

    @staticmethod
    def front_keys(points):
        return sorted(p.allocation.astuple() for p in points)

    def test_refined_front_matches_full_grid(self):
        dfgs = app_set()
        spec = self.spec()
        axes = pareto_axes(spec)
        full_front = pareto_front(explore(dfgs, spec.allocations()),
                                  axes=axes)
        refined = explore_refined(dfgs, spec)
        assert refined.axes == axes
        assert refined.n_evaluated < spec.size
        assert self.front_keys(refined.front) == self.front_keys(full_front)

    def test_refined_with_budget_matches_full_grid(self):
        dfgs = [stress_application(6, seed=2)]
        spec = self.spec()
        axes = pareto_axes(spec)
        options = CompileOptions(budget=64)
        full_front = pareto_front(
            explore(dfgs, spec.allocations(), options=options), axes=axes)
        refined = explore_refined(dfgs, spec, options=options)
        assert self.front_keys(refined.front) == self.front_keys(full_front)

    def test_refinement_optimizes_each_application_once(self, monkeypatch):
        """Both phases reuse one machine-independent optimization of
        the application set — never one per explore() call."""
        import importlib
        explore_module = importlib.import_module("repro.arch.explore")
        calls = []
        real = explore_module.optimize_machine_independent

        def counting(dfg, level=1, fmt=None):
            calls.append(dfg.name)
            return real(dfg, level=level, fmt=fmt)

        monkeypatch.setattr(explore_module,
                            "optimize_machine_independent", counting)
        dfgs = app_set()
        explore_module.explore_refined(dfgs, self.spec())
        assert sorted(calls) == sorted(d.name for d in dfgs)

    def test_phases_share_one_cache(self):
        cache = ExploreCache()
        refined = explore_refined(app_set(), self.spec(), cache=cache)
        # Every evaluated candidate was compiled exactly once: the fine
        # phase never re-evaluates a coarse point.
        assert cache.misses == refined.n_evaluated
        assert len(cache) == refined.n_evaluated

    def test_bookkeeping_is_consistent(self):
        refined = explore_refined(app_set(), self.spec())
        assert refined.n_grid == self.spec().size
        assert refined.n_coarse + refined.n_refined == len(refined.points)
        assert refined.n_coarse == self.spec().coarse().size

    def test_degenerate_variant_sweep_never_duplicates_points(self):
        """Regression: refinement dedup must key on *canonical*
        allocations — a degenerate merge variant used to re-add its own
        coarse points as fine ones, inflating n_evaluated past the grid
        and duplicating front rows."""
        b = DfgBuilder("pure")
        b.output("o", b.op("pass", b.input("i")))
        spec = SweepSpec(n_alus=(1, 2, 3),
                         merge_variants=("mult-operands",))
        refined = explore_refined([b.build()], spec)
        assert refined.n_evaluated <= spec.size
        tuples = [p.allocation.astuple() for p in refined.points]
        assert len(tuples) == len(set(tuples))

    def test_single_point_grid_refines_to_itself(self):
        refined = explore_refined(app_set(), SweepSpec())
        assert refined.n_coarse == 1
        assert refined.n_refined == 0
        assert len(refined.front) == 1


class TestParetoFront:
    @staticmethod
    def point(length, n_opus, feasible=True):
        return ExplorationPoint(
            allocation=Allocation(),
            schedule_lengths={"a": length} if feasible else {},
            n_opus=n_opus,
            failures={} if feasible else {"a": "RoutingError: ..."},
        )

    def test_dominated_points_are_excluded(self):
        fast_big = self.point(10, 12)
        slow_small = self.point(20, 8)
        dominated = self.point(20, 12)
        front = pareto_front([fast_big, slow_small, dominated])
        assert front == [fast_big, slow_small]

    def test_infeasible_points_never_on_front(self):
        feasible = self.point(10, 12)
        infeasible = self.point(0, 1, feasible=False)
        assert pareto_front([feasible, infeasible]) == [feasible]

    def test_explore_front_is_nonempty(self):
        points = explore(app_set(), [Allocation(), Allocation(n_alu=2)])
        front = pareto_front(points)
        assert front
        assert all(p.feasible for p in front)

    def test_storage_axes_keep_smaller_register_files(self):
        """On the storage axes a same-speed candidate with smaller
        register files survives the front; on the classic pair it is
        invisible."""
        small = ExplorationPoint(
            allocation=Allocation(rf_size=8),
            schedule_lengths={"a": 10}, n_opus=8, n_rfs=10,
            storage_words=300)
        big = ExplorationPoint(
            allocation=Allocation(rf_size=16),
            schedule_lengths={"a": 10}, n_opus=8, n_rfs=10,
            storage_words=400)
        assert pareto_front([small, big], axes=STORAGE_AXES) == [small]
        assert pareto_front([small, big], axes=PARETO_AXES) == [small, big]

    def test_pareto_axes_picks_storage_for_multi_dim_sweeps(self):
        assert pareto_axes(SweepSpec(n_mults=(1, 2))) == PARETO_AXES
        assert pareto_axes(SweepSpec(rf_sizes=(8, 16))) == STORAGE_AXES
        assert pareto_axes(
            SweepSpec(merge_variants=("none", "alu-operands"))
        ) == STORAGE_AXES


class TestDiskBackedSweeps:
    """Warm sweeps across processes: the candidate memo persists."""

    def test_warm_sweep_hits_disk(self, tmp_path):
        from repro.pipeline import DiskCache

        dfgs = app_set()
        allocations = [Allocation(), Allocation(n_alu=2)]
        cold = explore(dfgs, allocations, cache_dir=str(tmp_path))

        # A fresh cache over the same directory is what a new process
        # starts with: every candidate restores from disk.
        warm_cache = ExploreCache(disk=DiskCache(tmp_path))
        warm = explore(dfgs, allocations, cache=warm_cache)
        assert warm_cache.disk_hits == len(allocations)
        assert warm_cache.misses == 0
        assert [p.schedule_lengths for p in warm] == \
            [p.schedule_lengths for p in cold]
        assert [p.n_opus for p in warm] == [p.n_opus for p in cold]

    def test_corrupt_candidate_entry_is_recomputed(self, tmp_path):
        from repro.pipeline import DiskCache

        dfgs = app_set()
        allocations = [Allocation()]
        explore(dfgs, allocations, cache_dir=str(tmp_path))
        disk = DiskCache(tmp_path)
        for path in disk.objects.glob("*/*.rpdc"):
            path.write_bytes(b"junk")
        warm_cache = ExploreCache(disk=DiskCache(tmp_path))
        warm = explore(dfgs, allocations, cache=warm_cache)
        assert warm_cache.disk_hits == 0
        assert warm[0].feasible

    def test_failures_persist_too(self, tmp_path):
        dfgs = app_set()
        allocations = [Allocation()]
        options = CompileOptions(budget=1)
        cold = explore(dfgs, allocations, options=options,
                       cache_dir=str(tmp_path))
        warm = explore(dfgs, allocations, options=options,
                       cache_dir=str(tmp_path))
        assert not cold[0].feasible
        assert warm[0].failures == cold[0].failures


class TestExploreOptionValidation:
    """The sweep takes its budget and opt level from one validated
    CompileOptions: an out-of-range budget is refused when the options
    are built, never per candidate or inside a jobs= pool worker."""

    def test_options_object_supplies_budget_and_opt(self):
        dfgs = app_set()[:1]
        point = explore(dfgs, [Allocation()],
                        options=CompileOptions(budget=32, opt=2))[0]
        assert point.opt_level == 2
        assert point.feasible and point.worst_length <= 32


class TestExploreHonorsBaseOptions:
    """The base CompileOptions shapes candidate evaluation — cover,
    restarts and seed take effect and key the candidate memo, so sweeps
    differing in them never share cache entries."""

    def test_cover_and_seed_key_the_memo(self):
        from repro import CompileOptions
        from repro.arch import ExploreCache

        dfgs = app_set()[:1]
        cache = ExploreCache()
        explore(dfgs, [Allocation()],
                options=CompileOptions(cover="greedy"), cache=cache)
        explore(dfgs, [Allocation()],
                options=CompileOptions(cover="exact"), cache=cache)
        explore(dfgs, [Allocation()],
                options=CompileOptions(seed=99, restarts=2), cache=cache)
        assert cache.misses == 3 and cache.hits == 0
        # An identical re-sweep is served from the memo.
        explore(dfgs, [Allocation()],
                options=CompileOptions(cover="exact"), cache=cache)
        assert cache.hits == 1

    def test_restarts_and_seed_reach_the_scheduler(self, monkeypatch):
        from repro import CompileOptions
        import repro.pipeline.stages as stages

        seen = {}
        real = stages.list_schedule

        def spying(graph, budget=None, restarts=0, seed=0):
            seen["restarts"], seen["seed"] = restarts, seed
            return real(graph, budget=budget, restarts=restarts, seed=seed)

        monkeypatch.setattr(stages, "list_schedule", spying)
        explore(app_set()[:1], [Allocation()],
                options=CompileOptions(restarts=3, seed=11))
        assert seen == {"restarts": 3, "seed": 11}
