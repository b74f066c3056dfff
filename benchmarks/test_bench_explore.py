"""Experiment: design-space exploration throughput.

Phase 1 of the paper's methodology is a *loop* — the core designer
sweeps allocations, reads the quantitative feedback, narrows the
ranges and sweeps again.  The seed explorer re-ran the monolithic
compiler end to end for every (application × allocation) pair; the
staged explorer optimizes every application exactly once per opt
level, stops each candidate at register allocation (schedule length is
the feedback — no encoding needed), can fan candidates out over a
process pool, and memoizes evaluated candidates across sweeps.

This bench measures all of that against the seed behavior, asserts the
feedback is unchanged, and writes the measured numbers to
``BENCH_explore.json`` (uploaded as a CI artifact).
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import statistics
import time
from pathlib import Path

from repro import Toolchain
from repro.apps import fir_application, stress_application
from repro.arch import (
    Allocation,
    SweepSpec,
    explore,
    explore_refined,
    intermediate_architecture,
    pareto_axes,
    pareto_front,
)
from repro.errors import ReproError
from repro.pipeline import DiskCache, ExploreCache, dfg_fingerprint

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_explore.json"

#: Warm re-sweeps (and source renderings) sampled for their medians.
WARM_SAMPLES = 41

#: Ceiling on a warm re-sweep's median over the median cost of
#: rendering the sweep's sources once.  A re-sweep that renders every
#: source again costs more than one rendering of them (about 1.3x on a
#: 2-CPU box); with each graph rendered once while unchanged it costs
#: about 0.37x.
MAX_RESWEEP_PER_SOURCE_HASH = 0.9


def application_set():
    return [
        stress_application(6, seed=2),
        stress_application(8, seed=3),
        fir_application([0.05 * (k + 1) for k in range(6)], name="fir6"),
    ]


def allocation_sweep():
    return [
        Allocation(n_mult=m, n_alu=a, n_ram=r)
        for m in (1, 2) for a in (1, 2) for r in (1, 2)
    ]


def seed_explore(dfgs, allocations, budget=None):
    """The pre-staged-pipeline explorer, verbatim: one monolithic
    cold compile per (application × allocation) pair, re-parsing and
    re-optimizing every time, infeasible points silently dropped."""
    points = []
    for allocation in allocations:
        core = intermediate_architecture(dfgs, allocation)
        lengths = {}
        feasible = True
        for dfg in dfgs:
            try:
                compiled = Toolchain(core, cache=None,
                                     budget=budget).compile(dfg)
            except ReproError:
                feasible = False
                break
            lengths[dfg.name] = compiled.n_cycles
        if feasible:
            points.append((allocation, lengths, len(core.datapath.opus)))
    return points


def test_bench_explore_speedup(monkeypatch, tmp_path):
    """Staged explorer vs the sequential seed, plus warm-cache re-sweep
    and the persistent disk cache (cold fill vs a new process's warm
    sweep over the same directory).

    The wall-clock assertions are deliberately loose (CI machines are
    noisy); the load-bearing checks are exact — identical feedback, the
    machine-independent optimizer runs once per application, and a
    repeated sweep is served from the candidate cache.
    """
    dfgs = application_set()
    allocations = allocation_sweep()

    t0 = time.perf_counter()
    seed_points = seed_explore(dfgs, allocations)
    seed_seconds = time.perf_counter() - t0

    # The sweep memo runs the optimizer; count it where the memo looks
    # it up.
    session_module = importlib.import_module("repro.pipeline.session")
    mi_calls: list[str] = []
    real_mi = session_module.optimize_machine_independent

    def counting(dfg, level=1, fmt=None):
        mi_calls.append(dfg.name)
        return real_mi(dfg, level=level, fmt=fmt)

    monkeypatch.setattr(session_module, "optimize_machine_independent",
                        counting)
    cache = ExploreCache()
    t0 = time.perf_counter()
    staged_points = explore(dfgs, allocations, cache=cache)
    staged_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm_points = explore(dfgs, allocations, cache=cache)
    warm_seconds = time.perf_counter() - t0

    # Identical quantitative feedback, point for point.
    assert [lengths for _, lengths, _ in seed_points] == \
        [p.schedule_lengths for p in staged_points]
    assert [n for _, _, n in seed_points] == [p.n_opus for p in staged_points]
    assert [p.schedule_lengths for p in warm_points] == \
        [p.schedule_lengths for p in staged_points]

    # Each application optimized exactly once over both sweeps: the warm
    # sweep reuses the optimized graphs the cache memoized.
    assert mi_calls == [d.name for d in dfgs]
    assert cache.hits == len(allocations)

    # Wall clock: the staged sweep must not regress, and the cached
    # re-sweep must be dramatically cheaper (it compiles nothing).
    assert staged_seconds <= seed_seconds * 1.25, \
        f"staged sweep slower than seed: {staged_seconds:.2f}s " \
        f"vs {seed_seconds:.2f}s"
    assert warm_seconds <= staged_seconds * 0.5

    # The designer's inner loop, sampled: warm re-sweeps against one
    # rendering of the sweep's sources (fresh shallow copies, so no
    # digest is remembered), interleaved so that load shifts both.
    resweep_ms, source_hash_ms = [], []
    for _ in range(WARM_SAMPLES):
        t0 = time.perf_counter()
        explore(dfgs, allocations, cache=cache)
        resweep_ms.append((time.perf_counter() - t0) * 1e3)
        copies = [copy.copy(dfg) for dfg in dfgs]
        t0 = time.perf_counter()
        for dfg in copies:
            dfg_fingerprint(dfg)
        source_hash_ms.append((time.perf_counter() - t0) * 1e3)
    warm_resweep_ms = statistics.median(resweep_ms)
    source_hash_median = statistics.median(source_hash_ms)
    resweep_per_hash = warm_resweep_ms / source_hash_median
    assert resweep_per_hash <= MAX_RESWEEP_PER_SOURCE_HASH, \
        f"a warm re-sweep ({warm_resweep_ms:.3f} ms) costs " \
        f"{resweep_per_hash:.2f}x rendering its sources " \
        f"({source_hash_median:.3f} ms)"

    # Persistent disk cache: a cold sweep fills the store; the "next
    # morning's" sweep — a fresh process, empty memory tiers, the same
    # cache directory — must come from disk, not from recompiling.
    cache_dir = tmp_path / "diskcache"
    t0 = time.perf_counter()
    disk_cold_points = explore(
        dfgs, allocations, cache=ExploreCache(disk=DiskCache(cache_dir)))
    disk_cold_seconds = time.perf_counter() - t0

    new_process_cache = ExploreCache(disk=DiskCache(cache_dir))
    t0 = time.perf_counter()
    disk_warm_points = explore(dfgs, allocations, cache=new_process_cache)
    disk_warm_seconds = time.perf_counter() - t0

    assert [p.schedule_lengths for p in disk_cold_points] == \
        [p.schedule_lengths for p in staged_points]
    assert [p.schedule_lengths for p in disk_warm_points] == \
        [p.schedule_lengths for p in staged_points]
    assert new_process_cache.disk_hits == len(allocations)
    assert disk_warm_seconds < disk_cold_seconds, \
        f"warm-disk sweep not faster: {disk_warm_seconds:.3f}s " \
        f"vs {disk_cold_seconds:.3f}s cold"

    results = {
        "applications": [d.name for d in dfgs],
        "n_allocations": len(allocations),
        "seed_seconds": round(seed_seconds, 4),
        "staged_seconds": round(staged_seconds, 4),
        "warm_cache_seconds": round(warm_seconds, 4),
        "staged_speedup": round(seed_seconds / staged_seconds, 3),
        "warm_cache_speedup": round(seed_seconds / warm_seconds, 1),
        "warm_resweep_ms": round(warm_resweep_ms, 4),
        "source_hash_ms": round(source_hash_median, 4),
        "warm_resweep_per_source_hash": round(resweep_per_hash, 3),
        "disk_cold_seconds": round(disk_cold_seconds, 4),
        "disk_warm_seconds": round(disk_warm_seconds, 4),
        "disk_warm_speedup": round(disk_cold_seconds / disk_warm_seconds, 1),
        "cpu_count": os.cpu_count(),
    }

    if (os.cpu_count() or 1) >= 2:
        t0 = time.perf_counter()
        parallel_points = explore(dfgs, allocations, jobs=2)
        parallel_seconds = time.perf_counter() - t0
        assert [p.schedule_lengths for p in parallel_points] == \
            [p.schedule_lengths for p in staged_points]
        results["parallel_jobs"] = 2
        results["parallel_seconds"] = round(parallel_seconds, 4)
        results["parallel_speedup"] = round(seed_seconds / parallel_seconds, 3)

    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print("\nexplore sweep ({} allocations x {} applications):".format(
        len(allocations), len(dfgs)))
    print(f"  seed (monolithic, sequential) : {seed_seconds:8.3f}s")
    print(f"  staged (shared MI-opt)        : {staged_seconds:8.3f}s "
          f"({seed_seconds / staged_seconds:.2f}x)")
    if "parallel_seconds" in results:
        print(f"  staged --jobs 2               : "
              f"{results['parallel_seconds']:8.3f}s "
              f"({results['parallel_speedup']:.2f}x)")
    print(f"  warm candidate cache          : {warm_seconds:8.3f}s "
          f"({seed_seconds / warm_seconds:.0f}x)")
    print(f"  warm re-sweep, median         : {warm_resweep_ms:8.3f}ms "
          f"({resweep_per_hash:.2f}x rendering the sources)")
    print(f"  disk cache, cold fill         : {disk_cold_seconds:8.3f}s")
    print(f"  disk cache, new process       : {disk_warm_seconds:8.3f}s "
          f"({disk_cold_seconds / disk_warm_seconds:.0f}x)")
    print(f"  results -> {RESULTS_PATH.name}")


def test_bench_refine_prunes_the_grid():
    """Coarse-to-fine vs the full multi-dimensional cross-product.

    The load-bearing checks are exact: the refined sweep's Pareto front
    equals the full grid's, while evaluating measurably fewer
    candidates.  The wall clock lands in BENCH_explore.json as
    ``refine_speedup`` next to the other trajectory numbers.
    """
    dfgs = application_set()
    spec = SweepSpec(n_mults=(1, 2), n_alus=(1, 2, 3), n_rams=(1,),
                     rf_sizes=(8, 12, 16))
    axes = pareto_axes(spec)

    # Each sweep takes a fraction of a second, so one load spike on a
    # shared machine can swamp a single timing.  Interleave the two
    # sweeps and keep each one's best of three.
    full_times, refine_times = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        full_points = explore(dfgs, spec.allocations())
        full_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        refined = explore_refined(dfgs, spec)
        refine_times.append(time.perf_counter() - t0)
    full_seconds, refine_seconds = min(full_times), min(refine_times)
    full_front = pareto_front(full_points, axes=axes)

    assert refined.n_evaluated < spec.size, \
        f"refinement evaluated the whole grid ({refined.n_evaluated})"
    assert sorted(p.allocation.astuple() for p in refined.front) == \
        sorted(p.allocation.astuple() for p in full_front), \
        "coarse-to-fine front diverged from the full-grid front"
    # Candidate counts above are the load-bearing pruning proof; the
    # wall clock only guards against a gross regression — the expected
    # win is ~1.3x, so the bound is deliberately loose for noisy CI.
    assert refine_seconds <= full_seconds * 2.0, \
        f"refined sweep grossly slower than the full grid: " \
        f"{refine_seconds:.2f}s vs {full_seconds:.2f}s"

    results = json.loads(RESULTS_PATH.read_text()) \
        if RESULTS_PATH.exists() else {}
    results.update({
        "refine_grid": spec.size,
        "refine_coarse": refined.n_coarse,
        "refine_fine": refined.n_refined,
        "refine_evaluated": refined.n_evaluated,
        "full_grid_seconds": round(full_seconds, 4),
        "refine_seconds": round(refine_seconds, 4),
        "refine_speedup": round(full_seconds / refine_seconds, 3),
    })
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\ncoarse-to-fine sweep ({spec.size}-point grid x "
          f"{len(dfgs)} applications):")
    print(f"  full cross-product            : {full_seconds:8.3f}s "
          f"({spec.size} candidates)")
    print(f"  coarse-to-fine                : {refine_seconds:8.3f}s "
          f"({refined.n_coarse} coarse + {refined.n_refined} refined, "
          f"{full_seconds / refine_seconds:.2f}x)")
    print(f"  results -> {RESULTS_PATH.name}")


#: (n_mult, n_alu, n_ram) -> (RT classes, stress_8 schedule length) of
#: the synthesized core.  Its instruction set is fully parallel, so the
#: closed family of allowed types doubles with every class.
CLASS_COUNT_GROWTH = {
    (1, 1, 1): (9, 12),
    (2, 2, 2): (13, 11),
    (3, 3, 2): (15, 11),
    (4, 4, 2): (17, 11),
    (5, 5, 2): (19, 11),
    (6, 6, 2): (21, 11),
}


def test_bench_class_count_growth():
    """Compile time as the synthesized core's RT-class count grows.

    The compiler holds the instruction set as its compatibility graph,
    so compile time must not follow the 2^classes allowed types.  The
    guard is machine-independent: the widest core may cost at most 10x
    the narrowest.  Each time is the best of three cold compiles.
    """
    dfg = stress_application(8, seed=3)
    rows = []
    for (n_mult, n_alu, n_ram), (n_classes, cycles) in \
            CLASS_COUNT_GROWTH.items():
        core = intermediate_architecture(
            [dfg], Allocation(n_mult=n_mult, n_alu=n_alu, n_ram=n_ram))
        toolchain = Toolchain(core, cache=None)
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            compiled = toolchain.compile(dfg)
            seconds.append(time.perf_counter() - t0)
        assert len(compiled.conflict_model.table) == n_classes
        assert compiled.n_cycles == cycles
        rows.append({
            "allocation": [n_mult, n_alu, n_ram],
            "rt_classes": n_classes,
            "schedule_length": cycles,
            "compile_ms": round(min(seconds) * 1e3, 3),
        })

    growth = rows[-1]["compile_ms"] / rows[0]["compile_ms"]
    assert growth <= 10, \
        f"{rows[-1]['rt_classes']}-class compile is {growth:.1f}x the " \
        f"{rows[0]['rt_classes']}-class one"

    results = json.loads(RESULTS_PATH.read_text()) \
        if RESULTS_PATH.exists() else {}
    results["class_count_growth"] = rows
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nstress_8 compile vs RT classes ({growth:.2f}x from "
          f"{rows[0]['rt_classes']} to {rows[-1]['rt_classes']}):")
    for row in rows:
        print(f"  {row['rt_classes']:3d} classes : {row['compile_ms']:8.2f} ms "
              f"({row['schedule_length']} cycles)")


def test_bench_explore_cached_resweep(benchmark):
    """The designer's inner loop: re-sweeping with a warm cache."""
    dfgs = application_set()
    allocations = allocation_sweep()
    cache = ExploreCache()
    explore(dfgs, allocations, cache=cache)  # cold fill
    points = benchmark(lambda: explore(dfgs, allocations, cache=cache))
    assert all(p.feasible for p in points)
    assert cache.hits >= len(allocations)
