"""Workload ``explore_grid``: cold design-space sweeps, then warm re-sweeps.

Every sweep is one ``Toolchain.explore`` call with ``jobs=1`` and a
fresh candidate memo, so every candidate is evaluated: the applications
``stress_6``, ``stress_8`` and ``fir6`` over the allocation grid
``n_mult``, ``n_alu``, ``n_ram`` in {1, 2}.  The seed draws the
coefficients of all three applications; their structure, and with it
the synthesized cores (9 to 13 RT classes), stays fixed.  After each
cold sweep the same grid is re-swept through the now warm memo, the
designer's inner loop.  Sweeps repeat until the measured window closes.

Oracles: every candidate is feasible, and every sweep — cold or warm —
returns the schedule lengths of the first one.
"""

from __future__ import annotations

import random
import time

from calibrate import Calibration
from common import (
    BenchmarkError,
    Deadline,
    check_repeats,
    latency,
    median,
    own_peak_rss_mb,
)
from tracer import layer_metrics, traced_rounds

#: Warm re-sweeps after each cold sweep.
WARM_RESWEEPS = 40


def make_inputs(seed: int, smoke: bool):
    from repro import SweepSpec
    from repro.apps import fir_application, stress_application

    rng = random.Random(seed)
    apps = [
        stress_application(6, seed=rng.randrange(1 << 30), name="stress_6"),
        stress_application(8, seed=rng.randrange(1 << 30), name="stress_8"),
        fir_application([round(rng.uniform(0.02, 0.3), 4) for _ in range(6)],
                        name="fir6"),
    ]
    if smoke:
        return apps[::2], SweepSpec(n_alus=(1, 2))
    return apps, SweepSpec(n_mults=(1, 2), n_alus=(1, 2), n_rams=(1, 2))


def _toolchain():
    from repro import Toolchain

    # The bound core is unused by explore (it synthesizes candidates);
    # cache=None keeps the stage cache out of candidate evaluation.
    return Toolchain("fir", cache=None)


def setup_probe(seed: int, smoke: bool) -> None:
    """Set-up as a user pays it: build the toolchain and prime it with a
    one-candidate sweep."""
    from repro import ExploreCache, SweepSpec

    apps, _ = make_inputs(seed, smoke)
    points = _toolchain().explore(apps, SweepSpec(), jobs=1,
                                  cache=ExploreCache())
    if not points[0].feasible:
        raise BenchmarkError(f"priming candidate infeasible: "
                             f"{points[0].failures}")


def lengths(points) -> list:
    return [sorted(point.schedule_lengths.items()) for point in points]


def cold_sweep(toolchain, apps, spec, candidate_ms: dict[tuple, list],
               calibration: Calibration | None = None):
    """One sweep through a fresh memo; returns (points, memo).

    Each candidate is timed from the previous candidate's progress
    report to its own, into ``candidate_ms[allocation]``; a calibration
    sample is taken in between, off the clock."""
    from repro import ExploreCache

    memo = ExploreCache()
    started = [time.perf_counter()]

    def progress(record) -> None:
        elapsed = (time.perf_counter() - started[0]) * 1e3
        candidate_ms.setdefault(record["allocation"], []).append(elapsed)
        if calibration is not None:
            calibration.sample()
        started[0] = time.perf_counter()

    points = toolchain.explore(apps, spec, jobs=1, cache=memo,
                               progress=progress)
    return points, memo


def sweep_counts(points) -> dict:
    return {
        "sched_cycles_sum": sum(sum(p.schedule_lengths.values())
                                for p in points),
        "feasible": sum(p.feasible for p in points),
        "candidates": len(points),
    }


def run(seed: int, seconds: float, smoke: bool) -> dict:
    apps, spec = make_inputs(seed, smoke)
    setup_probe(seed, smoke)
    toolchain = _toolchain()
    candidate_ms: dict[tuple, list[float]] = {}
    resweep_ms: list[float] = []
    # Cold candidates run for up to seconds, so only the window as a
    # whole can calibrate them: samples after each candidate and during
    # the warm re-sweeps.  The re-sweeps (milliseconds each, in short
    # bursts) are calibrated by samples taken among them alone.
    calibration, warm_calibration = Calibration(), Calibration()
    rounds = []
    reference = None
    failed = 0
    deadline = Deadline(seconds)
    while not rounds or not (smoke or deadline.expired):
        points, memo = cold_sweep(toolchain, apps, spec, candidate_ms,
                                  calibration)
        reference = reference or lengths(points)
        failed += sum(not p.feasible for p in points)
        failed += lengths(points) != reference
        for _ in range(1 if smoke else WARM_RESWEEPS):
            calibration.tick()
            warm_calibration.sample()
            start = time.perf_counter()
            warm = toolchain.explore(apps, spec, jobs=1, cache=memo)
            resweep_ms.append((time.perf_counter() - start) * 1e3)
            failed += lengths(warm) != reference
        rounds.append(sweep_counts(points))
        if smoke:
            break
    counts = check_repeats("explore_grid", rounds)
    slowdown = calibration.slowdown()
    evaluated = sum(len(times) for times in candidate_ms.values())
    cold_seconds = sum(map(sum, candidate_ms.values())) / 1e3
    # The median over the candidates' median times, so it does not
    # shift with how many sweeps fit in the window.
    typical = [median(times) for times in candidate_ms.values()]
    metrics, note = latency(typical, resweep_ms, slowdown)
    metrics["repeat_ms_p50"] = median(resweep_ms) / warm_calibration.slowdown()
    metrics["throughput_per_s"] = evaluated / cold_seconds * slowdown
    metrics["peak_rss_mb"] = own_peak_rss_mb()
    return {
        "correct": failed == 0,
        "attempted": evaluated + len(resweep_ms),
        "failed": failed,
        "metrics": metrics,
        "notes": [f"# {len(rounds)} cold sweeps ({evaluated} "
                  f"candidates, {cold_seconds:.2f} s), {len(resweep_ms)} "
                  f"warm re-sweeps; exact counts per sweep {counts}",
                  calibration.note(), "# warm re-sweeps: "
                  + warm_calibration.note()[2:], note],
    }


def run_traced(seed: int, smoke: bool) -> dict:
    apps, spec = make_inputs(seed, smoke)
    setup_probe(seed, smoke)
    toolchain = _toolchain()

    def one_round():
        points, _ = cold_sweep(toolchain, apps, spec, {})
        return points

    ratio, obs, results, plain = traced_rounds(one_round, 1)
    counts = check_repeats("explore_grid",
                           [sweep_counts(points) for points in results])
    failed = sum(not p.feasible for points in results for p in points)
    metrics = layer_metrics(obs.counters, obs.spans())
    metrics["trace.overhead_ratio"] = ratio
    metrics["explore.sweep_s"] = plain
    metrics["sched_cycles_sum"] = counts["sched_cycles_sum"]
    return {"correct": failed == 0, "attempted": counts["candidates"],
            "failed": failed, "metrics": metrics}
