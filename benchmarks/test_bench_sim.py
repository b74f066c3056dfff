"""Experiment: simulation throughput across engines and batch widths.

The explorer's quantitative loop (compile candidates, *simulate* them
over stimulus, compare outputs) is simulation-bound.  The decoded
engine steps a plan decoded once, and the numpy engine steps whole
stimulus batches as array operations.

This bench measures cycles/second for both engines at batch widths 1,
16 and 256, next to the reference interpreter
(:func:`repro.run_reference` on the source graph) over the same
stimulus.  The program is decoded and numpy imported once before any
timing (the decode is recorded on its own as ``decode_seconds``), and
every row is the median of :data:`REPEATS` runs, so a row measures
stepping the warm plan.  It asserts every engine stays bit-identical
to the reference, asserts the numpy engine clears a 10x speedup over
the reference at width 256, and writes the trajectory to
``BENCH_sim.json`` (uploaded as a CI artifact;
``tools/check_sim_regression.py`` guards it against the committed
``benchmarks/sim_baseline.json``).
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path

import pytest

from repro import (
    Q15,
    CompileOptions,
    Telemetry,
    Toolchain,
    run_reference,
    use_telemetry,
)
from repro.apps import fir_application
from repro.sim import (
    NUMPY_AVAILABLE,
    DecodedPlan,
    decode_program,
    run_batch,
)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

BATCH_WIDTHS = (1, 16, 256)
N_SAMPLES = 16
#: Timed runs per row; the row records their median.
REPEATS = 5
#: The acceptance floor for the numpy engine at the widest batch,
#: as a speedup over the reference interpreter.
MIN_NUMPY_SPEEDUP = 10.0


def compiled_program():
    toolchain = Toolchain("fir", CompileOptions(disk_cache=False))
    coefficients = [0.05 * (k + 1) for k in range(8)]
    return toolchain.compile(fir_application(coefficients, name="fir8"))


def stimulus_lanes(n_lanes: int, seed: int = 0):
    rng = random.Random(seed)
    return [
        {"x": [rng.randint(Q15.min_value, Q15.max_value)
               for _ in range(N_SAMPLES)]}
        for _ in range(n_lanes)
    ]


def median_seconds(action):
    """(last result, median seconds) of :data:`REPEATS` calls."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = action()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def timed_reference(dfg, lanes):
    """(outputs, seconds) for the reference interpreter, lane by lane."""
    return median_seconds(
        lambda: [run_reference(dfg, dict(lane), N_SAMPLES)
                 for lane in lanes])


def timed_run(program, lanes, engine):
    """(outputs, seconds, simulated cycles) for one engine pass."""
    obs = Telemetry()
    with use_telemetry(obs):
        outputs, seconds = median_seconds(
            lambda: run_batch(program, [dict(lane) for lane in lanes],
                              engine=engine))
    return outputs, seconds, obs.counters["sim.cycles"] // REPEATS


def test_bench_sim_engines():
    compiled = compiled_program()
    engines = ["decoded"] + (["numpy"] if NUMPY_AVAILABLE else [])

    # Set-up a user pays once per program, kept out of every row.
    _, decode_seconds = median_seconds(
        lambda: DecodedPlan(compiled.binary))
    decode_program(compiled.binary)
    if NUMPY_AVAILABLE:
        import numpy  # noqa: F401  (the import, paid before any row)

    record = {
        "program": "fir8 on the fir core",
        "n_samples": N_SAMPLES,
        "numpy_available": NUMPY_AVAILABLE,
        "repeats": REPEATS,
        "decode_seconds": decode_seconds,
        "batch": {},
    }
    print(f"\ndecode (once per program): {decode_seconds * 1e3:.3f} ms")
    print(f"{'N':>4}  {'engine':9}  {'seconds':>9}  {'cycles/s':>12}  "
          f"{'vs ref':>8}")
    for n_lanes in BATCH_WIDTHS:
        lanes = stimulus_lanes(n_lanes, seed=n_lanes)
        expected, reference_seconds = timed_reference(
            compiled.source_dfg, lanes)
        rows = {"reference": {"seconds": reference_seconds,
                              "speedup_vs_reference": 1.0}}
        print(f"{n_lanes:>4}  {'reference':9}  {reference_seconds:>9.4f}  "
              f"{'':>12}  {1.0:>7.1f}x")
        for engine in engines:
            outputs, seconds, cycles = timed_run(
                compiled.binary, lanes, engine)
            # The load-bearing check: engines equal the reference.
            assert outputs == expected, f"{engine} diverged at N={n_lanes}"
            speedup = reference_seconds / seconds if seconds else None
            rows[engine] = {
                "seconds": seconds,
                "cycles": cycles,
                "cycles_per_sec": cycles / seconds if seconds else None,
                "speedup_vs_reference": speedup,
            }
            print(f"{n_lanes:>4}  {engine:9}  {seconds:>9.4f}  "
                  f"{rows[engine]['cycles_per_sec']:>12.0f}  "
                  f"{speedup:>7.1f}x")
        record["batch"][str(n_lanes)] = rows

    if NUMPY_AVAILABLE:
        widest = record["batch"][str(BATCH_WIDTHS[-1])]
        speedup = widest["numpy"]["speedup_vs_reference"]
        assert speedup >= MIN_NUMPY_SPEEDUP, (
            f"numpy engine at N={BATCH_WIDTHS[-1]} is only "
            f"{speedup:.1f}x over the reference "
            f"(floor {MIN_NUMPY_SPEEDUP}x)")

    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")


@pytest.mark.skipif(NUMPY_AVAILABLE, reason="numpy installed")
def test_bench_sim_records_fallback():
    """Without numpy the bench still runs (and records that it did) —
    the pure-Python engine is the only requirement."""
    assert not NUMPY_AVAILABLE
