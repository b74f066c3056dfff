"""Experiment: simulation throughput across engines and batch widths.

The explorer's quantitative loop (compile candidates, *simulate* them
over stimulus, compare outputs) is simulation-bound.  The decoded
engine steps a plan decoded once, and the numpy engine steps whole
stimulus batches as array operations.

This bench measures cycles/second for both engines at batch widths 1,
16 and 256, next to the reference interpreter
(:func:`repro.run_reference` on the source graph) over the same
stimulus.  The program is decoded, its step code generated and numpy
imported once before any timing (the decode and the code generation
are recorded on their own as ``decode_seconds`` and
``codegen_seconds``), and every row is the median of :data:`REPEATS`
runs, so a row measures stepping the warm plan.  It asserts every
engine stays bit-identical to the reference, asserts the decoded
engine clears a 2x speedup over the reference at width 1 and the numpy
engine a 10x speedup at width 256, and writes the trajectory to
``BENCH_sim.json`` (uploaded as a CI artifact;
``tools/check_sim_regression.py`` guards it against the committed
``benchmarks/sim_baseline.json``).

With numpy installed it records three more rows:

* ``numpy_lane_speedup_vs_decoded``: on warm fir8, 256 times the
  decoded engine's one-lane time over the numpy engine's 256-lane time
  (what a lane costs on each), asserted at least
  :data:`MIN_NUMPY_LANE_SPEEDUP`;
* ``crossover``: both engines on warm fir8, lms and audio plans at
  :data:`CROSSOVER_WIDTHS` lanes, with the engine ``auto`` picks at each
  width, asserted to be the faster one wherever the two differ by more
  than :data:`CROSSOVER_MARGIN`;
* ``one_shot``: a fresh program's first numpy run (decode, code
  generation and stepping) at the fuzzer's 3 lanes x 6 frames and at
  256 x 16, the minimum of :data:`ONE_SHOT_RUNS`.
"""

from __future__ import annotations

import dataclasses
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
from repro.apps import (
    audio_application,
    audio_io_binding,
    fir_application,
    lms_application,
)
from repro.sim import (
    NUMPY_AVAILABLE,
    DecodedPlan,
    decode_program,
    resolve_engine,
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
#: The acceptance floor for the decoded engine at width 1, as a
#: speedup over the reference interpreter.
MIN_DECODED_SPEEDUP = 2.0
#: The floor for ``numpy_lane_speedup_vs_decoded`` (6.2-6.5x when the
#: numpy engine interpreted each word, 9.6-10.1x on generated code,
#: on one 2-CPU box).
MIN_NUMPY_LANE_SPEEDUP = 8.0
#: Batch widths of the ``crossover`` row.
CROSSOVER_WIDTHS = (8, 16, 32, 64, 128, 256)
#: ``auto`` must pick the faster engine where the two differ by more.
CROSSOVER_MARGIN = 1.3
#: Fresh programs per ``one_shot`` cell; the cell records the fastest.
ONE_SHOT_RUNS = 5
#: ``one_shot`` shapes, (lanes, frames): the fuzzer's, then the bench's.
ONE_SHOT_SHAPES = ((3, 6), (256, N_SAMPLES))


def compiled_program():
    toolchain = Toolchain("fir", CompileOptions(disk_cache=False))
    coefficients = [0.05 * (k + 1) for k in range(8)]
    return toolchain.compile(fir_application(coefficients, name="fir8"))


def crossover_programs():
    """fir8, lms and audio, each compiled for its own core."""
    options = CompileOptions(disk_cache=False)
    return {
        "fir8": compiled_program(),
        "lms": Toolchain("adaptive", options).compile(lms_application()),
        "audio": Toolchain("audio", options).compile(
            audio_application(), io_binding=audio_io_binding()),
    }


def stimulus_lanes(n_lanes: int, seed: int = 0, ports=("x",),
                   n_samples: int = N_SAMPLES):
    rng = random.Random(seed)
    return [
        {port: [rng.randint(Q15.min_value, Q15.max_value)
                for _ in range(n_samples)] for port in ports}
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
    # Each build on a plan of its own, so none is served from the plan.
    fresh = iter([DecodedPlan(compiled.binary) for _ in range(REPEATS)])
    _, codegen_seconds = median_seconds(lambda: next(fresh).step_binder)
    decode_program(compiled.binary).step_binder
    if NUMPY_AVAILABLE:
        import numpy  # noqa: F401  (the import, paid before any row)

    record = {
        "program": "fir8 on the fir core",
        "n_samples": N_SAMPLES,
        "numpy_available": NUMPY_AVAILABLE,
        "repeats": REPEATS,
        "decode_seconds": decode_seconds,
        "codegen_seconds": codegen_seconds,
        "batch": {},
    }
    print(f"\ndecode (once per program): {decode_seconds * 1e3:.3f} ms")
    print(f"codegen (once per program): {codegen_seconds * 1e3:.3f} ms")
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

    narrowest = record["batch"][str(BATCH_WIDTHS[0])]
    speedup = narrowest["decoded"]["speedup_vs_reference"]
    assert speedup >= MIN_DECODED_SPEEDUP, (
        f"decoded engine at N={BATCH_WIDTHS[0]} is only {speedup:.1f}x "
        f"over the reference (floor {MIN_DECODED_SPEEDUP}x)")
    if NUMPY_AVAILABLE:
        widest = record["batch"][str(BATCH_WIDTHS[-1])]
        speedup = widest["numpy"]["speedup_vs_reference"]
        assert speedup >= MIN_NUMPY_SPEEDUP, (
            f"numpy engine at N={BATCH_WIDTHS[-1]} is only "
            f"{speedup:.1f}x over the reference "
            f"(floor {MIN_NUMPY_SPEEDUP}x)")

    if NUMPY_AVAILABLE:
        speedup = (BATCH_WIDTHS[-1] * narrowest["decoded"]["seconds"]
                   / widest["numpy"]["seconds"])
        record["numpy_lane_speedup_vs_decoded"] = speedup
        print(f"numpy lane speedup vs decoded: {speedup:.1f}x")
        assert speedup >= MIN_NUMPY_LANE_SPEEDUP, (
            f"a numpy lane at N={BATCH_WIDTHS[-1]} is only {speedup:.1f}x "
            f"cheaper than a decoded lane (floor "
            f"{MIN_NUMPY_LANE_SPEEDUP}x)")
        programs = crossover_programs()
        record["crossover"] = crossover(programs)
        record["one_shot"] = one_shot(programs)

    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")


def crossover(programs) -> dict:
    """Both engines on each warm plan per width, and ``auto``'s pick;
    asserts ``auto`` picks the faster engine where it matters."""
    rows = {}
    wrong = []
    print(f"{'program':8}  " + "  ".join(
        f"{width:>5}" for width in CROSSOVER_WIDTHS) + "  (numpy/decoded)")
    for name, compiled in programs.items():
        program = compiled.binary
        ports = sorted(compiled.source_dfg.inputs)
        for engine in ("decoded", "numpy"):
            run_batch(program, stimulus_lanes(1, ports=ports), engine=engine)
        rows[name] = {}
        for width in CROSSOVER_WIDTHS:
            lanes = stimulus_lanes(width, seed=width, ports=ports)
            cell = {engine: median_seconds(
                lambda: run_batch(program, lanes, engine=engine))[1]
                for engine in ("decoded", "numpy")}
            cell["auto"] = resolve_engine("auto", width,
                                          program.core.data_width)
            faster = min(("decoded", "numpy"), key=cell.get)
            slower = "numpy" if faster == "decoded" else "decoded"
            if cell["auto"] != faster and \
                    cell[slower] > CROSSOVER_MARGIN * cell[faster]:
                wrong.append(f"{name} at {width} lanes: auto picks "
                             f"{cell['auto']}, {faster} is "
                             f"{cell[slower] / cell[faster]:.2f}x faster")
            rows[name][str(width)] = cell
        print(f"{name:8}  " + "  ".join(
            f"{cell['numpy'] / cell['decoded']:>5.2f}"
            for cell in rows[name].values()))
    assert not wrong, "; ".join(wrong)
    return rows


def one_shot(programs) -> dict:
    """A fresh program's first numpy run, in seconds, per shape."""
    rows = {}
    for name, compiled in programs.items():
        ports = sorted(compiled.source_dfg.inputs)
        rows[name] = {}
        for n_lanes, n_frames in ONE_SHOT_SHAPES:
            lanes = stimulus_lanes(n_lanes, ports=ports, n_samples=n_frames)
            times = []
            for _ in range(ONE_SHOT_RUNS):
                # A copy is a new program: decoded and generated anew.
                program = dataclasses.replace(compiled.binary)
                start = time.perf_counter()
                run_batch(program, lanes, engine="numpy")
                times.append(time.perf_counter() - start)
            rows[name][f"{n_lanes}x{n_frames}"] = min(times)
        print(f"one shot {name:6}  " + "  ".join(
            f"{shape}: {seconds * 1e3:.2f} ms"
            for shape, seconds in rows[name].items()))
    return rows


@pytest.mark.skipif(NUMPY_AVAILABLE, reason="numpy installed")
def test_bench_sim_records_fallback():
    """Without numpy the bench still runs (and records that it did) —
    the pure-Python engine is the only requirement."""
    assert not NUMPY_AVAILABLE
