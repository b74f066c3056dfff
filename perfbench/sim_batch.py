"""Workload ``sim_batch``: simulate compiled programs, compile nothing.

``fir8`` (fir core), ``audio`` (audio core) and ``lms`` (adaptive core)
are compiled once, before the measured window.  The seed draws the
stimulus: one batch of 256 lanes of random Q15 samples per program.
The loop alternates over the programs: one 256-lane run on the numpy
engine, then one single-lane run (a lane of that batch) on the decoded
engine, both through the public ``CompiledProgram`` API, until the
measured window closes.

Oracle: every output of every run equals the reference interpreter on
the same stimulus, computed once outside the timed region.
"""

from __future__ import annotations

import random
import time

from calibrate import Calibration
from common import (
    BenchmarkError,
    Deadline,
    latency,
    median,
    own_peak_rss_mb,
)
from tracer import layer_metrics, traced_rounds

LANES = 256
FRAMES = 16


def _programs():
    from repro import Toolchain
    from repro.apps import (
        audio_application,
        audio_io_binding,
        fir_application,
        lms_application,
    )

    specs = [
        ("fir", fir_application([0.05 * (k + 1) for k in range(8)],
                                name="fir8"), None),
        ("audio", audio_application(), audio_io_binding()),
        ("adaptive", lms_application(), None),
    ]
    return [Toolchain(core, cache=None).compile(dfg, io_binding=binding)
            for core, dfg, binding in specs]


def make_stimulus(programs, seed: int, smoke: bool) -> list[list[dict]]:
    from repro import Q15

    rng = random.Random(seed)
    lanes, frames = (8, 4) if smoke else (LANES, FRAMES)
    return [[{port: [rng.randint(Q15.min_value, Q15.max_value)
                     for _ in range(frames)]
              for port in program.source_dfg.inputs}
             for _ in range(lanes)]
            for program in programs]


def setup_probe(seed: int, smoke: bool) -> list:
    """Set-up as a user pays it: compile the three programs and prime
    both engines once."""
    programs = _programs()
    for program, batch in zip(programs,
                              make_stimulus(programs, seed, smoke=True)):
        program.run_batch(batch, engine="numpy")
        program.run(batch[0], engine="decoded")
    return programs


def lane_cycles(program, batch) -> int:
    """Exact lane-cycles one batch run executes (from the sim counters)."""
    from repro import Telemetry, use_telemetry

    obs = Telemetry()
    with use_telemetry(obs):
        program.run_batch(batch, engine="numpy")
    return obs.counters["sim.cycles"]


def run(seed: int, seconds: float, smoke: bool) -> dict:
    from repro import run_reference

    programs = setup_probe(seed, smoke)
    stimulus = make_stimulus(programs, seed, smoke)
    expected = [[run_reference(p.source_dfg, lane) for lane in batch]
                for p, batch in zip(programs, stimulus)]
    cycles = [lane_cycles(p, batch) for p, batch in zip(programs, stimulus)]
    batch_ms: list[float] = []
    single_ms: list[float] = []
    batch_cycles = 0
    failed = 0
    calibration = Calibration()
    deadline = Deadline(seconds)
    turn = 0
    while turn < len(programs) or not (smoke or deadline.expired):
        calibration.tick()
        index = turn % len(programs)
        program, batch = programs[index], stimulus[index]
        start = time.perf_counter()
        outputs = program.run_batch(batch, engine="numpy")
        batch_ms.append((time.perf_counter() - start) * 1e3)
        batch_cycles += cycles[index]
        lane = turn % len(batch)
        start = time.perf_counter()
        single = program.run(batch[lane], engine="decoded")
        single_ms.append((time.perf_counter() - start) * 1e3)
        failed += sum(out != ref for out, ref in zip(outputs, expected[index]))
        failed += single != expected[index][lane]
        turn += 1
        if smoke and turn == len(programs):
            break
    if not all(cycles):
        raise BenchmarkError("a program simulated zero cycles")
    lanes_run = len(batch_ms) * len(stimulus[0]) + len(single_ms)
    slowdown = calibration.slowdown()
    metrics, note = latency(batch_ms, single_ms, slowdown)
    metrics["throughput_per_s"] = (batch_cycles / (sum(batch_ms) / 1e3)
                                   * slowdown)
    metrics["peak_rss_mb"] = own_peak_rss_mb()
    return {
        "correct": failed == 0,
        "attempted": lanes_run,
        "failed": failed,
        "metrics": metrics,
        "notes": [f"# {len(batch_ms)} batch runs of {len(stimulus[0])} "
                  f"lanes, {len(single_ms)} single-lane runs; exact "
                  f"lane-cycles per batch {cycles}",
                  calibration.note(), note],
    }


def run_traced(seed: int, smoke: bool) -> dict:
    from repro import run_reference

    programs = setup_probe(seed, smoke)
    stimulus = make_stimulus(programs, seed, smoke)
    expected = [[run_reference(p.source_dfg, lane) for lane in batch]
                for p, batch in zip(programs, stimulus)]

    def one_round():
        """Each program once on each engine; returns the outputs and the
        two engines' times in seconds."""
        outputs, batch_s, single_s = [], 0.0, 0.0
        for program, batch in zip(programs, stimulus):
            start = time.perf_counter()
            outputs.append(program.run_batch(batch, engine="numpy"))
            batch_s += time.perf_counter() - start
            start = time.perf_counter()
            outputs.append([program.run(batch[0], engine="decoded")])
            single_s += time.perf_counter() - start
        return outputs, batch_s, single_s

    pairs = 1 if smoke else 3
    ratio, obs, results, _ = traced_rounds(one_round, pairs)
    failed = 0
    for outputs, _, _ in results:
        for index, batch_out in enumerate(outputs[0::2]):
            failed += sum(out != ref
                          for out, ref in zip(batch_out, expected[index]))
        for index, single in enumerate(outputs[1::2]):
            failed += single[0] != expected[index][0]
    # Split the simulated cycles by engine: every lane runs the same
    # number of cycles, so a batch run is lanes x one lane's cycles.
    total = obs.counters["sim.cycles"] / pairs
    single_cycles = total / (len(stimulus[0]) + 1)
    batch_cycles = total - single_cycles
    batch_s = median([r[1] for r in results])
    single_s = median([r[2] for r in results])
    metrics = layer_metrics(obs.counters, obs.spans(), rounds=pairs)
    metrics.update({
        "trace.overhead_ratio": ratio,
        "sim.batch_run_ms": batch_s / len(programs) * 1e3,
        "sim.single_run_ms": single_s / len(programs) * 1e3,
        "sim.batch_lane_cycles_per_s": batch_cycles / batch_s,
        "sim.single_cycles_per_s": single_cycles / single_s,
        "sched_cycles_sum": sum(p.n_cycles for p in programs),
        "code_words_sum": sum(len(p.binary.words) for p in programs),
    })
    return {"correct": failed == 0,
            "attempted": pairs * len(programs) * (len(stimulus[0]) + 1),
            "failed": failed, "metrics": metrics}
