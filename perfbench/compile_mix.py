"""Workload ``compile_mix``: first compiles and recompiles, closed loop.

One client compiles a seeded draw of ``repro.gen`` applications (each
compile-filtered against its core while the inputs are made) plus the
builtin applications, on the builtin cores ``audio``, ``fir`` and
``adaptive``.  A round compiles every application once through fresh
default two-tier toolchains whose persistent tier is the run's
``memory:`` backend, emptied first; then it recompiles every
application, half unchanged (a warm hit) and half under a changed
scheduler seed (the schedule key changes, so the round restores the
prefix through impose and reruns schedule, regalloc and assemble).
Rounds repeat until the measured window closes.

Oracles, outside the timed region: the audio application schedules in
63 cycles at ``-O0`` with budget 64; every recompile is bit-identical
to its first compile; in the first round every program's simulated
output equals the reference interpreter on seeded stimulus.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from calibrate import Calibration
from common import (
    BenchmarkError,
    Deadline,
    check_repeats,
    latency,
    own_peak_rss_mb,
    stratified_spec,
)
from tracer import layer_metrics, traced_rounds

CORES = ("audio", "fir", "adaptive")
GENERATED_PER_CORE = 30
#: The run's persistent tier: one named in-process backend, emptied at
#: the start of every round.
BACKEND = "memory:perfbench-compile-mix"
STIMULUS_FRAMES = 8
#: Untraced/traced round pairs of the traced run.
TRACE_PAIRS = 2


@dataclass
class App:
    name: str
    core: str
    dfg: object
    io_binding: dict | None
    changed: bool = False
    #: What the client compiles: the application as source text.
    source: str = ""


def make_inputs(seed: int, smoke: bool) -> list[App]:
    from repro import Toolchain, generate_dfg
    from repro.apps import (
        audio_application,
        audio_io_binding,
        fir_application,
        lms_application,
    )
    from repro.errors import ReproError
    from repro.gen import op_vocabulary
    from repro.lang.emit import emit_source

    rng = random.Random(seed)
    apps = [
        App("audio", "audio", audio_application(), audio_io_binding()),
        App("fir8", "fir",
            fir_application([0.05 * (k + 1) for k in range(8)], name="fir8"),
            None),
        App("lms", "adaptive", lms_application(), None),
    ]
    per_core = 2 if smoke else GENERATED_PER_CORE
    for core in CORES:
        ops = op_vocabulary(core)
        filter_toolchain = Toolchain(core, cache=None)
        kept = 0
        for _ in range(50 * per_core):
            if kept == per_core:
                break
            case = rng.randrange(1 << 30)
            dfg = generate_dfg(stratified_spec(kept, ops), case,
                               name=f"gen_{core}_{case}")
            try:
                filter_toolchain.compile(dfg)
            except ReproError:
                continue
            apps.append(App(dfg.name, core, dfg, None))
            kept += 1
        if kept < per_core:
            raise BenchmarkError(f"only {kept} generated apps compile on "
                                 f"{core}")
    for app in apps:
        app.source = emit_source(app.dfg)
    rng.shuffle(apps)
    for app in rng.sample(apps, len(apps) // 2):
        app.changed = True
    return apps


def setup_probe(seed: int, smoke: bool) -> None:
    """Set-up as a user pays it: resolve the cores, build the toolchains
    and prime them with the paper's audio compile (also the 63-cycle
    oracle)."""
    from repro import CompileOptions, Toolchain
    from repro.apps import audio_application, audio_io_binding

    options = CompileOptions(cache_dir=BACKEND)
    for core in CORES:
        Toolchain(core, options)
    compiled = Toolchain("audio", cache=None, opt=0, budget=64).compile(
        audio_application(), io_binding=audio_io_binding())
    if compiled.n_cycles != 63:
        raise BenchmarkError(f"audio at -O0/budget 64 schedules in "
                             f"{compiled.n_cycles} cycles, not 63")


def one_round(apps: list[App], first_ms: list[float], repeat_ms: list[float],
              calibration: Calibration | None = None,
              ) -> tuple[dict, list, int]:
    """Compile and recompile every app once; returns the round's exact
    counts, the first-compile programs and the recompile mismatches."""
    from repro import CompileOptions, Toolchain
    from repro.pipeline import open_backend

    backend = open_backend(BACKEND)
    backend.clear()
    if len(backend):
        raise BenchmarkError("memory backend not empty at round start")
    options = CompileOptions(cache_dir=BACKEND)
    toolchains = {core: Toolchain(core, options) for core in CORES}
    variants = {core: tc.replace(seed=1) for core, tc in toolchains.items()}
    programs = []
    for index, app in enumerate(apps):
        if calibration is not None:
            calibration.tick()
        toolchain = toolchains[app.core]
        start = time.perf_counter()
        compiled = toolchain.compile(app.source, io_binding=app.io_binding)
        first_ms.append((time.perf_counter() - start) * 1e3)
        if index == 0 and toolchain.cache.stats.hits:
            raise BenchmarkError("the first compile of a round hit a cache "
                                 "that should be empty")
        programs.append(compiled)
    mismatches = 0
    for app, compiled in zip(apps, programs):
        if calibration is not None:
            calibration.tick()
        toolchain = (variants if app.changed else toolchains)[app.core]
        start = time.perf_counter()
        again = toolchain.compile(app.source, io_binding=app.io_binding)
        repeat_ms.append((time.perf_counter() - start) * 1e3)
        if again.binary.words != compiled.binary.words:
            mismatches += 1
    caches = [tc.cache.stats for tc in toolchains.values()]
    counts = {
        "sched_cycles_sum": sum(p.n_cycles for p in programs),
        "code_words_sum": sum(len(p.binary.words) for p in programs),
        "stagecache.hit": sum(c.hits for c in caches),
        "stagecache.miss": sum(c.misses for c in caches),
        "backend.entries": len(backend),
    }
    backend.clear()
    return counts, programs, mismatches


def reference_mismatches(apps: list[App], programs: list, seed: int) -> int:
    """Programs whose simulated output differs from the reference
    interpreter on seeded stimulus (the independent oracle)."""
    from repro import Q15, run_reference

    rng = random.Random(seed ^ 0x5EED)
    wrong = 0
    for app, compiled in zip(apps, programs):
        streams = {
            port: [rng.randint(Q15.min_value, Q15.max_value)
                   for _ in range(STIMULUS_FRAMES)]
            for port in app.dfg.inputs}
        if compiled.run(streams, engine="decoded") != \
                run_reference(app.dfg, streams):
            wrong += 1
    return wrong


def run(seed: int, seconds: float, smoke: bool) -> dict:
    apps = make_inputs(seed, smoke)
    setup_probe(seed, smoke)
    first_ms: list[float] = []
    repeat_ms: list[float] = []
    calibration = Calibration()
    rounds = []
    failed = 0
    deadline = Deadline(seconds)
    while not rounds or not (smoke or deadline.expired):
        counts, programs, mismatches = one_round(apps, first_ms, repeat_ms,
                                                 calibration)
        failed += mismatches
        if not rounds:
            first_programs = programs
        rounds.append(counts)
        if smoke:
            break
    wall = deadline.elapsed - calibration.spent
    failed += reference_mismatches(apps, first_programs, seed)
    counts = check_repeats("compile_mix", rounds)
    attempted = len(first_ms) + len(repeat_ms)
    slowdown = calibration.slowdown()
    metrics, note = latency(first_ms, repeat_ms, slowdown)
    metrics["throughput_per_s"] = attempted / wall * slowdown
    metrics["peak_rss_mb"] = own_peak_rss_mb()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": [f"# {len(rounds)} rounds of {len(apps)} apps: "
                  f"{len(first_ms)} first compiles, {len(repeat_ms)} "
                  f"recompiles; exact counts per round {counts}",
                  calibration.note(), note],
    }


def run_traced(seed: int, smoke: bool) -> dict:
    apps = make_inputs(seed, smoke)
    setup_probe(seed, smoke)
    one_round(apps, [], [])  # warm-up, so neither timed side pays it
    pairs = 1 if smoke else TRACE_PAIRS
    ratio, obs, results, _ = traced_rounds(
        lambda: one_round(apps, [], []), pairs)
    counts = check_repeats("compile_mix", [r[0] for r in results])
    failed = sum(r[2] for r in results)
    failed += reference_mismatches(apps, results[0][1], seed)
    metrics = layer_metrics(obs.counters, obs.spans(), rounds=pairs)
    metrics["trace.overhead_ratio"] = ratio
    metrics["sched_cycles_sum"] = counts["sched_cycles_sum"]
    metrics["code_words_sum"] = counts["code_words_sum"]
    return {"correct": failed == 0, "attempted": 2 * len(apps) * pairs,
            "failed": failed, "metrics": metrics}
