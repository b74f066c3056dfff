"""The benchmark's metric catalogue: names, units, direction, meaning.

``BENCHMARK.json`` at the checkout root declares the same names, units
and directions (a smoke test keeps the two in lockstep).  The catalogue
adds what the JSON schema has no room for: what each end-to-end metric
means on each workload, and which end-to-end metric (on which
workload) each per-layer metric should move.
"""

from __future__ import annotations

#: How long one run measures, in seconds (``run.py --seconds``).
RUN_SECONDS = 20

#: Workload name -> why it is in the benchmark (one line each).
WORKLOADS: dict[str, str] = {
    "compile_mix": "all eight stages and the stage cache work (first "
                   "compiles, warm and prefix-hit recompiles) on small "
                   "builtin cores; arch, sim and serve are bypassed",
    "explore_grid": "synthesized cores with 9-13 RT classes make core "
                    "(closure, impose) and arch dominate; encode, sim and "
                    "serve are bypassed",
    "sim_batch": "sim (decode and both engines) does all the work and the "
                 "compiler none: the no-change workload for every "
                 "compile-side optimization",
    "serve_jobs": "the only workload through serve (HTTP, queue, process "
                  "workers) and cross-process disk-cache restores, as an "
                  "open loop at a fixed rate",
}

#: End-to-end metrics: name -> (unit, better, bound, meaning per workload).
END_TO_END: dict[str, tuple[str, str, float, dict[str, str]]] = {
    "setup_s": ("s", "lower", 0.25, {
        "compile_mix": "import, core resolution, toolchain construction, "
                       "priming compile (audio -O0 budget 64)",
        "explore_grid": "import, toolchain construction, priming sweep of "
                        "the (1,1,1) candidate",
        "sim_batch": "import, compiling fir8/audio/lms, priming runs on "
                     "both engines",
        "serve_jobs": "import, starting the server until /v1/health "
                      "answers, priming job (fir8 as source)",
    }),
    "op_ms_p50": ("ms", "lower", 0.25, {
        "compile_mix": "first compile through an empty two-tier cache",
        "explore_grid": "one candidate evaluation of a cold sweep "
                        "(synthesize, then 3 apps through regalloc): the "
                        "median over the 8 candidates of each one's median "
                        "time",
        "sim_batch": "one 256-lane run on the numpy engine",
        "serve_jobs": "fresh source: time from due to result at the "
                      "fixed rate",
    }),
    "repeat_ms_p50": ("ms", "lower", 0.25, {
        "compile_mix": "recompile: warm hit, or prefix hit through impose "
                       "after a schedule-stage option change",
        "explore_grid": "re-sweep of the whole grid through the warm memo",
        "sim_batch": "one single-lane run on the decoded engine",
        "serve_jobs": "re-submitted source: time from due to result",
    }),
    "throughput_per_s": ("1/s", "higher", 0.25, {
        "compile_mix": "compiles (first and re-) completed per second of "
                       "the closed loop",
        "explore_grid": "cold candidates evaluated per second",
        "sim_batch": "lane-cycles per second on the numpy engine at 256 "
                     "lanes",
        "serve_jobs": "service capacity: workers over the mean worker "
                      "time of a job",
    }),
    "peak_rss_mb": ("MB", "lower", 0.1, {
        "compile_mix": "peak resident memory of the workload process",
        "explore_grid": "peak resident memory of the workload process",
        "sim_batch": "peak resident memory of the workload process",
        "serve_jobs": "peak resident memory of the client plus the "
                      "server and its workers",
    }),
}

_COMPILE = "op_ms_p50 @ compile_mix"
_RECOMPILE = "repeat_ms_p50 @ compile_mix"
_BOTH = "op_ms_p50 @ compile_mix; op_ms_p50, throughput_per_s @ explore_grid"
_SWEEP = "op_ms_p50, throughput_per_s @ explore_grid"
_SIM = "op_ms_p50, repeat_ms_p50, throughput_per_s @ sim_batch"
_SERVE = "op_ms_p50, repeat_ms_p50, throughput_per_s @ serve_jobs"

STAGES = ("parse", "optimize", "rtgen", "merge", "impose", "schedule",
          "regalloc", "assemble")

#: Per-layer metrics: name -> (unit, better, the end-to-end metric and
#: workload it should move).
PER_LAYER: dict[str, tuple[str, str, str]] = {}
for _stage in STAGES:
    PER_LAYER[f"stage.{_stage}.exec_ms"] = ("ms", "lower", _COMPILE)
    PER_LAYER[f"stage.{_stage}.restore_ms"] = ("ms", "lower", _RECOMPILE)
PER_LAYER.update({
    "lang.parse_ms": ("ms", "lower", _COMPILE),
    "opt.optimize_ms": ("ms", "lower", _COMPILE),
    "rtgen.generate_ms": ("ms", "lower", _COMPILE),
    "rtgen.copies_inserted": ("count", "lower", _COMPILE),
    "core.closure_ms": ("ms", "lower", _SWEEP),
    "core.instruction_types": ("count", "lower", _SWEEP),
    "core.rt_classes": ("count", "lower", _SWEEP),
    "core.violations_ms": ("ms", "lower", _SWEEP),
    "core.impose_ms": ("ms", "lower", _SWEEP),
    "sched.depgraph_ms": ("ms", "lower", _BOTH),
    "sched.list_ms": ("ms", "lower", _BOTH),
    "sched.list.attempts": ("count", "lower", _BOTH),
    "sched.regalloc_ms": ("ms", "lower", _BOTH),
    "encode.assemble_ms": ("ms", "lower", _COMPILE),
    "pipeline.lookup_ms": ("ms", "lower", "op_ms_p50, repeat_ms_p50 @ "
                                          "compile_mix"),
    "pipeline.store_ms": ("ms", "lower", _COMPILE),
    "stagecache.hit": ("count", "higher", _RECOMPILE),
    "stagecache.miss": ("count", "lower", _COMPILE),
    "pipeline.hit_ratio": ("ratio", "higher", _RECOMPILE),
    "backend.get_ms": ("ms", "lower", "repeat_ms_p50 @ serve_jobs"),
    "backend.put_ms": ("ms", "lower", "op_ms_p50 @ serve_jobs"),
    "diskcache.hit": ("count", "higher", "repeat_ms_p50 @ serve_jobs"),
    "diskcache.store": ("count", "lower", "op_ms_p50 @ serve_jobs"),
    "arch.synthesize_ms": ("ms", "lower", _SWEEP),
    "arch.candidate_ms": ("ms", "lower", _SWEEP),
    "explore.candidates": ("count", "lower", _SWEEP),
    "explore.sweep_s": ("s", "lower", _SWEEP),
    "sim.decode_ms": ("ms", "lower", _SIM),
    "sim.batch_run_ms": ("ms", "lower", "op_ms_p50, throughput_per_s @ "
                                        "sim_batch"),
    "sim.single_run_ms": ("ms", "lower", "repeat_ms_p50 @ sim_batch"),
    "sim.cycles": ("count", "lower", _SIM),
    "sim.batch_width": ("count", "higher", "throughput_per_s @ sim_batch"),
    "sim.batch_lane_cycles_per_s": ("1/s", "higher",
                                    "throughput_per_s @ sim_batch"),
    "sim.single_cycles_per_s": ("1/s", "higher", "repeat_ms_p50 @ sim_batch"),
    "serve.queue_wait_ms_p50": ("ms", "lower", _SERVE),
    "serve.queue_wait_ms_p99": ("ms", "lower", _SERVE),
    "serve.worker_ms": ("ms", "lower", _SERVE),
    "serve.overhead_ms": ("ms", "lower", _SERVE),
    "serve.rejections": ("count", "lower", _SERVE),
    "serve.timeouts": ("count", "lower", _SERVE),
    "serve.jobs_per_s_max": ("1/s", "higher", _SERVE),
    "gen.late_ms_p99": ("ms", "lower", "op_ms_p50 @ serve_jobs (health of "
                                       "the open-loop generator)"),
    "trace.overhead_ratio": ("ratio", "lower", "none (health: traced / "
                                               "untraced time of one round)"),
    "sched_cycles_sum": ("cycles", "lower", "exact quality count of every "
                                            "compiling workload"),
    "code_words_sum": ("words", "lower", "exact quality count of "
                                         "compile_mix, sim_batch, "
                                         "serve_jobs"),
})
del _stage


def manifest() -> dict:
    """The ``BENCHMARK.json`` this catalogue implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound, _)
                       in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better, _) in PER_LAYER.items()],
    }


def describe() -> str:
    """The catalogue as text: each end-to-end metric's meaning per
    workload, and what each per-layer metric should move."""
    lines = ["End-to-end metrics (unit, better, bound):"]
    for name, (unit, better, bound, meaning) in END_TO_END.items():
        lines.append(f"  {name} ({unit}, {better}, {bound})")
        lines += [f"    {workload}: {text}"
                  for workload, text in meaning.items()]
    lines.append("Per-layer metrics (unit, better) -> what they should move:")
    lines += [f"  {name} ({unit}, {better}) -> {moves}"
              for name, (unit, better, moves) in PER_LAYER.items()]
    return "\n".join(lines)


if __name__ == "__main__":
    print(describe())
