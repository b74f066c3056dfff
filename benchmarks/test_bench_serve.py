"""Experiment: what serving a compile costs over compiling it locally.

The paper's design loop (retarget, compile, read the cycle count,
repeat) also runs through ``repro serve``, where every job is one call
of :func:`repro.serve.execute_compile_job` in a worker.  This bench
runs that function in this process, as a worker would, over generated
fir-core applications drawn the way the ``serve_jobs`` workload draws
them, and divides by the same compile through one bound, disk-cached
:class:`~repro.Toolchain`:

* ``served_fresh_per_compile`` — a job on a source nothing has
  compiled, over a first ``compile`` of it;
* ``served_repeat_per_warm`` — a re-submitted job, over a warm
  ``compile`` of the same source.

Each round gives the job and the toolchain their own fresh cache
directory and times both on every source, alternating which goes
first, so drift on a shared machine hits both alike.  A ratio is the
median over rounds of (median job time / median compile time).
Results land in ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import time
from pathlib import Path

from repro import CompileOptions, GenSpec, Toolchain, generate_dfg
from repro.errors import ReproError
from repro.lang.emit import emit_source
from repro.serve import execute_compile_job
from repro.serve.protocol import job_payload

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: Generated applications per round, and rounds.
SOURCES = 30
ROUNDS = 5

#: Upper bounds on each ratio.  Measured on a shared 2-CPU box
#: (Python 3.11): while every job resolved and bound its core again
#: and started with an empty memory tier, fresh 1.45-1.47x and repeat
#: 2.64-2.66x; with the core bound once per worker and the memory tier
#: kept, fresh about 1.1x and repeat about 1.3x.
MAX_RATIO = {
    "served_fresh_per_compile": 1.25,
    "served_repeat_per_warm": 1.8,
}


def fir_sources(seed: int, count: int) -> list[str]:
    """``count`` generated applications that compile on the fir core
    (op counts cycling through 4..13, as ``serve_jobs`` draws them)."""
    rng = random.Random(seed)
    toolchain = Toolchain("fir", cache=None)
    sources: list[str] = []
    while len(sources) < count:
        case = rng.randrange(1 << 30)
        size = 4 + len(sources) % 10
        source = emit_source(generate_dfg(
            GenSpec(min_ops=size, max_ops=size), case, name=f"gen_{case}"))
        try:
            toolchain.compile(source)
        except ReproError:
            continue
        sources.append(source)
    return sources


def timed(function, *args) -> float:
    start = time.perf_counter()
    function(*args)
    return time.perf_counter() - start


def one_round(sources: list[str], job_dir: Path, compile_dir: Path
              ) -> dict[str, float]:
    """Median seconds of a fresh job, a first compile, a repeated job
    and a warm compile over ``sources``."""
    job_options = CompileOptions(cache_dir=str(job_dir))
    toolchain = Toolchain("fir", CompileOptions(cache_dir=str(compile_dir)))
    payloads = [job_payload(source, "fir", job_options, None, None)
                for source in sources]
    samples: dict[str, list[float]] = {
        "fresh_job": [], "compile": [], "repeat_job": [], "warm": []}
    for phase, (job, compile_) in enumerate(
            (("fresh_job", "compile"), ("repeat_job", "warm"))):
        for index, (source, payload) in enumerate(zip(sources, payloads)):
            pair = [(job, execute_compile_job, payload),
                    (compile_, toolchain.compile, source)]
            if (index + phase) % 2:
                pair.reverse()
            for name, function, argument in pair:
                samples[name].append(timed(function, argument))
    return {name: statistics.median(values)
            for name, values in samples.items()}


def test_bench_serve(tmp_path):
    sources = fir_sources(seed=1, count=SOURCES)
    # Every job must succeed, bit-identical to the local compile.
    options = CompileOptions(cache_dir=str(tmp_path / "check"))
    local = Toolchain("fir", cache=None)
    for source in sources[:3]:
        report = execute_compile_job(
            job_payload(source, "fir", options, None, None))
        assert report["ok"], report.get("error")
        assert report["result"]["program"]["words"] == \
            [hex(word) for word in local.compile(source).binary.words]

    rounds = [one_round(sources, tmp_path / f"job{r}",
                        tmp_path / f"compile{r}") for r in range(ROUNDS)]
    ratios = {
        "served_fresh_per_compile": [r["fresh_job"] / r["compile"]
                                     for r in rounds],
        "served_repeat_per_warm": [r["repeat_job"] / r["warm"]
                                   for r in rounds],
    }
    ratio = {name: statistics.median(values)
             for name, values in ratios.items()}
    RESULTS_PATH.write_text(json.dumps({
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "sources": SOURCES,
        "rounds": [{name: round(1e3 * seconds, 4)
                    for name, seconds in r.items()} for r in rounds],
        "rounds_unit": "ms (median per round)",
        "ratios": {
            name: {"median": round(ratio[name], 3),
                   "rounds": [round(v, 3) for v in ratios[name]],
                   "max": MAX_RATIO[name]}
            for name in ratio},
    }, indent=2) + "\n")
    print()
    for name in ratio:
        print(f"  {name:<26} {ratio[name]:5.2f}x (max {MAX_RATIO[name]}x)")

    for name, bound in MAX_RATIO.items():
        assert ratio[name] <= bound, (
            f"{name}: {ratio[name]:.2f}x (bound {bound}x)")
