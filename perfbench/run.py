#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile_mix --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed round untraced and the same round traced,
alternately, and reports the per-layer metrics plus
``trace.overhead_ratio``.  Times and rates of ``--trace 0`` are
calibrated against the machine's current speed (``calibrate.py``).
``--workload all`` runs every workload, each in its own process.
``--smoke`` shrinks every input so the whole matrix runs in seconds (the
smoke tests use it).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (name ->
value and unit).  Workloads, metrics and their meaning are listed in
``perfbench/README.md`` and ``perfbench/metrics.py``.

Exit codes: 0 done (check ``correct``), 2 untrustworthy run (e.g. a
nondeterministic exact count), 3 no ``src/repro`` in this checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time

import common
from calibrate import Calibration
from metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

#: Calibration samples a set-up probe takes before and after its set-up.
PROBE_SAMPLES = 15


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round (schema check only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process of its own, so set-up time and
    peak memory are per workload."""
    combined = {}
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        print(f"== {name}", flush=True)
        done = subprocess.run(command, cwd=common.ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"   {line}")
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 2
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def report(result: dict, trace: int) -> None:
    declared = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        raise common.BenchmarkError(
            f"metric set mismatch: missing {sorted(set(declared) - set(metrics))}"
            f", extra {sorted(set(metrics) - set(declared))}")
    for name in declared:
        print(f"{name:32s} {metrics[name]:>14.6g} {declared[name][0]}")
    for line in result.pop("notes", []):
        print(line)
    result["metrics"] = {name: {"value": float(metrics[name]),
                                "unit": declared[name][0]}
                         for name in declared}
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        # Kernel samples before and after the set-up bracket it in time.
        calibration = Calibration()
        for _ in range(PROBE_SAMPLES):
            calibration.sample()
        start = time.perf_counter()
        common.bootstrap()
        workload = importlib.import_module(args.workload)
        kept = workload.setup_probe(args.seed, args.smoke)
        elapsed = time.perf_counter() - start
        for _ in range(PROBE_SAMPLES):
            calibration.sample()
        print(elapsed / calibration.slowdown(), elapsed)
        if hasattr(kept, "stop"):
            kept.stop()
        return 0
    fence = common.bootstrap()
    if args.workload == "all":
        return run_all(args)
    workload = importlib.import_module(args.workload)
    try:
        if args.trace:
            result = workload.run_traced(args.seed, args.smoke)
        else:
            result = workload.run(args.seed, args.seconds, args.smoke)
            setup_s, raw = common.measure_setup(args.workload, args.seed,
                                                args.smoke)
            result["metrics"]["setup_s"] = setup_s
            result["notes"].append(f"# raw setup_s {raw:.4f}")
        common.check_default_cache_untouched(fence)
        report(result, args.trace)
    except common.BenchmarkError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
