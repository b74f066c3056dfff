#!/usr/bin/env python3
"""Fail CI when a simulator engine's speedup over the reference regresses.

Compares a fresh ``BENCH_sim.json`` (produced by
``benchmarks/test_bench_sim.py``) against the committed baseline
``benchmarks/sim_baseline.json``.

Absolute cycles/second is machine-dependent, so the guard compares
*speedups*: every engine's time is already normalized to the same
run's reference interpreter (``repro.run_reference`` over the same
stimulus), and that ratio survives slower or faster CI hardware.  An
engine whose speedup at some batch width fell below
``baseline / max-ratio`` fails.  Two engines must also clear an
absolute floor over the reference (the repo's acceptance thresholds):
the decoded engine at the narrowest batch ``--min-decoded-speedup``,
and the numpy engine at the widest batch ``--min-numpy-speedup``.

A (width, engine) pair missing from the baseline — a newly added
width or engine — is reported as informational, never a failure;
commit a refreshed baseline to start guarding it.  A record written
without numpy installed skips the numpy rows entirely.

Usage::

    python tools/check_sim_regression.py BENCH_sim.json \
        [--baseline benchmarks/sim_baseline.json] \
        [--max-ratio 4.0] [--min-decoded-speedup 2.0] \
        [--min-numpy-speedup 10.0]

Exits 0 when every speedup is within bounds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def speedups(record: dict) -> dict[tuple[str, str], float]:
    """(batch width, engine) -> speedup over that run's reference."""
    out: dict[tuple[str, str], float] = {}
    for width, engines in record.get("batch", {}).items():
        for engine, row in engines.items():
            value = row.get("speedup_vs_reference")
            if engine != "reference" and value is not None:
                out[(width, engine)] = value
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="compare a BENCH_sim.json record against the "
                    "committed engine-speedup baseline")
    parser.add_argument("record",
                        help="fresh bench JSON (benchmarks/test_bench_sim.py "
                             "writes BENCH_sim.json)")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent
                    / "benchmarks" / "sim_baseline.json"),
        help="committed baseline record (default: "
             "benchmarks/sim_baseline.json)")
    parser.add_argument("--max-ratio", type=float, default=4.0,
                        help="largest tolerated speedup shrink vs the "
                             "baseline (default 4.0)")
    parser.add_argument("--min-decoded-speedup", type=float, default=2.0,
                        help="absolute floor for the decoded engine's "
                             "speedup over the reference at the narrowest "
                             "batch (default 2.0)")
    parser.add_argument("--min-numpy-speedup", type=float, default=10.0,
                        help="absolute floor for the numpy engine's "
                             "speedup over the reference at the widest "
                             "batch (default 10.0)")
    args = parser.parse_args(argv[1:])

    current = json.loads(Path(args.record).read_text())
    baseline = json.loads(Path(args.baseline).read_text())

    current_speedups = speedups(current)
    baseline_speedups = speedups(baseline)

    problems: list[str] = []
    notes: list[str] = []
    for (width, engine), value in sorted(current_speedups.items()):
        base = baseline_speedups.get((width, engine))
        if base is None:
            notes.append(
                f"N={width} {engine}: no baseline speedup — refresh "
                f"benchmarks/sim_baseline.json to guard it")
            continue
        floor = base / args.max_ratio
        if value < floor:
            problems.append(
                f"N={width} {engine}: speedup over the reference fell to "
                f"{value:.1f}x (baseline {base:.1f}x, floor {floor:.1f}x "
                f"at --max-ratio {args.max_ratio:.1f})")

    widths = sorted(current.get("batch", {}), key=int)
    if widths:
        narrowest = widths[0]
        value = current_speedups.get((narrowest, "decoded"))
        if value is None:
            problems.append(
                f"N={narrowest}: the record has no decoded speedup")
        elif value < args.min_decoded_speedup:
            problems.append(
                f"N={narrowest} decoded: {value:.1f}x over the reference "
                f"is below the absolute "
                f"{args.min_decoded_speedup:.1f}x floor")
    if not current.get("numpy_available"):
        notes.append("record was produced without numpy; numpy rows "
                     "not checked")
    elif widths:
        widest = widths[-1]
        value = current_speedups.get((widest, "numpy"))
        if value is None:
            problems.append(
                f"N={widest}: numpy is available but the record has "
                f"no numpy speedup")
        elif value < args.min_numpy_speedup:
            problems.append(
                f"N={widest} numpy: {value:.1f}x over the reference "
                f"is below the absolute "
                f"{args.min_numpy_speedup:.1f}x floor")

    for note in notes:
        print(f"note: {note}")
    if problems:
        print(f"{len(problems)} simulator speedup regression(s) vs "
              f"{args.baseline}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"sim speedups ok: {len(current_speedups)} engine/width pairs "
          f"within {args.max_ratio:.1f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
