#!/usr/bin/env python3
"""Fail CI when a pipeline stage's share of compile time regresses.

Compares a fresh ``repro profile`` record (``BENCH_compile_profile.json``,
produced by ``python -m repro profile --app audio --out ...``) against
the committed baseline ``benchmarks/compile_profile_baseline.json``.

Absolute wall clock is machine-dependent, so the guard is *normalized*:
for each regime (``cold``, ``cached_cold``, ``warm``) every stage's p50
is divided by
that regime's total p50, and the resulting *share* is compared to the
baseline's share.  A stage whose share grew by more than ``--max-ratio``
(default 3×) fails — that shape change survives hardware differences,
while a uniformly slower CI runner does not trip it.

Two more guards compare regimes of the same record against the
uncached ``cold`` total p50:

* when the warm total p50 exceeds :data:`MAX_WARM_RATIO` (0.25) times
  it, the stage cache no longer pays for itself on a recompile;
* when the cached-cold total p50 — the first compile through a fresh
  stage cache, which executes and stores every stage — exceeds
  :data:`MAX_CACHED_COLD_RATIO` (1.8) times it, storing snapshots has
  become too dear for a design loop whose every resized core misses.

All totals of one record come from one run on one machine, so these
ratios are machine-independent too.

Two noise guards on the share check:

* stages whose current p50 is below ``--min-seconds`` (default 2 ms)
  never fail — at sub-millisecond durations the share is timer noise;
* a stage missing from the baseline (a newly added pipeline stage)
  is reported as informational, never a failure — commit a refreshed
  baseline to start guarding it.

Usage::

    python tools/check_profile_regression.py BENCH_compile_profile.json \
        [--baseline benchmarks/compile_profile_baseline.json] \
        [--max-ratio 3.0] [--min-seconds 0.002]

Exits 0 when every stage's share and both regime ratios are within
bounds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REGIMES = ("cold", "cached_cold", "warm")

#: Largest tolerated warm/cold total p50 ratio of one record.
MAX_WARM_RATIO = 0.25

#: Largest tolerated cached-cold/cold total p50 ratio of one record.
MAX_CACHED_COLD_RATIO = 1.8


def shares(regime: dict[str, dict[str, float]]) -> dict[str, float]:
    """Stage -> p50 share of the regime's total p50."""
    total = regime["total"]["p50"]
    if total <= 0.0:
        return {}
    return {
        stage: stats["p50"] / total
        for stage, stats in regime.items()
        if stage != "total"
    }


def check_regime(
    name: str,
    current: dict[str, dict[str, float]],
    baseline: dict[str, dict[str, float]],
    max_ratio: float,
    min_seconds: float,
    problems: list[str],
    notes: list[str],
) -> None:
    current_shares = shares(current)
    baseline_shares = shares(baseline)
    for stage, share in sorted(current_shares.items()):
        if stage not in baseline_shares:
            notes.append(
                f"{name}: stage {stage!r} has no baseline share — "
                f"refresh benchmarks/compile_profile_baseline.json to "
                f"guard it"
            )
            continue
        if current[stage]["p50"] < min_seconds:
            continue  # sub-noise-floor absolute time: share is noise
        base = baseline_shares[stage]
        if base <= 0.0:
            continue
        ratio = share / base
        if ratio > max_ratio:
            problems.append(
                f"{name}: stage {stage!r} share of total p50 grew "
                f"{ratio:.1f}x (baseline {base:.1%} -> now {share:.1%}, "
                f"p50 {current[stage]['p50'] * 1e3:.2f} ms) — "
                f"limit {max_ratio:.1f}x"
            )


def check_warm_ratio(current: dict, max_warm_ratio: float,
                     problems: list[str]) -> None:
    """Fail when the warm total p50 exceeds ``max_warm_ratio`` times
    the cold total p50 of the same record."""
    cold = current["cold"]["total"]["p50"]
    warm = current["warm"]["total"]["p50"]
    if cold <= 0.0:
        return
    ratio = warm / cold
    if ratio > max_warm_ratio:
        problems.append(
            f"warm total p50 {warm * 1e3:.2f} ms is {ratio:.2f}x the cold "
            f"total p50 {cold * 1e3:.2f} ms — limit {max_warm_ratio:.2f}x "
            f"(a warm recompile must beat recomputing)"
        )


def check_cached_cold_ratio(current: dict, max_ratio: float,
                            problems: list[str]) -> None:
    """Fail when the first compile through a fresh cache (total p50)
    exceeds ``max_ratio`` times an uncached one of the same record."""
    cold = current["cold"]["total"]["p50"]
    cached = current["cached_cold"]["total"]["p50"]
    if cold <= 0.0:
        return
    ratio = cached / cold
    if ratio > max_ratio:
        problems.append(
            f"cached-cold total p50 {cached * 1e3:.2f} ms is {ratio:.2f}x "
            f"the cold total p50 {cold * 1e3:.2f} ms — limit "
            f"{max_ratio:.2f}x (storing stage snapshots must stay cheap "
            f"next to compiling)"
        )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="compare a repro profile record against the "
                    "committed per-stage baseline")
    parser.add_argument("profile",
                        help="fresh profile JSON (repro profile --out ...)")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent
                    / "benchmarks" / "compile_profile_baseline.json"),
        help="committed baseline record (default: "
             "benchmarks/compile_profile_baseline.json)")
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help="largest tolerated share growth (default 3.0)")
    parser.add_argument("--min-seconds", type=float, default=0.002,
                        help="stages faster than this never fail "
                             "(default 0.002)")
    args = parser.parse_args(argv[1:])

    current = json.loads(Path(args.profile).read_text())
    baseline = json.loads(Path(args.baseline).read_text())

    problems: list[str] = []
    notes: list[str] = []
    for regime in REGIMES:
        check_regime(regime, current[regime], baseline[regime],
                     args.max_ratio, args.min_seconds, problems, notes)
    check_warm_ratio(current, MAX_WARM_RATIO, problems)
    check_cached_cold_ratio(current, MAX_CACHED_COLD_RATIO, problems)

    for note in notes:
        print(f"note: {note}")
    if problems:
        print(f"{len(problems)} profile regression(s) vs "
              f"{args.baseline}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    checked = sum(
        1 for regime in REGIMES
        for stage in current[regime] if stage != "total"
    )
    print(f"profile shares ok: {checked} stage regimes within "
          f"{args.max_ratio:.1f}x of baseline; warm/cold total within "
          f"{MAX_WARM_RATIO:.2f}x; cached-cold/cold total within "
          f"{MAX_CACHED_COLD_RATIO:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
