"""Compile profiling: repeated cold, cached-cold and warm compiles, p50/p95.

The engine of the ``repro profile`` subcommand.  One profiled
application is compiled ``runs`` times in each of three regimes,
round-robin (one compile of each regime per round):
**cold** (no cache — every stage body executes), **cached_cold** (a
fresh in-memory stage cache per compile — every stage executes and
stores its snapshot, the first compile of a design iteration) and
**warm** (one shared in-memory stage cache, primed once — every stage
restores from the memory tier), with a live
:class:`~repro.obs.core.Telemetry` collecting the per-stage spans.
The result reports p50/p95/mean wall clock per stage and for the whole
compile, for every regime — the compiler-side analog of the
paper's section-7 cycle-count tables, and the trajectory CI guards in
``BENCH_compile_profile.json`` (see
``tools/check_profile_regression.py``).

Imports of the toolchain are deferred to call time: ``repro.obs`` is
the bottom of the dependency stack (every layer reports through it),
so this module must not pull the pipeline in at import time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .core import Telemetry, use_telemetry


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def _summarize(samples: dict[str, list[float]]) -> dict[str, dict[str, Any]]:
    return {
        name: {
            "n": len(values),
            "p50": round(percentile(values, 50), 6),
            "p95": round(percentile(values, 95), 6),
            "mean": round(sum(values) / len(values), 6),
        }
        for name, values in samples.items()
    }


#: The three regimes, in the order every round compiles them.
REGIMES = ("cold", "cached_cold", "warm")


def _timed_compile(toolchain, application, regime: str,
                   samples: dict[str, list[float]]) -> None:
    """Compile once, appending the per-stage (and total) durations
    harvested from the telemetry spans to ``samples``."""
    obs = Telemetry()
    with use_telemetry(obs):
        toolchain.compile(application)
    roots = obs.spans("compile")
    if not roots:  # pragma: no cover - compile always opens a root
        raise RuntimeError(f"no compile span recorded in {regime} run")
    root = roots[0]
    samples.setdefault("total", []).append(root.duration)
    for span in root.children:
        if span.name.startswith("stage:"):
            stage = span.name[len("stage:"):]
            samples.setdefault(stage, []).append(span.duration)


def profile_compile(
    application,
    core="audio",
    options=None,
    runs: int = 5,
) -> dict[str, Any]:
    """Profile one application's compile: cold, cached cold and warm.

    ``application`` is source text or a :class:`~repro.lang.dfg.Dfg`;
    ``core``/``options`` as in :class:`~repro.toolchain.Toolchain`.
    Cold runs use no cache at all; cached-cold runs each start from a
    fresh in-memory :class:`~repro.pipeline.session.StageCache`, so they
    measure executing plus storing every stage; warm runs share one
    cache primed by an uncounted compile, so they measure the restore
    path.  Each of ``runs`` rounds compiles once in every regime, in
    :data:`REGIMES` order.  Returns a JSON-able dict with ``cold``/
    ``cached_cold``/``warm`` maps of stage name (plus ``total``) to
    ``{n, p50, p95, mean}`` seconds.
    """
    from ..options import CompileOptions
    from ..pipeline.session import StageCache
    from ..toolchain import Toolchain

    if runs < 1:
        raise ValueError("runs must be >= 1")
    options = options if options is not None else CompileOptions()
    # The profile measures this process's compile work: the persistent
    # disk tier would make "cold" depend on yesterday's cache contents.
    options = options.replace(disk_cache=False)

    cold_toolchain = Toolchain(core, options, cache=None)
    warm_toolchain = Toolchain(core, options, cache=StageCache())
    warm_toolchain.compile(application)  # prime the cache, uncounted
    samples: dict[str, dict[str, list[float]]] = {r: {} for r in REGIMES}
    # Round-robin, one compile of each regime per round: drift of a
    # shared machine over the run then lands in every regime alike
    # instead of in the ratios between them.
    for _ in range(runs):
        fresh = cold_toolchain.replace(cache=StageCache())
        for regime, toolchain in zip(
                REGIMES, (cold_toolchain, fresh, warm_toolchain)):
            _timed_compile(toolchain, application, regime, samples[regime])

    name = getattr(application, "name", None)
    return {
        "application": name or "<source>",
        "core": cold_toolchain.core.name,
        "options": options.to_dict(),
        "runs": runs,
        "stages": [s for s in samples["cold"] if s != "total"],
        **{regime: _summarize(samples[regime]) for regime in REGIMES},
    }


def render_profile(result: dict[str, Any]) -> str:
    """The per-stage p50/p95 table of one :func:`profile_compile`."""
    labels = {"cold": "cold", "cached_cold": "cached", "warm": "warm"}
    header = (f"compile profile: {result['application']} on "
              f"{result['core']} ({result['runs']} runs per regime: "
              f"cold = uncached, cached = first compile through a fresh "
              f"cache, warm = cache primed)")
    columns = [f"{labels[r]} {q}" for r in REGIMES for q in ("p50", "p95")]
    rows = [header, "",
            f"{'stage':<10}" + "".join(f" {c:>10}" for c in columns)]
    rows.append("-" * len(rows[-1]))

    def cell(regime: str, stage: str, key: str) -> str:
        stats = result[regime].get(stage)
        return f"{stats[key] * 1e3:.3f} ms" if stats else "-"

    for stage in [*result["stages"], "total"]:
        rows.append(f"{stage:<10}" + "".join(
            f" {cell(regime, stage, q):>10}"
            for regime in REGIMES for q in ("p50", "p95")))
    cold_total = result["cold"]["total"]["p50"]
    cached_total = result["cached_cold"]["total"]["p50"]
    warm_total = result["warm"]["total"]["p50"]
    rows.append("")
    if cold_total > 0:
        rows.append(f"cached cold / cold (p50): "
                    f"{cached_total / cold_total:.2f}x")
    if warm_total > 0:
        rows.append(f"warm speedup (p50): {cold_total / warm_total:.1f}x")
    return "\n".join(rows)


def write_profile(result: dict[str, Any], path: str | Path) -> Path:
    """Write the profile JSON (``BENCH_compile_profile.json``)."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path
