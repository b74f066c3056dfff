"""Shared plumbing of the benchmark: bootstrap, statistics, isolation.

Everything here is independent of the compiler under test except
:func:`bootstrap`, which puts the checkout's ``src/`` on the import
path.  Nothing imports ``repro`` at module level, so a setup probe can
start its clock before the first ``import repro``.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Every file a run writes lives below this directory of the checkout.
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result (exit code 2)."""


def bootstrap() -> Path:
    """Make ``repro`` importable from the checkout and fence the caches.

    Points ``$REPRO_CACHE_DIR`` at a fresh directory of the run's own
    scratch area, so no code path can read or write the user's
    ``~/.cache/repro`` or an inherited ``$REPRO_CACHE_DIR``.  Every
    toolchain of the benchmark names its cache explicitly, so that
    directory must still not exist when the run ends
    (:func:`check_default_cache_untouched`).
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        raise SystemExit(3)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)
    fence = SCRATCH / f"default-cache-{os.getpid()}"
    os.environ["REPRO_CACHE_DIR"] = str(fence)
    os.environ.pop("REPRO_SIM_ENGINE", None)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return fence


def check_default_cache_untouched(fence: Path) -> None:
    if fence.exists():
        raise BenchmarkError(
            f"a toolchain fell back to the default cache placement "
            f"({fence}); runs must not share a cache")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise BenchmarkError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets (``VmHWM``) of ``pid`` and its
    direct children, read from ``/proc`` while they are alive."""
    total = 0.0
    pids = [pid]
    children = Path(f"/proc/{pid}/task/{pid}/children")
    if children.exists():
        pids += [int(p) for p in children.read_text().split()]
    for member in pids:
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) / 1024.0
    return total


def measure_setup(workload: str, seed: int,
                  smoke: bool) -> tuple[float, float]:
    """Median calibrated and median raw wall time of
    :data:`SETUP_REPEATS` set-ups, each in a fresh interpreter
    (``run.py --setup-probe``) so import cost counts."""
    samples = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--setup-probe"]
        if smoke:
            command.append("--smoke")
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0:
            raise BenchmarkError(
                f"setup probe failed: {done.stderr.strip()[-2000:]}")
        samples.append([float(value) for value
                        in done.stdout.strip().splitlines()[-1].split()])
    return (median([calibrated for calibrated, _ in samples]),
            median([raw for _, raw in samples]))


def latency(op_ms: list[float], repeat_ms: list[float],
            slowdown: float) -> tuple[dict[str, float], str]:
    """The calibrated median metrics of a run's two operation kinds,
    and a note with the raw medians, 90th percentiles and counts."""
    metrics = {"op_ms_p50": median(op_ms) / slowdown,
               "repeat_ms_p50": median(repeat_ms) / slowdown}
    note = (f"# raw op_ms_p50 {median(op_ms):.3f}, raw op_ms_p90 "
            f"{percentile(op_ms, 90):.3f} (n={len(op_ms)}); raw "
            f"repeat_ms_p50 {median(repeat_ms):.3f}, raw repeat_ms_p90 "
            f"{percentile(repeat_ms, 90):.3f} (n={len(repeat_ms)})")
    return metrics, note


def stratified_spec(index: int, ops=None):
    """The generator spec of the ``index``-th generated application: op
    counts cycle through 4..13, so every seed draws the same mix of
    sizes and only the graphs' structure varies with the seed."""
    from repro import GenSpec

    size = 4 + index % 10
    return GenSpec(min_ops=size, max_ops=size, ops=ops)


class Deadline:
    """The measured window of a run: ``seconds`` from construction."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds

    @property
    def expired(self) -> bool:
        return time.perf_counter() - self.start >= self.seconds

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def check_repeats(label: str, rounds: list[dict]) -> dict:
    """Exact counts must repeat across rounds of one seed; a mismatch
    means the compiler is nondeterministic and fails the run loudly."""
    first = rounds[0]
    for index, other in enumerate(rounds[1:], start=1):
        if other != first:
            raise BenchmarkError(
                f"{label}: exact counts differ between round 0 and round "
                f"{index} of the same seed: {first} != {other}")
    return first
