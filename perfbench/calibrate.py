"""How fast the machine runs while a workload is measured.

The benchmark's machines are shared: the same work can take half as
long again from one minute to the next.  So workloads time two fixed
kernels between their operations, off the clock, and report every time
divided (every rate multiplied) by the window's *slowdown*: the
geometric mean, over the two kernels, of the median kernel time over
its reference, raised to :data:`SENSITIVITY`.  Results read as on the
reference machine.  Two kernels, because cache-resident and
memory-bound work slow down by different factors when the machine is
busy.

The kernels run in the workload's own process because only there do
they see the CPU the workload sees: a separate process sampling the
same kernels is scheduled on another virtual CPU, whose speed does not
follow the workload's (on the baseline machine it doubled the spread
of the calibrated metrics instead of halving it).  What they must not
see is the workload's heap, so :func:`time_kernels` runs them with the
garbage collector off (a bigger or more garbage-laden heap cannot slow
them through collections) and runs the memory kernel once untimed
first (the cache state the workload left behind does not count).  The
kernels import no code of the repository.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time

#: Reference time of each kernel, roughly its median on the 2-vCPU
#: virtual machine the baseline was recorded on (Python 3.11); a
#: slowdown of 1 means that speed.
REFERENCE_MS = {"cpu": 1.5, "memory": 2.5}
#: How strongly the workloads follow the kernels: a machine state that
#: slows the kernels by a factor k slows them by about k ** SENSITIVITY.
#: Fitted on the baseline machine, where this exponent gave the least
#: spread over seeds, summed over every workload's calibrated medians
#: (1.0 over-corrected in its noisier phases).
SENSITIVITY = 0.7
#: Minimum gap between two samples of :meth:`Calibration.tick`.
INTERVAL_S = 0.1
#: A window with fewer samples is topped up when it is read.
MIN_SAMPLES = 30


def cpu_kernel() -> int:
    """Cache-resident interpreter work: dict updates, a sort, integer
    arithmetic."""
    table: dict[int, int] = {}
    for i in range(6000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
    return sum(k * v for k, v in sorted(table.items())[:50])


def memory_data() -> tuple[set, list]:
    """The memory kernel's working set: 20000 frozensets and 2000
    probes."""
    rng = random.Random(7)
    pool = [frozenset(rng.sample(range(48), 4)) for _ in range(20000)]
    probes = [(pool[rng.randrange(len(pool))], rng.randrange(48))
              for _ in range(2000)]
    return set(pool), probes


def memory_kernel(data: tuple[set, list]) -> int:
    """Allocation- and lookup-heavy work on a working set of several MB:
    frozenset unions and differences probed against a large set of
    frozensets."""
    universe, probes = data
    hits = 0
    for members, extra in probes:
        hits += (members | {extra}) in universe
        hits += (members - {extra}) in universe
    return hits


def time_kernels(data: tuple[set, list]) -> dict[str, float]:
    """One timed run of each kernel, in seconds, with the garbage
    collector off; every object a kernel allocates dies by reference
    count, so the workload's collection schedule is unchanged."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        memory_kernel(data)
        times = {}
        for name, kernel in (("cpu", cpu_kernel),
                             ("memory", lambda: memory_kernel(data))):
            start = time.perf_counter()
            kernel()
            times[name] = time.perf_counter() - start
        return times
    finally:
        if enabled:
            gc.enable()


def combined_slowdown(kernels: dict[str, float]) -> float:
    """The geometric mean of the kernels' slowdowns, raised to
    :data:`SENSITIVITY`."""
    return math.prod(kernels.values()) ** (SENSITIVITY / len(kernels))


def slowdowns(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each kernel's median time (seconds) over its reference."""
    return {name: statistics.median(times) * 1e3 / REFERENCE_MS[name]
            for name, times in samples.items()}


def slowdown_note(kernels: dict[str, float], samples: int) -> str:
    return (f"# machine slowdown {combined_slowdown(kernels):.4f} ("
            + ", ".join(f"{name} {value:.4f}"
                        for name, value in kernels.items())
            + f"; {samples} samples)")


class Calibration:
    """The kernel samples of one measured window.

    Workloads call :meth:`tick` between operations; it samples at most
    every :data:`INTERVAL_S`.  :attr:`spent` is the time the samples
    took, for rates computed over wall time.
    """

    def __init__(self):
        self._data = memory_data()
        self.samples: dict[str, list[float]] = {"cpu": [], "memory": []}
        self.spent = 0.0
        self._last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        for name, seconds in time_kernels(self._data).items():
            self.samples[name].append(seconds)
        self._last = time.perf_counter()
        self.spent += self._last - start

    def kernel_slowdowns(self) -> dict[str, float]:
        while len(self.samples["cpu"]) < MIN_SAMPLES:
            self.sample()
        return slowdowns(self.samples)

    def slowdown(self) -> float:
        return combined_slowdown(self.kernel_slowdowns())

    def note(self) -> str:
        return slowdown_note(self.kernel_slowdowns(),
                             len(self.samples["cpu"]))
