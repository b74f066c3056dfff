"""Cycle-budgeted priority list scheduling (paper, step 3 of figure 1b).

"The modifications insure that a scheduler only creates mcode
instructions by combining RTs that are physically possible and allowed
in the instruction set."  After RT modification the scheduler is a
*plain* resource-constrained list scheduler — it knows nothing about
instruction sets; it only respects the usage model.

Two priority regimes:

* **Critical path** (no budget): classic longest-path-to-sink order.
* **Deadline + resource criticality** (budget given): transfers are
  taken earliest-ALAP-first, but a transfer whose OPU has no slack left
  (remaining demand ≥ remaining cycles − margin) jumps the queue — a
  92%-occupied resource must almost never idle, which is exactly the
  regime of the paper's 63-of-64-cycle audio schedule.

With ``restarts > 0`` the scheduler re-runs over a small ladder of
margins and deterministic jitters and keeps the shortest result.  With
``minimize=True`` it then walks the budget down one cycle at a time
until scheduling fails, reporting the tightest feasible schedule (the
paper beats its 64-cycle budget by one).
"""

from __future__ import annotations

import random
from collections import Counter

from ..errors import BudgetExceededError, SchedulingError
from ..obs import current_telemetry
from ..rtgen.rt import RT
from .dependence import DependenceGraph, compute_priorities
from .interval import execution_intervals
from .schedule import ReservationTable, Schedule


def list_schedule(
    graph: DependenceGraph,
    budget: int | None = None,
    restarts: int = 8,
    seed: int = 0,
    lifetime_compaction: bool = True,
    minimize: bool = True,
) -> Schedule:
    """Schedule one block; raise :class:`BudgetExceededError` if no
    attempt meets ``budget``."""
    best = _best_for_budget(graph, budget, restarts, seed)
    if best is None:
        # Nothing met the budget: report how close the critical-path
        # heuristic gets.
        fallback = _run_critical_path(graph, None)
        raise BudgetExceededError(fallback.length, budget)
    if budget is not None and minimize:
        obs = current_telemetry()
        while best.length > _resource_bound(graph):
            obs.count("sched.list.tightenings")
            tighter = _best_for_budget(graph, best.length - 1, restarts, seed)
            if tighter is None:
                break
            best = tighter
        best.budget = budget
    if lifetime_compaction:
        best = compact_lifetimes(graph, best)
    return best


def _resource_bound(graph: DependenceGraph) -> int:
    counts = Counter(rt.opu for rt in graph.rts)
    return max(counts.values(), default=1)


def _best_for_budget(
    graph: DependenceGraph, budget: int | None, restarts: int, seed: int
) -> Schedule | None:
    """Shortest schedule over the attempt ladder, or None if the budget
    is never met."""
    rng = random.Random(seed)
    attempts: list[Schedule] = []

    def record(schedule: Schedule | None) -> bool:
        current_telemetry().count("sched.list.attempts")
        if schedule is None:
            return False
        attempts.append(schedule)
        return budget is None or schedule.length <= budget

    if budget is None:
        record(_run_critical_path(graph, None))
    else:
        try:
            done = False
            for margin in (0, 1, 2):
                if record(_run_deadline(graph, budget, margin, None)):
                    done = True
                    break
            if not done:
                record(_run_critical_path(graph, budget))
            if not done:
                for attempt in range(restarts):
                    jitter = {rt: rng.random() * 0.9 for rt in graph.rts}
                    if record(_run_deadline(graph, budget, attempt % 3, jitter)):
                        break
        except SchedulingError:
            # Interval analysis proved the budget infeasible outright.
            return None
    if not attempts:
        return None
    best = min(attempts, key=lambda s: s.length)
    if budget is not None and best.length > budget:
        return None
    best.budget = budget
    return best


def _scheduler_loop(
    graph: DependenceGraph,
    key,
    horizon: int,
    deadline: dict[RT, int] | None,
    on_place=None,
) -> Schedule | None:
    """The shared cycle-by-cycle greedy core of both regimes."""
    successors = graph.edges_out
    pending = {rt: len(graph.edges_in[rt]) for rt in graph.rts}
    ready = [rt for rt, n in pending.items() if n == 0]
    earliest = {rt: 0 for rt in graph.rts}
    bookings, spans = graph.bookings, graph.spans
    table = ReservationTable()
    cycle_of: dict[RT, int] = {}
    length = 0
    for cycle in range(horizon + 1):
        if len(cycle_of) == len(graph.rts):
            break
        # Bookings only grow within a cycle, so a transfer that did not
        # fit stays out until the next one; re-scans skip it.
        blocked: set[RT] = set()
        progress = True
        while progress:
            progress = False
            for rt in sorted(ready, key=lambda r: key(r, cycle)):
                if earliest[rt] > cycle or rt in blocked:
                    continue
                if deadline is not None and cycle > deadline[rt]:
                    return None
                booking = bookings[rt]
                if not table.fits(booking, cycle):
                    blocked.add(rt)
                    continue
                table.place(booking, cycle)
                cycle_of[rt] = cycle
                length = max(length, cycle + spans[rt])
                ready.remove(rt)
                if on_place is not None:
                    on_place(rt)
                for edge in successors[rt]:
                    pending[edge.dst] -= 1
                    earliest[edge.dst] = max(earliest[edge.dst], cycle + edge.delay)
                    if pending[edge.dst] == 0:
                        ready.append(edge.dst)
                progress = True
    if len(cycle_of) != len(graph.rts):
        return None
    return Schedule(cycle_of=cycle_of, length=length)


def _run_critical_path(
    graph: DependenceGraph, budget: int | None
) -> Schedule | None:
    priority = compute_priorities(graph)
    horizon = sum(max(1, rt.latency) for rt in graph.rts) + 1

    def key(rt: RT, cycle: int):
        return (-priority[rt], -len(rt.uses), rt.uid)

    schedule = _scheduler_loop(graph, key, horizon, None)
    if schedule is None:
        raise SchedulingError(
            "list scheduler exceeded its horizon; the conflict model is "
            "unsatisfiable"
        )
    return schedule


def _run_deadline(
    graph: DependenceGraph,
    budget: int,
    margin: int,
    jitter: dict[RT, float] | None,
) -> Schedule | None:
    intervals = execution_intervals(graph, budget)  # raises if infeasible
    critical = compute_priorities(graph)
    demand = Counter(rt.opu for rt in graph.rts)

    def key(rt: RT, cycle: int):
        remaining = budget - cycle
        forced = demand[rt.opu] >= remaining - margin
        alap = intervals[rt].alap + (jitter[rt] if jitter else 0)
        return (not forced, alap, -critical[rt], rt.uid)

    def on_place(rt: RT) -> None:
        demand[rt.opu] -= 1

    deadline = {rt: intervals[rt].alap for rt in graph.rts}
    return _scheduler_loop(graph, key, budget - 1, deadline, on_place)


def compact_lifetimes(graph: DependenceGraph, schedule: Schedule) -> Schedule:
    """Push every RT as late as possible without changing the length.

    Walking the transfers in decreasing issue cycle, each is moved to
    the latest conflict-free cycle that still satisfies its outgoing
    dependences.  Producers drift towards their consumers, shortening
    register lifetimes — important for the small distributed register
    files of the paper's cores.
    """
    successors = graph.edges_out
    cycle_of = dict(schedule.cycle_of)
    bookings, spans = graph.bookings, graph.spans
    table = ReservationTable()
    for rt, cycle in cycle_of.items():
        table.place(bookings[rt], cycle)

    for rt in sorted(cycle_of, key=lambda r: -cycle_of[r]):
        latest = schedule.length - spans[rt]
        for edge in successors[rt]:
            latest = min(latest, cycle_of[edge.dst] - edge.delay)
        current = cycle_of[rt]
        if latest <= current:
            continue
        booking = bookings[rt]
        table.remove(booking, current)
        target = current
        for candidate in range(latest, current, -1):
            if table.fits(booking, candidate):
                target = candidate
                break
        table.place(booking, target)
        cycle_of[rt] = target
    return Schedule(cycle_of=cycle_of, length=schedule.length,
                    budget=schedule.budget)
