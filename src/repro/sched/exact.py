"""Exact cycle-budgeted scheduling by branch and bound.

The scheduler the paper's future-work section sketches: branch on the
cycle of one transfer at a time, propagate execution intervals
(:mod:`repro.sched.interval`) and prune with the Timmer/Jess bipartite
matching feasibility check (:mod:`repro.sched.bipartite`).  Exponential
in the worst case; intended for small blocks and as a certainty anchor
for the heuristic schedulers in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BudgetExceededError, SchedulingError
from ..rtgen.rt import RT
from .bipartite import exclusive_groups_by_opu, resource_feasible
from .dependence import DependenceGraph
from .interval import ExecutionInterval, execution_intervals, tighten_with_decision
from .schedule import ReservationTable, Schedule


@dataclass
class ExactSchedulerStats:
    nodes_visited: int = 0
    prunes_interval: int = 0
    prunes_matching: int = 0
    prunes_resource: int = 0


def exact_schedule(
    graph: DependenceGraph,
    budget: int,
    max_nodes: int = 200_000,
    use_matching_pruning: bool = True,
) -> tuple[Schedule, ExactSchedulerStats]:
    """Find *some* schedule within ``budget`` or prove there is none.

    Raises
    ------
    BudgetExceededError
        When the search space is exhausted without a feasible schedule.
    SchedulingError
        When ``max_nodes`` search nodes were visited without an answer
        (the instance is too large for exact search).
    """
    try:
        intervals = execution_intervals(graph, budget)
    except SchedulingError as exc:
        raise BudgetExceededError(budget + 1, budget) from exc

    groups = exclusive_groups_by_opu(graph.rts)
    stats = ExactSchedulerStats()
    table = ReservationTable()
    bookings = graph.bookings
    assignment: dict[RT, int] = {}

    def pick_next(current: dict[RT, ExecutionInterval]) -> RT | None:
        """Most-constrained-first: smallest remaining interval."""
        unassigned = [rt for rt in graph.rts if rt not in assignment]
        if not unassigned:
            return None
        return min(unassigned, key=lambda rt: (current[rt].width, rt.uid))

    def search(current: dict[RT, ExecutionInterval]) -> bool:
        stats.nodes_visited += 1
        if stats.nodes_visited > max_nodes:
            raise SchedulingError(
                f"exact scheduler gave up after {max_nodes} nodes; "
                f"use the list scheduler for blocks this large"
            )
        rt = pick_next(current)
        if rt is None:
            return True
        window = current[rt]
        for cycle in range(window.asap, window.alap + 1):
            if not table.fits(bookings[rt], cycle):
                stats.prunes_resource += 1
                continue
            tightened = tighten_with_decision(current, graph, rt, cycle)
            if tightened is None:
                stats.prunes_interval += 1
                continue
            if use_matching_pruning and not resource_feasible(tightened, groups):
                stats.prunes_matching += 1
                continue
            table.place(bookings[rt], cycle)
            assignment[rt] = cycle
            if search(tightened):
                return True
            table.remove(bookings[rt], cycle)
            del assignment[rt]
        return False

    if not resource_feasible(intervals, groups):
        raise BudgetExceededError(budget + 1, budget)
    if not search(intervals):
        raise BudgetExceededError(budget + 1, budget)

    length = max(cycle + graph.spans[rt] for rt, cycle in assignment.items())
    schedule = Schedule(cycle_of=dict(assignment), length=length, budget=budget)
    schedule.validate(graph)
    return schedule, stats
