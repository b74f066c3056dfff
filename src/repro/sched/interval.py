"""Execution interval analysis (paper, section 8 / Timmer & Jess [11]).

"A promising technique is being developed using execution interval
analysis to prune the search space of the scheduler."

Given a cycle budget, every RT gets an execution interval
``[ASAP, ALAP]`` from longest-path analysis over the dependence graph.
Empty intervals prove infeasibility outright; tight intervals prune the
exact scheduler's branching and drive the bipartite matching check of
:mod:`repro.sched.bipartite`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulingError
from ..rtgen.rt import RT
from .dependence import DependenceGraph


@dataclass(frozen=True)
class ExecutionInterval:
    asap: int
    alap: int

    @property
    def width(self) -> int:
        return self.alap - self.asap + 1

    def contains(self, cycle: int) -> bool:
        return self.asap <= cycle <= self.alap


def execution_intervals(
    graph: DependenceGraph, budget: int
) -> dict[RT, ExecutionInterval]:
    """ASAP/ALAP windows under ``budget``; raises if already infeasible."""
    if budget < 1:
        raise SchedulingError(f"cycle budget must be >= 1, got {budget}")
    order = _topological(graph)
    predecessors, successors = graph.edges_in, graph.edges_out

    asap: dict[RT, int] = {}
    for rt in order:
        asap[rt] = max(
            (asap[e.src] + e.delay for e in predecessors[rt]), default=0
        )
    alap: dict[RT, int] = {}
    for rt in reversed(order):
        latest_finish = budget - graph.spans[rt]
        alap[rt] = min(
            (alap[e.dst] - e.delay for e in successors[rt]),
            default=latest_finish,
        )

    intervals: dict[RT, ExecutionInterval] = {}
    for rt in graph.rts:
        if asap[rt] > alap[rt]:
            raise SchedulingError(
                f"{rt!r} has an empty execution interval "
                f"[{asap[rt]}, {alap[rt]}] under budget {budget}: the "
                f"critical path does not fit"
            )
        intervals[rt] = ExecutionInterval(asap[rt], alap[rt])
    return intervals


def tighten_with_decision(
    intervals: dict[RT, ExecutionInterval],
    graph: DependenceGraph,
    rt: RT,
    cycle: int,
) -> dict[RT, ExecutionInterval] | None:
    """Intervals after fixing ``rt`` at ``cycle`` (None if infeasible).

    One propagation sweep: successors' ASAPs and predecessors' ALAPs
    move; the sweep iterates to a fixpoint (graphs are small).
    """
    if not intervals[rt].contains(cycle):
        return None
    updated = dict(intervals)
    updated[rt] = ExecutionInterval(cycle, cycle)
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            if edge.distance != 0:
                continue
            src, dst = updated[edge.src], updated[edge.dst]
            new_asap = max(dst.asap, src.asap + edge.delay)
            new_alap = min(src.alap, dst.alap - edge.delay)
            if new_asap > dst.alap or new_alap < src.asap:
                return None
            if new_asap != dst.asap:
                updated[edge.dst] = ExecutionInterval(new_asap, dst.alap)
                changed = True
            if new_alap != src.alap:
                updated[edge.src] = ExecutionInterval(updated[edge.src].asap, new_alap)
                changed = True
    return updated


def _topological(graph: DependenceGraph) -> list[RT]:
    successors = graph.edges_out
    indegree = {rt: len(graph.edges_in[rt]) for rt in graph.rts}
    stack = [rt for rt, n in indegree.items() if n == 0]
    order: list[RT] = []
    while stack:
        rt = stack.pop()
        order.append(rt)
        for edge in successors[rt]:
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                stack.append(edge.dst)
    if len(order) != len(graph.rts):
        raise SchedulingError("dependence cycle within one iteration")
    return order
