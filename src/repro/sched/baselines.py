"""Baseline code generators for the evaluation benches.

``vertical_schedule``
    One RT per instruction, in dependence order — the "vertical mcode"
    a non-parallelising compiler emits.  Its length (≈ the RT count)
    against the VLIW schedule's shows why "existing compilers generate
    code of which the efficiency is not sufficient" (section 2).

``dynamic_check_schedule``
    A list scheduler that does *not* use the artificial conflict
    resources.  Instead it re-validates the instruction set on every
    placement attempt: the classes present in the candidate cycle plus
    the new RT's class must form an allowed instruction type.  It finds
    the same schedules as the static model (the legality test is
    equivalent) but pays a clique test on the scheduler's hot path —
    the cost the paper's static modelling avoids.
"""

from __future__ import annotations

from ..core.instruction_set import InstructionSet
from ..core.rtclass import ClassTable
from ..errors import BudgetExceededError, SchedulingError
from ..rtgen.rt import RT
from .dependence import DependenceGraph, compute_priorities
from .schedule import ReservationTable, Schedule


def vertical_schedule(graph: DependenceGraph) -> Schedule:
    """One transfer per cycle, topologically ordered."""
    priority = compute_priorities(graph)
    predecessors, successors = graph.edges_in, graph.edges_out
    pending = {rt: len(predecessors[rt]) for rt in graph.rts}
    ready = sorted(
        (rt for rt, n in pending.items() if n == 0),
        key=lambda rt: (-priority[rt], rt.uid),
    )
    cycle_of: dict[RT, int] = {}
    earliest: dict[RT, int] = {rt: 0 for rt in graph.rts}
    cycle = 0
    while ready:
        rt = next((r for r in ready if earliest[r] <= cycle), None)
        if rt is None:
            cycle += 1
            continue
        ready.remove(rt)
        cycle = max(cycle, earliest[rt])
        cycle_of[rt] = cycle
        for edge in successors[rt]:
            earliest[edge.dst] = max(earliest[edge.dst], cycle + edge.delay)
            pending[edge.dst] -= 1
            if pending[edge.dst] == 0:
                ready.append(edge.dst)
                ready.sort(key=lambda r: (-priority[r], r.uid))
        cycle += 1
    if len(cycle_of) != len(graph.rts):
        raise SchedulingError("vertical scheduler left transfers unscheduled")
    length = max(c + graph.spans[rt] for rt, c in cycle_of.items())
    return Schedule(cycle_of=cycle_of, length=length)


def dynamic_check_schedule(
    graph: DependenceGraph,
    table: ClassTable,
    instruction_set: InstructionSet,
    budget: int | None = None,
) -> Schedule:
    """List scheduling with on-the-fly instruction-set legality checks.

    ``graph`` must be built over *unmodified* RTs (no artificial
    resources); the instruction set is enforced dynamically instead.
    """
    table.classify_program(graph.rts)
    priority = compute_priorities(graph)
    predecessors, successors = graph.edges_in, graph.edges_out

    pending = {rt: len(predecessors[rt]) for rt in graph.rts}
    ready = [rt for rt, n in pending.items() if n == 0]
    earliest = {rt: 0 for rt in graph.rts}
    cycle_of: dict[RT, int] = {}
    classes_at: dict[int, set[str]] = {}
    reservation = ReservationTable()
    bookings, spans = graph.bookings, graph.spans

    cycle = 0
    horizon = sum(max(1, rt.latency) for rt in graph.rts) + 1
    length = 0
    while len(cycle_of) < len(graph.rts):
        if cycle > horizon:
            raise SchedulingError("dynamic-check scheduler exceeded horizon")
        progress = True
        while progress:
            progress = False
            for rt in sorted(ready, key=lambda r: (-priority[r], r.uid)):
                if earliest[rt] > cycle:
                    continue
                if not reservation.fits(bookings[rt], cycle):
                    continue
                # The dynamic legality test the static model replaces:
                proposed = classes_at.get(cycle, set()) | {rt.rt_class}
                if not instruction_set.allows(frozenset(proposed)):
                    continue
                reservation.place(bookings[rt], cycle)
                classes_at.setdefault(cycle, set()).add(rt.rt_class)
                cycle_of[rt] = cycle
                length = max(length, cycle + spans[rt])
                ready.remove(rt)
                for edge in successors[rt]:
                    pending[edge.dst] -= 1
                    earliest[edge.dst] = max(earliest[edge.dst], cycle + edge.delay)
                    if pending[edge.dst] == 0:
                        ready.append(edge.dst)
                progress = True
        cycle += 1
    if budget is not None and length > budget:
        raise BudgetExceededError(length, budget)
    return Schedule(cycle_of=cycle_of, length=length, budget=budget)
