"""Time-loop folding by iterative modulo scheduling (paper, section 7:
"This could be reduced a few cycles if the time-loop could be folded
which is not supported by the current system").

Folding overlaps consecutive time-loop iterations: the block repeats
every *initiation interval* (II) cycles, with resource bookings taken
modulo II.  The lower bound on II is

* **ResMII** — the busiest resource's operation count, and
* **RecMII** — the longest loop-carried dependence cycle (distance-1
  CARRY edges back into the block).

The scheduler below is a compact iterative modulo scheduler (Rau-style)
sufficient to demonstrate the paper's "a few cycles" claim; it reports
the achieved II next to the unfolded schedule length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import SchedulingError
from ..rtgen.rt import RT
from .dependence import DependenceGraph, compute_priorities
from .schedule import ModuloReservationTable


@dataclass
class FoldedSchedule:
    """A modulo schedule: issue cycles plus the initiation interval."""

    cycle_of: dict[RT, int]
    initiation_interval: int
    length: int                     # span of one iteration's issue slots

    def validate(self, graph: DependenceGraph) -> None:
        ii = self.initiation_interval
        slots: dict[tuple[str, int], str] = {}
        bookings = graph.bookings
        for rt, cycle in self.cycle_of.items():
            for resource, offset, usage in bookings[rt]:
                key = (resource, (cycle + offset) % ii)
                existing = slots.get(key)
                if existing is not None and existing != usage:
                    raise SchedulingError(
                        f"modulo resource conflict on {resource}"
                    )
                slots[key] = usage
        for edge in graph.edges:
            src = self.cycle_of[edge.src]
            dst = self.cycle_of[edge.dst]
            if dst < src + edge.delay - ii * edge.distance:
                raise SchedulingError(
                    f"modulo dependence violated: {edge.dst!r} at {dst} "
                    f"before {edge.src!r} + {edge.delay} - {ii}*{edge.distance}"
                )


def resource_mii(rts: list[RT]) -> int:
    """Resource-constrained lower bound: the busiest exclusive resource.

    Counts distinct (resource, usage-instance) bookings; same-usage
    sharing cannot happen twice in one modulo slot for *different*
    transfers of the kinds our generator emits (every result has its
    own bus value), so the per-OPU transfer count is the bound.
    """
    counts: dict[str, int] = {}
    for rt in rts:
        counts[rt.opu] = counts.get(rt.opu, 0) + 1
    return max(counts.values(), default=1)


def recurrence_mii(graph: DependenceGraph) -> int:
    """Recurrence lower bound from loop-carried cycles.

    For every elementary cycle through distance-1 edges, II must be at
    least (sum of delays) / (sum of distances).  Our generator emits
    simple carrier cycles (reader -> writer -> next-iteration reader);
    a longest-path sweep per carry edge suffices.
    """
    longest_to: dict[RT, dict[RT, int]] = {}

    def longest_paths(src: RT) -> dict[RT, int]:
        if src in longest_to:
            return longest_to[src]
        distances: dict[RT, int] = {src: 0}
        order = [src]
        index = 0
        while index < len(order):
            rt = order[index]
            index += 1
            for edge in graph.edges_out[rt]:
                candidate = distances[rt] + edge.delay
                if candidate > distances.get(edge.dst, -1):
                    distances[edge.dst] = candidate
                    order.append(edge.dst)
        longest_to[src] = distances
        return distances

    best = 1
    for edge in graph.edges:
        if edge.distance != 1:
            continue
        distances = longest_paths(edge.dst)
        if edge.src in distances:
            cycle_delay = distances[edge.src] + edge.delay
            best = max(best, cycle_delay)  # distance sum is 1
    return best


def modulo_schedule(
    graph: DependenceGraph,
    max_ii: int | None = None,
    budget_hint: int | None = None,
) -> FoldedSchedule:
    """Find the smallest II the iterative modulo scheduler achieves."""
    lower = max(resource_mii(graph.rts), recurrence_mii(graph))
    upper = max_ii if max_ii is not None else (
        budget_hint if budget_hint is not None else lower + len(graph.rts)
    )
    for ii in range(lower, upper + 1):
        folded = _try_ii(graph, ii)
        if folded is not None:
            folded.validate(graph)
            return folded
    raise SchedulingError(
        f"no modulo schedule found with II <= {upper} (lower bound {lower})"
    )


def _try_ii(graph: DependenceGraph, ii: int) -> FoldedSchedule | None:
    priority = compute_priorities(graph)
    predecessors, successors = graph.edges_in, graph.edges_out

    order = sorted(graph.rts, key=lambda rt: (-priority[rt], rt.uid))
    bookings = graph.bookings
    table = ModuloReservationTable(ii)
    cycle_of: dict[RT, int] = {}

    def place(rt: RT, cycle: int) -> None:
        table.place(rt, bookings[rt], cycle)
        cycle_of[rt] = cycle

    def unplace(rt: RT) -> None:
        table.remove(rt, bookings[rt], cycle_of.pop(rt))

    max_attempts = len(graph.rts) * 16
    attempts = 0
    pending = deque(order)
    while pending:
        attempts += 1
        if attempts > max_attempts:
            return None
        rt = pending.popleft()
        booking = bookings[rt]
        earliest = max(
            (cycle_of[e.src] + e.delay for e in predecessors[rt]
             if e.src in cycle_of),
            default=0,
        )
        placed = False
        for cycle in range(earliest, earliest + ii):
            if table.fits(booking, cycle):
                place(rt, cycle)
                placed = True
                break
        if not placed:
            # Evict every transfer holding a slot this one needs
            # (iterative modulo scheduling), in placement order.
            cycle = earliest
            holders = table.owners(booking, cycle)
            victims = [other for other in cycle_of if other in holders]
            if not victims:
                return None
            for victim in victims:
                unplace(victim)
                pending.append(victim)
            place(rt, cycle)
        # Dependents placed earlier than allowed must be re-scheduled.
        for edge in successors[rt]:
            if edge.dst in cycle_of and cycle_of[edge.dst] < cycle_of[rt] + edge.delay:
                unplace(edge.dst)
                pending.append(edge.dst)
    # Check distance-1 edges; if violated, fail this II.
    for edge in graph.edges:
        if edge.distance == 1:
            if cycle_of[edge.dst] < cycle_of[edge.src] + edge.delay - ii:
                return None
    spans = graph.spans
    length = max(cycle + spans[rt] for rt, cycle in cycle_of.items())
    return FoldedSchedule(cycle_of=cycle_of, initiation_interval=ii, length=length)
