"""Schedule representation, reservation tables and instruction
extraction.

The schedule's legality rules live in
:func:`repro.analyze.verify_schedule`; :meth:`Schedule.validate` raises
on its error findings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulingError
from ..rtgen.rt import RT
from .dependence import Booking, DependenceGraph


class ReservationTable:
    """Resource/usage bookings per absolute cycle.

    Placing a :data:`~repro.sched.dependence.Booking` at a cycle books
    every ``(resource, cycle + offset)`` it lists; a booking is
    compatible when the slot is free or carries the *same* usage (the
    paper's parallelism rule).
    """

    def __init__(self):
        # (resource, cycle) -> [usage, reference count]; same-usage
        # bookings share the slot (multicast, shared register reads).
        self._slots: dict[tuple[str, int], list] = {}

    def fits(self, booking: Booking, cycle: int) -> bool:
        slots = self._slots
        for resource, offset, usage in booking:
            slot = slots.get((resource, cycle + offset))
            if slot is not None and slot[0] != usage:
                return False
        return True

    def place(self, booking: Booking, cycle: int) -> None:
        slots = self._slots
        for entry in booking:
            resource, offset, usage = entry
            key = (resource, cycle + offset)
            slot = slots.get(key)
            if slot is None:
                slots[key] = [usage, 1]
            elif slot[0] == usage:
                slot[1] += 1
            else:
                # Roll back: an entry equal to this one would have
                # conflicted first, so index() finds this position.
                self.remove(booking[:booking.index(entry)], cycle)
                raise SchedulingError(
                    f"resource conflict at cycle {cycle}: {resource} "
                    f"already used as {slot[0]!r}, needs {usage!r}"
                )

    def remove(self, booking: Booking, cycle: int) -> None:
        """Undo a placement (backtracking / lifetime compaction)."""
        slots = self._slots
        for resource, offset, _ in booking:
            key = (resource, cycle + offset)
            slot = slots.get(key)
            if slot is None:
                continue
            slot[1] -= 1
            if slot[1] <= 0:
                del slots[key]

    def usage_at(self, resource: str, cycle: int) -> str | None:
        slot = self._slots.get((resource, cycle))
        return slot[0] if slot is not None else None


class ModuloReservationTable:
    """Bookings of a folded schedule, taken modulo the initiation
    interval ``ii``.

    Iterations are distinct instances, so a slot ``(resource, cycle mod
    ii)`` is shared only by bookings with the same usage in the same
    *absolute* cycle.  Each slot lists the RTs booking it: a slot is
    released when its last owner leaves, and :meth:`owners` answers the
    eviction question (who holds what this booking needs) directly.
    """

    def __init__(self, ii: int):
        self.ii = ii
        # (resource, cycle mod ii) -> (usage, absolute cycle, owners)
        self._slots: dict[tuple[str, int], tuple[str, int, list[RT]]] = {}

    def fits(self, booking: Booking, cycle: int) -> bool:
        slots, ii = self._slots, self.ii
        for resource, offset, usage in booking:
            at = cycle + offset
            slot = slots.get((resource, at % ii))
            if slot is not None and (slot[0] != usage or slot[1] != at):
                return False
        return True

    def place(self, rt: RT, booking: Booking, cycle: int) -> None:
        """Book ``rt``; a slot it shares keeps its first booking's usage."""
        slots, ii = self._slots, self.ii
        for resource, offset, usage in booking:
            at = cycle + offset
            key = (resource, at % ii)
            slot = slots.get(key)
            if slot is None:
                slots[key] = (usage, at, [rt])
            else:
                slot[2].append(rt)

    def remove(self, rt: RT, booking: Booking, cycle: int) -> None:
        slots, ii = self._slots, self.ii
        for resource, offset, _ in booking:
            key = (resource, (cycle + offset) % ii)
            owners = slots[key][2]
            owners.remove(rt)
            if not owners:
                del slots[key]

    def owners(self, booking: Booking, cycle: int) -> set[RT]:
        """Every RT holding a slot ``booking`` needs at ``cycle``."""
        slots, ii = self._slots, self.ii
        found: set[RT] = set()
        for resource, offset, _ in booking:
            slot = slots.get((resource, (cycle + offset) % ii))
            if slot is not None:
                found.update(slot[2])
        return found


@dataclass
class Schedule:
    """A complete cycle assignment for one block of RTs."""

    cycle_of: dict[RT, int]
    length: int
    budget: int | None = None

    @property
    def rts(self) -> list[RT]:
        return list(self.cycle_of)

    def instructions(self) -> list[list[RT]]:
        """RTs grouped per issue cycle — the VLIW instructions."""
        grouped: list[list[RT]] = [[] for _ in range(self.length)]
        for rt, cycle in self.cycle_of.items():
            grouped[cycle].append(rt)
        for group in grouped:
            group.sort(key=lambda r: r.uid)
        return grouped

    def resource_busy_cycles(self) -> dict[str, set[int]]:
        """resource name → cycles in which it is occupied."""
        busy: dict[str, set[int]] = {}
        for rt, cycle in self.cycle_of.items():
            for use in rt.uses:
                busy.setdefault(use.resource, set()).add(cycle + use.offset)
        return busy

    def opu_busy_cycles(self) -> dict[str, set[int]]:
        """OPU name → cycles in which it executes an operation."""
        busy: dict[str, set[int]] = {}
        for rt, cycle in self.cycle_of.items():
            busy.setdefault(rt.opu, set()).add(cycle)
        return busy

    def validate(self, graph: DependenceGraph) -> None:
        """Raise :class:`SchedulingError` listing the error findings of
        :func:`repro.analyze.verify_schedule`, which holds the schedule's
        rules (exactly the graph's RTs, cycles inside ``[0, length)``,
        dependences, the resource-sharing rule, the budget)."""
        # Imported here: the verifiers import repro.arch, which would
        # cycle at module level.
        from ..analyze.verifiers import verify_schedule

        errors = [f.message for f in verify_schedule(None, self, graph)
                  if f.is_error]
        if errors:
            raise SchedulingError("; ".join(errors))
