"""Unit tests for the reservation table and schedule validation."""

import pytest

from repro.errors import SchedulingError
from repro.rtgen import RT, ResourceUse
from repro.sched import (
    DependenceGraph,
    ModuloReservationTable,
    ReservationTable,
    Schedule,
)
from repro.sched.dependence import Edge, EdgeKind, booking


def rt_using(*uses, opu="alu", operation="add", latency=1):
    return RT(
        opu=opu, operation=operation, operands=(), destinations=(),
        uses=tuple(ResourceUse(*u) for u in uses), latency=latency,
    )


def booked(*uses):
    """The booking of an RT with these uses."""
    return booking(rt_using(*uses))


class TestReservationTable:
    def test_same_usage_shares(self):
        table = ReservationTable()
        a = booked(("bus", "v1"))
        b = booked(("bus", "v1"))
        table.place(a, 0)
        assert table.fits(b, 0)
        table.place(b, 0)
        assert table.usage_at("bus", 0) == "v1"

    def test_different_usage_conflicts(self):
        table = ReservationTable()
        table.place(booked(("bus", "v1")), 0)
        blocked = booked(("bus", "v2"))
        assert not table.fits(blocked, 0)
        with pytest.raises(SchedulingError, match="resource conflict"):
            table.place(blocked, 0)

    def test_reference_counted_removal(self):
        # Removing one sharer must not free the other's booking.
        table = ReservationTable()
        a = booked(("bus", "v1"))
        b = booked(("bus", "v1"))
        table.place(a, 0)
        table.place(b, 0)
        table.remove(a, 0)
        assert not table.fits(booked(("bus", "v2")), 0)
        table.remove(b, 0)
        assert table.fits(booked(("bus", "v2")), 0)

    def test_failed_place_rolls_back(self):
        table = ReservationTable()
        table.place(booked(("y", "q")), 0)
        # This RT books x first, then conflicts on y: x must be released.
        bad = booked(("x", "v1"), ("y", "different"))
        with pytest.raises(SchedulingError):
            table.place(bad, 0)
        assert table.fits(booked(("x", "other")), 0)

    def test_offsets_book_later_cycles(self):
        table = ReservationTable()
        pipelined = booked(("bus", "v1", 1))
        table.place(pipelined, 3)
        assert table.usage_at("bus", 4) == "v1"
        assert table.usage_at("bus", 3) is None


class TestModuloReservationTable:
    """Slots are taken modulo II; a slot is shared only within one
    absolute cycle and released by its last owner."""

    def placed(self, table, cycle, *uses):
        rt = rt_using(*uses)
        table.place(rt, booking(rt), cycle)
        return rt

    def test_same_usage_shares_only_within_one_iteration(self):
        table = ModuloReservationTable(4)
        self.placed(table, 1, ("bus", "v1"))
        assert table.fits(booked(("bus", "v1")), 1)
        # Cycle 5 is the same slot in the next iteration: a distinct
        # instance, so even the same usage conflicts.
        assert not table.fits(booked(("bus", "v1")), 5)
        assert table.fits(booked(("bus", "v2")), 2)

    def test_shared_slot_is_released_by_its_last_owner(self):
        table = ModuloReservationTable(4)
        a = self.placed(table, 1, ("bus", "v1"))
        b = self.placed(table, 1, ("bus", "v1"))
        table.remove(a, booking(a), 1)
        # b still holds the slot: another usage must not take it.
        assert not table.fits(booked(("bus", "v2")), 1)
        assert table.owners(booked(("bus", "v2")), 1) == {b}
        table.remove(b, booking(b), 1)
        assert table.fits(booked(("bus", "v2")), 1)
        assert table.owners(booked(("bus", "v2")), 1) == set()

    def test_owners_are_every_holder_of_a_needed_slot(self):
        table = ModuloReservationTable(3)
        a = self.placed(table, 0, ("alu", "add"))
        b = self.placed(table, 1, ("bus", "v1", 1))   # bus at cycle 2
        self.placed(table, 1, ("mult", "mult"))
        needs = booked(("alu", "sub"), ("bus", "v9", 2))
        assert table.owners(needs, 3) == {a, b}


class TestScheduleValidation:
    def graph_pair(self):
        a = rt_using(("alu", "add"))
        b = rt_using(("mult", "mult"), opu="mult", operation="mult")
        graph = DependenceGraph(
            rts=[a, b],
            edges=[Edge(a, b, 1, EdgeKind.RAW)],
        )
        return a, b, graph

    def test_valid_schedule_passes(self):
        a, b, graph = self.graph_pair()
        Schedule(cycle_of={a: 0, b: 1}, length=2).validate(graph)

    def test_dependence_violation_caught(self):
        a, b, graph = self.graph_pair()
        with pytest.raises(SchedulingError, match="dependence violated"):
            Schedule(cycle_of={a: 1, b: 0}, length=2).validate(graph)

    def test_missing_rt_caught(self):
        a, b, graph = self.graph_pair()
        with pytest.raises(SchedulingError, match="never scheduled"):
            Schedule(cycle_of={a: 0}, length=1).validate(graph)

    def test_negative_cycle_caught(self):
        a, b, graph = self.graph_pair()
        with pytest.raises(SchedulingError, match="negative"):
            Schedule(cycle_of={a: -1, b: 1}, length=2).validate(graph)

    def test_overrun_caught(self):
        a, b, graph = self.graph_pair()
        with pytest.raises(SchedulingError, match="spills past"):
            Schedule(cycle_of={a: 0, b: 2}, length=2).validate(graph)

    def test_budget_overrun_caught(self):
        a, b, graph = self.graph_pair()
        schedule = Schedule(cycle_of={a: 0, b: 1}, length=2, budget=1)
        with pytest.raises(SchedulingError, match="exceeds budget"):
            schedule.validate(graph)

    def test_usage_conflict_caught(self):
        a = rt_using(("bus", "v1"))
        b = rt_using(("bus", "v2"))
        graph = DependenceGraph(rts=[a, b], edges=[])
        with pytest.raises(SchedulingError, match="resource conflict"):
            Schedule(cycle_of={a: 0, b: 0}, length=1).validate(graph)

    def test_instructions_grouping(self):
        a, b, graph = self.graph_pair()
        schedule = Schedule(cycle_of={a: 0, b: 1}, length=2)
        instructions = schedule.instructions()
        assert instructions[0] == [a]
        assert instructions[1] == [b]

    def test_busy_cycle_queries(self):
        a, b, graph = self.graph_pair()
        schedule = Schedule(cycle_of={a: 0, b: 1}, length=2)
        assert schedule.opu_busy_cycles() == {"alu": {0}, "mult": {1}}
        assert schedule.resource_busy_cycles()["alu"] == {0}
