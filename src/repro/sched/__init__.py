"""Scheduling: ordering register transfers into VLIW instructions
(paper, step 3 of figure 1b, plus the section-8 future work)."""

from .baselines import dynamic_check_schedule, vertical_schedule
from .dependence import (
    DependenceGraph,
    Edge,
    EdgeKind,
    build_dependence_graph,
    compute_priorities,
)
from .exact import ExactSchedulerStats, exact_schedule
from .folding import FoldedSchedule, modulo_schedule, recurrence_mii, resource_mii
from .interval import (
    ExecutionInterval,
    execution_intervals,
    tighten_with_decision,
)
from .bipartite import (
    exclusive_groups_by_opu,
    hall_window_check,
    maximum_matching,
    resource_feasible,
)
from .list_scheduler import compact_lifetimes, list_schedule
from .regalloc import Allocation, Interval, allocate_registers, compute_intervals
from .schedule import ModuloReservationTable, ReservationTable, Schedule

__all__ = [
    "Allocation",
    "DependenceGraph",
    "Edge",
    "EdgeKind",
    "ExactSchedulerStats",
    "ExecutionInterval",
    "FoldedSchedule",
    "Interval",
    "ModuloReservationTable",
    "ReservationTable",
    "Schedule",
    "allocate_registers",
    "build_dependence_graph",
    "compact_lifetimes",
    "compute_intervals",
    "compute_priorities",
    "dynamic_check_schedule",
    "exact_schedule",
    "exclusive_groups_by_opu",
    "execution_intervals",
    "hall_window_check",
    "list_schedule",
    "maximum_matching",
    "modulo_schedule",
    "recurrence_mii",
    "resource_feasible",
    "resource_mii",
    "tighten_with_decision",
    "vertical_schedule",
]
