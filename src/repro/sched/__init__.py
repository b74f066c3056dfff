"""Scheduling: ordering register transfers into VLIW instructions
(paper, step 3 of figure 1b, plus the section-8 future work)."""

from .._lazy import lazy_exports

#: The ablation schedulers (exact, folding, the baselines) load only
#: when one of their names is read; a compile imports the list
#: scheduler's modules directly.
__getattr__, __dir__ = lazy_exports(__name__, {
    "baselines": ("dynamic_check_schedule", "vertical_schedule"),
    "bipartite": (
        "exclusive_groups_by_opu", "hall_window_check", "maximum_matching",
        "resource_feasible",
    ),
    "dependence": (
        "DependenceGraph", "Edge", "EdgeKind", "build_dependence_graph",
        "compute_priorities",
    ),
    "exact": ("ExactSchedulerStats", "exact_schedule"),
    "folding": (
        "FoldedSchedule", "modulo_schedule", "recurrence_mii", "resource_mii",
    ),
    "interval": (
        "ExecutionInterval", "execution_intervals", "tighten_with_decision",
    ),
    "list_scheduler": ("compact_lifetimes", "list_schedule"),
    "regalloc": ("Allocation", "Interval", "allocate_registers",
                 "compute_intervals"),
    "schedule": ("ModuloReservationTable", "ReservationTable", "Schedule"),
})
del lazy_exports

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
