"""Experiment abl-static: static conflict modelling vs dynamic checking.

The paper's contribution is that instruction-set restrictions become
*fixed conflicts before scheduling*, so the scheduler stays a plain
resource scheduler.  The alternative re-validates the instruction set
on every placement attempt; checking candidates against a table of
allowed types requires the *closed* instruction set (all
sub-instructions, rule 3, and all pairwise-implied types, rule 4) to
be materialised — a family that grows as 2^k with k
mutually-compatible classes.  The conflict-graph model never builds
that family: it only needs the pairwise compatibility relation (k²)
and an edge clique cover.

Three measurements:

1. identical schedule quality on the audio application,
2. one scheduling pass each (comparable runtime on a 9-class core),
3. modelling-setup cost as the class count grows: closure enumeration
   explodes, conflict-graph construction stays flat.
"""

from __future__ import annotations

import pytest
from conftest import imposed_graph

from repro import audio_core
from repro.apps import audio_application, audio_io_binding
from repro.core import (
    ClassTable,
    ConflictGraph,
    InstructionSet,
    closure,
    greedy_cover,
)
from repro.rtgen import generate_rts
from repro.sched import build_dependence_graph, dynamic_check_schedule
from repro.sched.list_scheduler import _run_critical_path


def test_bench_static_single_pass(benchmark):
    _, graph, _ = imposed_graph()
    schedule = benchmark(lambda: _run_critical_path(graph, None))
    assert schedule.length <= 66
    print(f"\nabl-static[static pass]: {schedule.length} cycles")


def test_bench_dynamic_single_pass(benchmark):
    core = audio_core()
    program = generate_rts(audio_application(), core, audio_io_binding())
    table = ClassTable.from_core(core)
    iset = InstructionSet.from_desired(table.names, core.instruction_types)
    graph = build_dependence_graph(program)

    schedule = benchmark(lambda: dynamic_check_schedule(graph, table, iset))

    # Same legality: no instruction combines conflicting IO classes.
    for instruction in schedule.instructions():
        classes = frozenset(
            rt.rt_class for rt in instruction if rt.rt_class in ("A", "B", "C")
        )
        assert len(classes) <= 1
    print(f"\nabl-static[dynamic pass]: {schedule.length} cycles")


def _wide_instruction_set(k: int):
    """k mutually-compatible datapath classes + 2 exclusive IO classes."""
    classes = [f"C{i}" for i in range(k)] + ["IN", "OUT"]
    desired = [
        frozenset(classes[:k] + ["IN"]),
        frozenset(classes[:k] + ["OUT"]),
    ]
    return classes, desired


@pytest.mark.parametrize("k", [8, 12, 16])
def test_bench_dynamic_model_setup(benchmark, k):
    """The dynamic checker must enumerate the closed family: 2^k types."""
    classes, desired = _wide_instruction_set(k)

    family = benchmark(lambda: closure(classes, desired))
    # |closure| ≈ 3 * 2^k (k free classes, with IN, with OUT) minus overlaps.
    assert len(family) > 2 ** k
    print(f"\nabl-static[dynamic setup, k={k}]: {len(family)} instruction "
          f"types materialised")


@pytest.mark.parametrize("k", [8, 12, 16])
def test_bench_static_model_setup(benchmark, k):
    """The static model only needs pairs + a cover: polynomial.

    The conflict graph is built straight from the *desired* types
    (rules 3-4 never change the pairwise relation), so the closed
    family is never materialised.
    """
    classes, desired = _wide_instruction_set(k)

    def build():
        graph = ConflictGraph.from_instruction_set(
            InstructionSet.from_desired(classes, desired))
        return graph, greedy_cover(graph)

    graph, cover = benchmark(build)
    assert graph.edges == {frozenset({"IN", "OUT"})}
    assert len(cover) == 1
    print(f"\nabl-static[static setup, k={k}]: {len(graph.edges)} conflict "
          f"edge(s), {len(cover)} clique(s)")
