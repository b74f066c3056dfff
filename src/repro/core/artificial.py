"""Artificial-resource generation: imposing the instruction set on RTs
(paper, section 6.3).

"For RTs from a class which is also present in a clique a conflict
must be added with the clique as artificial resource.  The clique as
artificial resource is added with as usage the RT class."

Two RTs from different classes of one clique then disagree on the
clique resource (usage = their own class names) and can never share a
cycle; two RTs of the *same* class agree and remain schedulable
together — exactly when the physical resources allow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..rtgen.rt import RT, ResourceUse
from .clique_cover import (
    clique_resource_name,
    exact_cover,
    greedy_cover,
    verify_cover,
)
from .conflict_graph import ConflictGraph
from .instruction_set import InstructionSet
from .rtclass import ClassTable


@dataclass
class ConflictModel:
    """Everything derived while imposing an instruction set on a program."""

    table: ClassTable
    instruction_set: InstructionSet
    graph: ConflictGraph
    cover: list[frozenset[str]]
    rts: list[RT]
    #: clique resource name -> member classes, e.g. "iset:ABC" -> {A,B,C}
    artificial_resources: dict[str, frozenset[str]] = field(default_factory=dict)


def impose_instruction_set(
    rts: list[RT],
    table: ClassTable,
    instruction_set: InstructionSet,
    cover: list[frozenset[str]] | None = None,
    cover_algorithm: str = "greedy",
) -> ConflictModel:
    """Step 2b of the compiler (figure 1b): modify the RTs so that "a
    scheduler only creates mcode instructions by combining RTs that are
    physically possible and allowed in the instruction set".

    Parameters
    ----------
    cover:
        Use this edge clique cover instead of computing one (it is
        verified first).  Any valid cover yields valid schedules; the
        cover's granularity only affects scheduler runtime.
    cover_algorithm:
        ``"greedy"`` (default), ``"exact"`` or ``"edge"`` — see
        :mod:`repro.core.clique_cover`.
    """
    if instruction_set.hand_written is not None:  # else closed by construction
        instruction_set.validate()
    graph = ConflictGraph.from_instruction_set(instruction_set)
    if cover is None:
        algorithms = {
            "greedy": greedy_cover,
            "exact": exact_cover,
            "edge": lambda g: list(g.edges),
        }
        try:
            algorithm = algorithms[cover_algorithm]
        except KeyError:
            raise ValueError(
                f"unknown cover algorithm {cover_algorithm!r}; "
                f"choose from {sorted(algorithms)}"
            ) from None
        cover = [frozenset(c) for c in algorithm(graph)]
    verify_cover(graph, cover)

    membership: dict[str, list[str]] = {}
    artificial: dict[str, frozenset[str]] = {}
    for clique in cover:
        resource = clique_resource_name(clique)
        artificial[resource] = clique
        for cls in clique:
            membership.setdefault(cls, []).append(resource)

    # The RTs are another stage's artifact: read their class (the rtgen
    # stage annotates it), never write it; an unannotated RT is
    # classified against ``table`` here.
    modified: list[RT] = []
    for rt in rts:
        rt_class = rt.rt_class or table.classify(rt).name
        resources = membership.get(rt_class, ())
        if resources:
            extra = tuple(
                ResourceUse(resource, rt_class) for resource in sorted(resources)
            )
            clone = rt.with_extra_uses(extra)
            clone.rt_class = rt_class
            modified.append(clone)
        else:
            modified.append(rt)
    return ConflictModel(
        table=table,
        instruction_set=instruction_set,
        graph=graph,
        cover=sorted(cover, key=sorted),
        rts=modified,
        artificial_resources=artificial,
    )
