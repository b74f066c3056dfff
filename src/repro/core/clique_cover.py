"""Edge clique covers of the conflict graph (paper, section 6.3).

"In this graph we find a set of cliques such that all edges in the
conflict graph are covered ...  Note that any clique cover will lead
to a valid schedule.  The only motivation to look for a maximal clique
cover is to minimize the run time of the scheduler."

Three algorithms, in ascending effort:

``edge_per_clique_cover``
    Every edge becomes its own 2-clique — trivially correct, maximally
    wasteful; the paper's remark makes it the natural baseline of the
    `abl-cover` ablation.
``greedy_cover``
    Kellerman-style: repeatedly take an uncovered edge and grow it to a
    maximal clique, preferring extensions that cover many still-
    uncovered edges.  Fast, near-minimal in practice (finds the paper's
    6-clique cover of figure 6).
``exact_cover``
    Minimum edge clique cover by set-cover branch-and-bound over all
    maximal cliques (Bron-Kerbosch).  Exponential; intended for the
    small class counts of real instruction sets (≤ ~20 classes).
"""

from __future__ import annotations

from ..errors import InstructionSetError
from .conflict_graph import ConflictGraph


def verify_cover(graph: ConflictGraph, cliques: list[frozenset[str]]) -> None:
    """Raise unless ``cliques`` is a valid edge clique cover of ``graph``."""
    for clique in cliques:
        if not graph.is_clique(clique):
            raise InstructionSetError(
                f"{sorted(clique)} is not a clique of the conflict graph"
            )
        if len(clique) < 2:
            raise InstructionSetError(
                f"cover contains a degenerate clique {sorted(clique)}"
            )
    covered: set[frozenset[str]] = set()
    for clique in cliques:
        covered |= graph.subgraph_edges(set(clique))
    missing = graph.edges - covered
    if missing:
        raise InstructionSetError(
            f"conflict edges not covered: {sorted(sorted(e) for e in missing)}"
        )


def edge_per_clique_cover(graph: ConflictGraph) -> list[frozenset[str]]:
    """The trivial cover: one 2-clique per conflict edge."""
    return sorted(graph.edges, key=sorted)


def greedy_cover(graph: ConflictGraph) -> list[frozenset[str]]:
    """Grow maximal cliques around uncovered edges (Kellerman heuristic)."""
    uncovered = set(graph.edges)
    cliques: list[frozenset[str]] = []
    while uncovered:
        seed = min(uncovered, key=sorted)
        a, b = sorted(seed)
        clique = {a, b}
        candidates = graph.neighbours(a) & graph.neighbours(b)
        while candidates:
            def gain(node: str) -> tuple[int, str]:
                newly = sum(
                    1 for member in clique
                    if frozenset({member, node}) in uncovered
                )
                return (newly, node)
            best = max(candidates, key=gain)
            clique.add(best)
            candidates &= graph.neighbours(best)
        cliques.append(frozenset(clique))
        uncovered -= graph.subgraph_edges(clique)
    return sorted(cliques, key=sorted)


def _maximal_cliques(graph: ConflictGraph,
                     limit: int) -> list[frozenset[str]]:
    """Bron-Kerbosch with pivoting; only cliques of size >= 2 matter.

    Stops once ``limit`` cliques are found, so a caller that gives up
    above a budget never pays for enumerating the rest.
    """
    cliques: list[frozenset[str]] = []

    def expand(current: set[str], candidates: set[str], excluded: set[str]) -> None:
        if not candidates and not excluded:
            if len(current) >= 2:
                cliques.append(frozenset(current))
            return
        pivot_pool = candidates | excluded
        pivot = max(pivot_pool, key=lambda n: len(graph.neighbours(n) & candidates))
        for node in sorted(candidates - graph.neighbours(pivot)):
            if len(cliques) >= limit:
                return
            expand(
                current | {node},
                candidates & graph.neighbours(node),
                excluded & graph.neighbours(node),
            )
            candidates = candidates - {node}
            excluded = excluded | {node}

    expand(set(), set(graph.nodes), set())
    return cliques


def exact_cover(
    graph: ConflictGraph, max_candidates: int = 4096
) -> list[frozenset[str]]:
    """Minimum-cardinality edge clique cover (branch and bound).

    Falls back to the greedy cover when the graph has more maximal
    cliques than ``max_candidates`` (the instruction sets of real cores
    stay far below this).  The clique enumeration stops at the first
    clique over that budget.
    """
    if not graph.edges:
        return []
    candidates = _maximal_cliques(graph, max_candidates + 1)
    if len(candidates) > max_candidates:
        return greedy_cover(graph)
    edges_of = {c: frozenset(graph.subgraph_edges(set(c))) for c in candidates}
    best: list[frozenset[str]] = greedy_cover(graph)

    all_edges = frozenset(graph.edges)
    order = sorted(all_edges, key=sorted)

    def search(covered: frozenset, chosen: list[frozenset[str]]) -> None:
        nonlocal best
        if len(chosen) >= len(best):
            return
        remaining = all_edges - covered
        if not remaining:
            best = list(chosen)
            return
        # Branch on the first uncovered edge: some clique must cover it.
        target = next(e for e in order if e in remaining)
        for clique in candidates:
            if target <= set(clique):
                chosen.append(clique)
                search(covered | edges_of[clique], chosen)
                chosen.pop()

    search(frozenset(), [])
    verify_cover(graph, best)
    return sorted(best, key=sorted)


def clique_resource_name(clique: frozenset[str]) -> str:
    """The artificial resource name of a clique, e.g. ``ABC`` for
    {A, B, C} (paper, section 7) — prefixed to avoid colliding with
    physical resource names."""
    return "iset:" + "".join(sorted(clique))
