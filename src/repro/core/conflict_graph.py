"""The conflict graph over RT classes (paper, section 6.3, figure 6).

"The individual RT classes form the nodes for the graph.  An edge
exists between two nodes if the two RT classes do not occur together
in any of the instruction types of the instruction set."
"""

from __future__ import annotations

from itertools import combinations

from .instruction_set import InstructionSet


class ConflictGraph:
    """An undirected graph over RT class names."""

    def __init__(self, nodes: list[str], edges: set[frozenset[str]]):
        self.nodes = list(nodes)
        node_set = set(nodes)
        for edge in edges:
            if len(edge) != 2 or not edge <= node_set:
                raise ValueError(f"bad edge {sorted(edge)}")
        self.edges = set(edges)
        self.adjacency: dict[str, set[str]] = {n: set() for n in nodes}
        for edge in edges:
            a, b = sorted(edge)
            self.adjacency[a].add(b)
            self.adjacency[b].add(a)

    @staticmethod
    def from_instruction_set(iset: InstructionSet) -> "ConflictGraph":
        """The complement of the set's compatibility graph.

        Rules 3-4 never change the pairwise compatibility relation, so
        this costs only the class pairs, never the closed family.
        """
        names = sorted(iset.class_names)
        edges = {
            frozenset(pair)
            for pair in combinations(names, 2)
            if not iset.compatible(*pair)
        }
        return ConflictGraph(names, edges)

    # ------------------------------------------------------------------

    def has_edge(self, a: str, b: str) -> bool:
        return frozenset({a, b}) in self.edges

    def degree(self, node: str) -> int:
        return len(self.adjacency[node])

    def is_clique(self, nodes: set[str] | frozenset[str]) -> bool:
        """Are all the given classes pairwise conflicting?"""
        return all(
            self.has_edge(a, b) for a, b in combinations(sorted(nodes), 2)
        )

    def neighbours(self, node: str) -> set[str]:
        return set(self.adjacency[node])

    def subgraph_edges(self, nodes: set[str]) -> set[frozenset[str]]:
        return {e for e in self.edges if e <= nodes}

    def pretty(self) -> str:
        lines = [f"conflict graph: {len(self.nodes)} classes, "
                 f"{len(self.edges)} conflict edges"]
        for edge in sorted(self.edges, key=sorted):
            a, b = sorted(edge)
            lines.append(f"  {a} -- {b}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConflictGraph):
            return NotImplemented
        return set(self.nodes) == set(other.nodes) and self.edges == other.edges

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((frozenset(self.nodes), frozenset(self.edges)))
