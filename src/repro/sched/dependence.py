"""Dependence analysis over register transfers.

Edges constrain issue cycles: ``cycle(dst) >= cycle(src) + delay``
(within one iteration; the ``distance`` field marks loop-carried edges
used only by the folding scheduler, where the constraint becomes
``cycle(dst) >= cycle(src) + delay - II * distance``).

Edge kinds
----------
* **RAW** — a value read must have been produced: delay = producer
  latency.
* **WAR (loop carry)** — the next iteration's incarnation of a pinned
  register (e.g. the frame pointer) may be written in the same cycle as
  the last read, but not earlier: delay = 0.  Register files read at
  the start of a cycle and are written at its end.
* **MEM** — conservative ordering of RAM transfers touching the same
  symbolic location (write→read and write→write: delay 1; read→write:
  delay 0).  The frame-interleaved delay-line layout guarantees
  distinct locations within one iteration, so real programs generate
  none of these — the edges exist for safety and for tests.
* **CARRY (distance 1)** — producer of a loop-carried value feeds its
  readers in the *next* iteration; only the folding scheduler uses
  these.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from ..rtgen.program import RTProgram
from ..rtgen.rt import RT

#: An RT's resource bookings relative to its issue cycle,
#: ``((resource, offset, usage), ...)`` in the order of ``rt.uses``.
Booking = tuple[tuple[str, int, str], ...]


def booking(rt: RT) -> Booking:
    """The reservation-table form of ``rt.uses``."""
    return tuple((use.resource, use.offset, use.usage) for use in rt.uses)


class EdgeKind(enum.Enum):
    RAW = "raw"
    WAR = "war"
    MEM = "mem"
    CARRY = "carry"


@dataclass(frozen=True)
class Edge:
    src: RT
    dst: RT
    delay: int
    kind: EdgeKind
    distance: int = 0


@dataclass
class DependenceGraph:
    """RTs plus the edges constraining their issue cycles.

    :attr:`bookings`, :attr:`spans`, :attr:`edges_in` and
    :attr:`edges_out` are derived once per graph, on first use, and
    shared (read-only) by every scheduler pass over it; they are not
    part of the graph's pickled state.
    """

    rts: list[RT]
    edges: list[Edge]

    @cached_property
    def bookings(self) -> dict[RT, Booking]:
        """Each RT's :func:`booking`."""
        return {rt: booking(rt) for rt in self.rts}

    @cached_property
    def spans(self) -> dict[RT, int]:
        """Cycles each RT occupies from its issue cycle on:
        ``max(latency, max_offset + 1)``."""
        return {rt: max(rt.latency, rt.max_offset + 1) for rt in self.rts}

    @cached_property
    def edges_out(self) -> dict[RT, list[Edge]]:
        """Each RT's distance-0 out-edges, in edge order."""
        out: dict[RT, list[Edge]] = {rt: [] for rt in self.rts}
        for edge in self.edges:
            if edge.distance == 0:
                out[edge.src].append(edge)
        return out

    @cached_property
    def edges_in(self) -> dict[RT, list[Edge]]:
        """Each RT's distance-0 in-edges, in edge order."""
        into: dict[RT, list[Edge]] = {rt: [] for rt in self.rts}
        for edge in self.edges:
            if edge.distance == 0:
                into[edge.dst].append(edge)
        return into

    def __getstate__(self) -> dict:
        # Only the fields: the derived tables are rebuilt on demand.
        return {"rts": self.rts, "edges": self.edges}

    def successors(self, rt: RT) -> list[Edge]:
        return list(self.edges_out.get(rt, ()))

    def predecessors(self, rt: RT) -> list[Edge]:
        return list(self.edges_in.get(rt, ()))

    def critical_path_length(self) -> int:
        priority = compute_priorities(self)
        return max(priority.values(), default=0)


def build_dependence_graph(program: RTProgram,
                           rts: list[RT] | None = None) -> DependenceGraph:
    """Analyse ``rts`` (default: the program's own transfer list).

    Passing modified RTs (after instruction-set imposition / merging)
    is the normal flow — the value and memory annotations survive the
    rewriting, so the analysis is identical.
    """
    if rts is None:
        rts = program.rts
    edges: list[Edge] = []

    producers: dict[int, RT] = {}
    for rt in rts:
        for dest in rt.destinations:
            producers.setdefault(dest.value, rt)

    live_ins = program.live_in_values()
    carry_new = program.loop_new_values()

    # RAW: value producers feed readers.
    readers: dict[int, list[RT]] = {}
    for rt in rts:
        for value in rt.read_values:
            readers.setdefault(value, []).append(rt)
            producer = producers.get(value)
            if producer is not None and producer is not rt:
                edges.append(Edge(producer, rt, producer.latency, EdgeKind.RAW))

    # WAR on loop-carried registers: the new incarnation must not be
    # written before the old one's last read.
    for carry in program.loop_carries:
        writer = producers.get(carry.new)
        if writer is None:
            continue
        for reader in readers.get(carry.old, []):
            if reader is not writer:
                edges.append(Edge(reader, writer, 0, EdgeKind.WAR))
        # CARRY (distance 1): this iteration's writer feeds next
        # iteration's readers — used by the folding scheduler only.
        for reader in readers.get(carry.old, []):
            if reader is not writer:
                edges.append(
                    Edge(writer, reader, writer.latency, EdgeKind.CARRY, distance=1)
                )

    # MEM: program order per symbolic location.
    last_write: dict[str, RT] = {}
    last_reads: dict[str, list[RT]] = {}
    for rt in rts:
        location = rt.memory_location
        if location is None:
            continue
        if rt.memory_effect == "read":
            writer = last_write.get(location)
            if writer is not None:
                edges.append(Edge(writer, rt, 1, EdgeKind.MEM))
            last_reads.setdefault(location, []).append(rt)
        elif rt.memory_effect == "write":
            writer = last_write.get(location)
            if writer is not None:
                edges.append(Edge(writer, rt, 1, EdgeKind.MEM))
            for reader in last_reads.get(location, []):
                edges.append(Edge(reader, rt, 0, EdgeKind.MEM))
            last_reads[location] = []
            last_write[location] = rt

    _ = live_ins, carry_new  # documented above; kept for readability
    return DependenceGraph(rts=list(rts), edges=edges)


def compute_priorities(graph: DependenceGraph) -> dict[RT, int]:
    """Longest path (in cycles) from each RT to any sink.

    The classic list-scheduling priority: transfers on the critical
    path first.  Computed over distance-0 edges (the block body).
    """
    successors, predecessors = graph.edges_out, graph.edges_in
    priority: dict[RT, int] = {}

    order: list[RT] = []
    # Kahn's algorithm on the reversed graph (process sinks first).
    remaining = {rt: len(successors[rt]) for rt in graph.rts}
    stack = [rt for rt, n in remaining.items() if n == 0]
    while stack:
        rt = stack.pop()
        order.append(rt)
        priority[rt] = max(
            (priority[e.dst] + e.delay for e in successors[rt]),
            default=rt.latency - 1,
        )
        for edge in predecessors[rt]:
            remaining[edge.src] -= 1
            if remaining[edge.src] == 0:
                stack.append(edge.src)
    if len(order) != len(graph.rts):
        from ..errors import SchedulingError
        raise SchedulingError(
            "dependence cycle among register transfers within one "
            "iteration (is a state read at delay 0?)"
        )
    return priority
