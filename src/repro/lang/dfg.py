"""Data-flow graph IR of a time-loop application.

The paper's source language (section 7) is applicative straight-line
code inside an implicit *time-loop* — "the repetitive part of the (DSP)
application".  Signals are single-assignment per iteration; *states*
(delayed signals such as ``u`` and ``v`` of figure 7) carry values
across iterations and are read with the delay operator ``u@2``.

Node kinds
----------
``INPUT``   — read one sample from an input port (IPB).
``OUTPUT``  — write one sample to an output port (OPB).
``PARAM``   — a named coefficient (quantised to the core's fixed-point
              format; fetched from ROM or the program-constant unit).
``DELAY``   — read state ``s`` as it was ``k`` iterations ago (k >= 1).
``OP``      — a dataflow operation (``mult``, ``add``, ``add_clip``,
              ``pass``, ``pass_clip``, ``sub``, or any ASU operation).
``STATE_WRITE`` — commit the value of state ``s`` for this iteration.

Delay semantics: within one iteration, ``s@k`` always refers to the
value committed ``k`` iterations earlier — never to this iteration's
write, regardless of textual order.  Histories start at zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import SemanticError


class NodeKind(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    PARAM = "param"
    DELAY = "delay"
    OP = "op"
    STATE_WRITE = "state_write"


@dataclass(frozen=True)
class Node:
    """One DFG node.  ``args`` are node ids of the consumed values.

    Frozen: an optimizer pass hands the nodes it leaves alone to the
    graph it returns, so one node can belong to several graphs.
    """

    id: int
    kind: NodeKind
    name: str                      # port / param / state / operation name
    args: tuple[int, ...] = ()
    delay: int = 0                 # for DELAY nodes
    label: str | None = None       # the source signal name, if any

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f"@{self.delay}" if self.kind is NodeKind.DELAY else ""
        args = f"({', '.join(map(str, self.args))})" if self.args else ""
        return f"n{self.id}:{self.kind.value}:{self.name}{extra}{args}"


@dataclass(frozen=True)
class StateSpec:
    """A delayed signal: its maximum delay defines the history window."""

    name: str
    depth: int


@dataclass
class Dfg:
    """A validated time-loop application."""

    name: str
    nodes: list[Node]
    params: dict[str, float]
    inputs: list[str]
    outputs: list[str]
    states: dict[str, StateSpec]
    #: Lazily-built consumer index (node id -> consuming nodes).  Keyed
    #: on the node-list length so append/remove rebuilds automatically;
    #: replacing a node in place must call :meth:`invalidate_consumers`.
    _consumer_cache: dict[int, tuple[Node, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)
    _consumer_cache_len: int = field(
        default=-1, init=False, repr=False, compare=False)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def producers(self) -> dict[int, Node]:
        """Map node id → node (all nodes produce at most one value)."""
        return {n.id: n for n in self.nodes}

    def consumer_index(self) -> dict[int, tuple[Node, ...]]:
        """Map node id → the nodes reading its value, in definition
        order (each consumer listed once, even when it reads the value
        on several operand positions).

        Built in one O(nodes + edges) sweep and cached; repeated
        consumer queries — the optimizer and the RT generator's route
        planning ask for every node's readers — stay linear instead of
        the quadratic per-node scan.
        """
        if (self._consumer_cache is None
                or self._consumer_cache_len != len(self.nodes)):
            index: dict[int, list[Node]] = {n.id: [] for n in self.nodes}
            for node in self.nodes:
                for arg in dict.fromkeys(node.args):
                    index[arg].append(node)
            self._consumer_cache = {
                node_id: tuple(readers) for node_id, readers in index.items()
            }
            self._consumer_cache_len = len(self.nodes)
        return self._consumer_cache

    def __getstate__(self) -> dict:
        # The consumer index is derived and filled in place by whichever
        # stage asks first; pickled, it would make one DFG serialize
        # differently before and after a later stage read it.
        state = self.__dict__.copy()
        state["_consumer_cache"] = None
        state["_consumer_cache_len"] = -1
        return state

    def invalidate_consumers(self) -> None:
        """Drop the cached consumer index after nodes were replaced in place."""
        self._consumer_cache = None
        self._consumer_cache_len = -1

    def consumers(self, node_id: int) -> list[Node]:
        return list(self.consumer_index().get(node_id, ()))

    def op_histogram(self) -> dict[str, int]:
        """Count OP nodes per operation name (workload profile)."""
        histogram: dict[str, int] = {}
        for node in self.nodes:
            if node.kind is NodeKind.OP:
                histogram[node.name] = histogram.get(node.name, 0) + 1
        return histogram

    def validate(self) -> None:
        """Check single-assignment, delay bounds and dangling references."""
        ids = set()
        state_writes: dict[str, int] = {}
        for node in self.nodes:
            if node.id in ids:
                raise SemanticError(f"duplicate node id {node.id}")
            for arg in node.args:
                if arg not in ids:
                    raise SemanticError(
                        f"node n{node.id} ({node.name}) uses n{arg} before "
                        f"its definition"
                    )
            ids.add(node.id)
            if node.kind is NodeKind.DELAY:
                spec = self.states.get(node.name)
                if spec is None:
                    raise SemanticError(f"delay of unknown state {node.name!r}")
                if not 1 <= node.delay <= spec.depth:
                    raise SemanticError(
                        f"delay {node.name}@{node.delay} outside the state's "
                        f"window [1, {spec.depth}]"
                    )
            if node.kind is NodeKind.STATE_WRITE:
                if node.name not in self.states:
                    raise SemanticError(f"write to unknown state {node.name!r}")
                if node.name in state_writes:
                    raise SemanticError(
                        f"state {node.name!r} written twice in one iteration"
                    )
                state_writes[node.name] = node.id
            if node.kind is NodeKind.PARAM and node.name not in self.params:
                raise SemanticError(f"unknown parameter {node.name!r}")
            if node.kind is NodeKind.INPUT and node.name not in self.inputs:
                raise SemanticError(f"unknown input port {node.name!r}")
            if node.kind is NodeKind.OUTPUT and node.name not in self.outputs:
                raise SemanticError(f"unknown output port {node.name!r}")
        read_states = {
            n.name for n in self.nodes if n.kind is NodeKind.DELAY
        }
        unwritten = read_states - set(state_writes)
        if unwritten:
            raise SemanticError(
                f"states read but never written: {sorted(unwritten)}"
            )
