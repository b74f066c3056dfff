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
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

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


@dataclass(frozen=True)
class Dfg:
    """A validated time-loop application.

    Frozen, its containers read-only (tuples and mapping proxies): a
    pass that changes a graph builds a new one.  What is derived from a
    graph (its consumer index, its content digest) is therefore computed
    once and kept in the instance ``__dict__``, outside the fields, so
    it stays out of equality, ``repr`` and the pickled state.
    """

    name: str
    nodes: tuple[Node, ...]
    params: Mapping[str, float]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    states: Mapping[str, StateSpec]

    def __post_init__(self) -> None:
        self.__dict__.update(
            nodes=tuple(self.nodes),
            params=MappingProxyType(dict(self.params)),
            inputs=tuple(self.inputs),
            outputs=tuple(self.outputs),
            states=MappingProxyType(dict(self.states)),
        )

    def __reduce__(self):
        # A mapping proxy does not pickle: ship plain dicts.  Only the
        # fields travel, so what was derived stays out.
        return Dfg, (self.name, self.nodes, dict(self.params), self.inputs,
                     self.outputs, dict(self.states))

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def producers(self) -> dict[int, Node]:
        """Map node id → node (all nodes produce at most one value)."""
        return {n.id: n for n in self.nodes}

    def consumer_index(self) -> dict[int, tuple[Node, ...]]:
        """Map node id → the nodes reading its value, in definition
        order (each consumer listed once, even when it reads the value
        on several operand positions).

        Built once per graph in one O(nodes + edges) sweep; repeated
        consumer queries — the optimizer and the RT generator's route
        planning ask for every node's readers — stay linear instead of
        the quadratic per-node scan.
        """
        index = self.__dict__.get("_consumers")
        if index is None:
            readers: dict[int, list[Node]] = {n.id: [] for n in self.nodes}
            for node in self.nodes:
                for arg in dict.fromkeys(node.args):
                    readers[arg].append(node)
            index = self.__dict__["_consumers"] = {
                node_id: tuple(nodes) for node_id, nodes in readers.items()
            }
        return index

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
        """Raise :class:`SemanticError` listing the error findings of
        :func:`repro.analyze.verify_dfg`, which holds the graph's rules
        (single assignment, definition before use, delay windows,
        declared names, one write per state and frame)."""
        # Imported here: the verifiers import repro.arch, which would
        # cycle at module level.
        from ..analyze.verifiers import verify_dfg

        errors = [f.message for f in verify_dfg(self) if f.is_error]
        if errors:
            raise SemanticError("; ".join(errors))
