"""Python-embedded builder for time-loop applications.

The textual frontend (:mod:`repro.lang.parser`) and the workload
generators (:mod:`repro.apps`) both construct their data-flow graphs
through this builder; it is also the convenient way to write
applications in tests.

Example — the paper's treble section (section 7)::

    b = DfgBuilder("treble")
    d1, d2, e1 = b.param("d1", 0.4), b.param("d2", -0.2), b.param("e1", 0.3)
    u = b.state("u", depth=2)
    v = b.state("v", depth=2)
    b.write(u, b.input("IN"))
    x0 = b.delay(u, 2)
    m = b.op("mult", d2, x0)
    a = b.op("pass", m)
    x2 = b.delay(v, 1)
    m = b.op("mult", e1, x2)
    a = b.op("add", m, a)
    x1 = b.delay(u, 1)
    m = b.op("mult", d1, x1)
    rd = b.op("add_clip", m, a)
    b.write(v, rd)
    b.output("out", rd)
    dfg = b.build()
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SemanticError
from .dfg import Dfg, Node, NodeKind, StateSpec


@dataclass(frozen=True)
class Ref:
    """An opaque handle to a DFG value (node id) or state."""

    node_id: int


@dataclass(frozen=True)
class StateRef:
    name: str


class DfgBuilder:
    """Incrementally build and validate a :class:`Dfg`."""

    def __init__(self, name: str):
        self.name = name
        self._nodes: list[Node] = []
        self._params: dict[str, float] = {}
        self._param_nodes: dict[str, int] = {}
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._states: dict[str, StateSpec] = {}

    # ------------------------------------------------------------------

    def _add(self, kind: NodeKind, name: str, args: tuple[int, ...] = (),
             delay: int = 0, label: str | None = None) -> Ref:
        node = Node(id=len(self._nodes), kind=kind, name=name, args=args,
                    delay=delay, label=label)
        self._nodes.append(node)
        return Ref(node.id)

    def param(self, name: str, value: float) -> Ref:
        """Declare (or re-reference) a coefficient.

        Multiple references to one parameter share a single PARAM node,
        so a coefficient used twice is fetched once per use site but
        occupies one ROM word.
        """
        if name in self._params:
            if self._params[name] != value:
                raise SemanticError(
                    f"parameter {name!r} redefined with a different value"
                )
            return Ref(self._param_nodes[name])
        self._params[name] = value
        ref = self._add(NodeKind.PARAM, name)
        self._param_nodes[name] = ref.node_id
        return ref

    def input(self, port: str) -> Ref:
        """Read one sample from input port ``port`` this iteration."""
        if port not in self._inputs:
            self._inputs.append(port)
        return self._add(NodeKind.INPUT, port)

    def output(self, port: str, value: Ref) -> None:
        """Write ``value`` to output port ``port`` this iteration."""
        if port in self._outputs:
            raise SemanticError(f"output port {port!r} written twice")
        self._outputs.append(port)
        self._add(NodeKind.OUTPUT, port, (value.node_id,))

    def state(self, name: str, depth: int) -> StateRef:
        """Declare a delayed signal with history window ``depth``."""
        if depth < 1:
            raise SemanticError(f"state {name!r}: depth must be >= 1")
        if name in self._states:
            raise SemanticError(f"state {name!r} declared twice")
        self._states[name] = StateSpec(name, depth)
        return StateRef(name)

    def delay(self, state: StateRef, k: int, label: str | None = None) -> Ref:
        """Read ``state`` as it was ``k`` iterations ago (``s@k``)."""
        return self._add(NodeKind.DELAY, state.name, delay=k, label=label)

    def op(self, operation: str, *args: Ref, label: str | None = None) -> Ref:
        """A dataflow operation on previously-built values."""
        if not args:
            raise SemanticError(f"operation {operation!r} needs operands")
        return self._add(
            NodeKind.OP, operation, tuple(a.node_id for a in args), label=label
        )

    def write(self, state: StateRef, value: Ref) -> None:
        """Commit this iteration's value of ``state`` (``s = expr``)."""
        self._add(NodeKind.STATE_WRITE, state.name, (value.node_id,))

    # ------------------------------------------------------------------

    def build(self) -> Dfg:
        dfg = Dfg(
            name=self.name,
            nodes=self._nodes,
            params=self._params,
            inputs=self._inputs,
            outputs=self._outputs,
            states=self._states,
        )
        dfg.validate()
        return dfg
