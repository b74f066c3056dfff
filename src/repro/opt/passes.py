"""Machine-independent optimization passes over the DFG.

Every pass is a pure rewrite: it receives a validated
:class:`~repro.lang.dfg.Dfg` and returns a *new*, semantically
equivalent one plus a :class:`PassStats` record (or the input graph
itself when it changed nothing).  Nodes are frozen: the new graph
shares every node the pass left alone and builds only the ones it
rewrites.

Semantic equivalence is defined bit-exactly over the core's
fixed-point arithmetic (:mod:`repro.fixed`): the reference interpreter
and the cycle-accurate simulator must produce identical output streams
for the original and the optimized graph.  That is why constant folding evaluates on
*quantized* coefficients, why ``x * 1.0`` only fires when ``1.0`` is
exactly representable, and why ``pass``/``pass_clip`` collapse relies
on the range invariant (every value flowing through the graph is
already inside the representable range, so ``wrap`` and ``clip`` are
identities on it).

Passes communicate through three mechanisms:

* *forwarding* — a node's consumers are redirected to another value
  (identity simplification, CSE).  The bypassed node stays in the
  graph; dead-code elimination removes it in the same pipeline.
* *replacement* — a node is rewritten in place, keeping its id
  (constant folding turns an OP into a PARAM; strength reduction turns
  a multiply into a shift).
* *removal* — dead-code elimination drops nodes and renumbers the
  survivors (node ids index the node list).

Core-aware passes receive the :class:`~repro.arch.library.CoreSpec`
through the :class:`PassContext`; purely machine-independent passes
only use its fixed-point format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..fixed import Q15, FixedFormat
from ..lang.dfg import Dfg, Node, NodeKind

#: Operations whose operands the optimizer may reorder.  This is a
#: property of the fixed-point semantics (wrap/clip addition and the
#: fractional multiply are commutative), not of any core's routing.
COMMUTATIVE_OPS = frozenset({"add", "add_clip", "mult"})


@dataclass
class PassContext:
    """Everything a pass may consult besides the graph itself."""

    fmt: FixedFormat = Q15
    core: object | None = None     # CoreSpec, for core-aware passes


@dataclass
class PassStats:
    """What one pass did to one graph."""

    name: str
    rewrites: int = 0              # folds / forwards / replacements
    removed: int = 0               # nodes dropped (DCE only)
    detail: dict[str, int] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        """True when the pass rewrote or removed anything."""
        return bool(self.rewrites or self.removed)

    def count(self, what: str, n: int = 1) -> None:
        """Record ``n`` rewrites of kind ``what`` (e.g. ``x*0``)."""
        self.detail[what] = self.detail.get(what, 0) + n
        self.rewrites += n


class Pass:
    """Base class: a named rewrite of the DFG."""

    name = "?"

    def run(self, dfg: Dfg, ctx: PassContext) -> tuple[Dfg, PassStats]:
        """Rewrite ``dfg`` under ``ctx``; must return a new,
        semantically equivalent graph plus the pass statistics (the
        input graph is never mutated)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Shared rewrite plumbing
# ---------------------------------------------------------------------------

def _resolver(forward: dict[int, int]):
    """Path-compressed lookup through a forwarding map."""

    def resolve(node_id: int) -> int:
        seen = []
        while node_id in forward:
            seen.append(node_id)
            node_id = forward[node_id]
        for s in seen:
            forward[s] = node_id
        return node_id

    return resolve


def _rewired(node: Node, args: tuple[int, ...]) -> Node:
    """``node`` reading ``args``: the node itself when they are its own."""
    if args == node.args:
        return node
    return Node(id=node.id, kind=node.kind, name=node.name, args=args,
                delay=node.delay, label=node.label)


def _with_nodes(dfg: Dfg, nodes: list[Node],
                params: dict[str, float] | None = None) -> Dfg:
    """A fresh Dfg sharing ports/states but with rewritten nodes."""
    return replace(
        dfg, nodes=nodes, params=dfg.params if params is None else params)


def _intern_constant(params: dict[str, float], fmt: FixedFormat,
                     quantized: int) -> str:
    """A parameter name whose quantized value is ``quantized``.

    Reuses an existing coefficient when one quantizes identically (the
    constant pool stays minimal — one ROM word per distinct value);
    otherwise coins a fresh ``c<value>`` name.
    """
    for name, value in params.items():
        if fmt.from_float(value) == quantized:
            return name
    base = f"c{quantized}" if quantized >= 0 else f"c_m{-quantized}"
    name = base
    suffix = 0
    while name in params:
        suffix += 1
        name = f"{base}_{suffix}"
    params[name] = fmt.to_float(quantized)
    return name


def _quantized_params(dfg: Dfg, fmt: FixedFormat) -> dict[int, int]:
    """PARAM node id -> quantized coefficient value."""
    return {
        node.id: fmt.from_float(dfg.params[node.name])
        for node in dfg.nodes
        if node.kind is NodeKind.PARAM
    }


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

class ConstantFoldingPass(Pass):
    """Evaluate OP nodes whose inputs are all coefficients.

    Folding happens on *quantized* values with the exact wrap/clip
    semantics of :meth:`repro.fixed.FixedFormat.apply`, so the folded
    coefficient is bit-identical to what the hardware would have
    computed — including saturation (``add_clip`` of two large
    coefficients folds to the rail).  Whole constant subtrees collapse
    in a single sweep because the node list is topologically ordered.
    Operations without fixed-point semantics (custom ASU ops) are left
    alone.
    """

    name = "fold"

    def run(self, dfg: Dfg, ctx: PassContext) -> tuple[Dfg, PassStats]:
        stats = PassStats(self.name)
        fmt = ctx.fmt
        params = dict(dfg.params)
        const: dict[int, int] = {}
        nodes: list[Node] = []
        for node in dfg.nodes:
            if node.kind is NodeKind.PARAM:
                const[node.id] = fmt.from_float(params[node.name])
            elif (node.kind is NodeKind.OP and node.args
                    and all(arg in const for arg in node.args)):
                try:
                    value = fmt.apply(node.name, *[const[a] for a in node.args])
                except ValueError:
                    nodes.append(node)
                    continue
                name = _intern_constant(params, fmt, value)
                const[node.id] = value
                nodes.append(Node(id=node.id, kind=NodeKind.PARAM, name=name,
                                  label=node.label))
                stats.count("folds")
                continue
            nodes.append(node)
        if not stats.changed:
            return dfg, stats
        return _with_nodes(dfg, nodes, params), stats


# ---------------------------------------------------------------------------
# Algebraic identity simplification
# ---------------------------------------------------------------------------

class AlgebraicSimplifyPass(Pass):
    """Identities that hold bit-exactly in the fixed-point domain.

    * ``pass(x)`` / ``pass_clip(x)`` -> ``x``   (covers double-pass
      chains: each link forwards to the previous one's source)
    * ``add(x, 0)``, ``add_clip(x, 0)``, ``sub(x, 0)`` -> ``x``
    * ``mult(x, c)`` with ``c`` quantizing to exactly 1.0 -> ``x``
      (in Q15 the value 1.0 is not representable, so this only fires
      on formats with headroom, e.g. Q8.8)
    * ``mult(x, 0)`` and ``sub(x, x)`` -> the constant 0

    All rely on the range invariant: every value in the graph is inside
    the representable range, so ``wrap``/``clip`` of an unmodified
    value is the value itself.
    """

    name = "algebraic"

    def run(self, dfg: Dfg, ctx: PassContext) -> tuple[Dfg, PassStats]:
        stats = PassStats(self.name)
        fmt = ctx.fmt
        params = dict(dfg.params)
        const = _quantized_params(dfg, fmt)
        forward: dict[int, int] = {}
        resolve = _resolver(forward)
        nodes: list[Node] = []
        for node in dfg.nodes:
            args = tuple(resolve(arg) for arg in node.args)
            if node.kind is not NodeKind.OP:
                nodes.append(_rewired(node, args))
                continue
            target = self._forward_target(node.name, args, const, fmt, stats)
            if target is not None:
                forward[node.id] = target
                nodes.append(_rewired(node, args))
                continue
            if self._is_zero(node.name, args, const):
                name = _intern_constant(params, fmt, 0)
                const[node.id] = 0
                nodes.append(Node(id=node.id, kind=NodeKind.PARAM, name=name,
                                  label=node.label))
                stats.count("zeros")
                continue
            nodes.append(_rewired(node, args))
        if not stats.changed:
            return dfg, stats
        return _with_nodes(dfg, nodes, params), stats

    @staticmethod
    def _forward_target(name: str, args: tuple[int, ...],
                        const: dict[int, int], fmt: FixedFormat,
                        stats: PassStats) -> int | None:
        if name in ("pass", "pass_clip") and len(args) == 1:
            stats.count("pass_collapsed")
            return args[0]
        if len(args) != 2:
            return None
        c0, c1 = const.get(args[0]), const.get(args[1])
        if name in ("add", "add_clip"):
            if c0 == 0:
                stats.count("add_zero")
                return args[1]
            if c1 == 0:
                stats.count("add_zero")
                return args[0]
        elif name == "sub" and c1 == 0:
            stats.count("sub_zero")
            return args[0]
        elif name == "mult":
            one = fmt.scale if fmt.scale <= fmt.max_value else None
            if one is not None and c0 == one:
                stats.count("mult_one")
                return args[1]
            if one is not None and c1 == one:
                stats.count("mult_one")
                return args[0]
        return None

    @staticmethod
    def _is_zero(name: str, args: tuple[int, ...],
                 const: dict[int, int]) -> bool:
        if name == "mult" and len(args) == 2:
            return const.get(args[0]) == 0 or const.get(args[1]) == 0
        if name == "sub" and len(args) == 2:
            return args[0] == args[1]
        return False


# ---------------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------------

class CsePass(Pass):
    """Merge nodes that provably compute the same value every iteration.

    * OP nodes with the same operation and operand values (operands of
      commutative operations are compared order-insensitively);
    * DELAY nodes reading the same state at the same distance — each
      merge saves one address computation *and* one RAM read per
      iteration, which matters on cores where the RAM is the busiest
      unit;
    * PARAM nodes whose coefficients quantize to the same word (one
      fetch and one ROM word per distinct constant).

    INPUT nodes are never merged (each one consumes a sample from the
    port stream), and OUTPUT/STATE_WRITE are effects, not values.
    """

    name = "cse"

    def run(self, dfg: Dfg, ctx: PassContext) -> tuple[Dfg, PassStats]:
        stats = PassStats(self.name)
        fmt = ctx.fmt
        seen: dict[tuple, int] = {}
        forward: dict[int, int] = {}
        resolve = _resolver(forward)
        nodes: list[Node] = []
        for node in dfg.nodes:
            args = tuple(resolve(arg) for arg in node.args)
            key = self._key(node, args, dfg, fmt)
            if key is not None:
                existing = seen.get(key)
                if existing is not None:
                    forward[node.id] = existing
                    stats.count(f"{node.kind.value}_merged")
                else:
                    seen[key] = node.id
            nodes.append(_rewired(node, args))
        if not stats.changed:
            return dfg, stats
        return _with_nodes(dfg, nodes), stats

    @staticmethod
    def _key(node: Node, args: tuple[int, ...], dfg: Dfg,
             fmt: FixedFormat) -> tuple | None:
        if node.kind is NodeKind.PARAM:
            return ("param", fmt.from_float(dfg.params[node.name]))
        if node.kind is NodeKind.DELAY:
            return ("delay", node.name, node.delay)
        if node.kind is NodeKind.OP:
            if node.name in COMMUTATIVE_OPS:
                return ("op", node.name, tuple(sorted(args)))
            return ("op", node.name, args)
        return None


# ---------------------------------------------------------------------------
# Strength reduction (core-aware)
# ---------------------------------------------------------------------------

class StrengthReductionPass(Pass):
    """Turn power-of-two multiplies into shifts the core can execute.

    The fractional multiply by ``2^m / 2^frac`` is exactly an
    arithmetic shift right by ``frac - m`` (both floor-divide), so
    ``mult(x, c)`` with a positive power-of-two coefficient becomes the
    unary ``asr<k>`` operation — *when* the target core's OPU library
    offers it (shift distances are encoded in the opcode, see
    :func:`repro.arch.opu.standard_shift_operations`).  This frees the
    multiplier, and when the coefficient has no other readers it also
    drops a constant fetch per iteration plus the ROM word.
    """

    name = "strength"

    def run(self, dfg: Dfg, ctx: PassContext) -> tuple[Dfg, PassStats]:
        stats = PassStats(self.name)
        core = ctx.core
        if core is None:
            return dfg, stats
        fmt = ctx.fmt
        const = _quantized_params(dfg, fmt)
        index = dfg.consumer_index()
        reduced: dict[int, set[int]] = {}   # PARAM id -> rewritten mult ids
        nodes: list[Node] = []
        for node in dfg.nodes:
            shift = None
            if (node.kind is NodeKind.OP and node.name == "mult"
                    and len(node.args) == 2):
                shift = self._shift_of(node.args, const, fmt, core)
            if shift is None:
                nodes.append(node)
                continue
            coef_arg, signal_arg, distance = shift
            nodes.append(Node(id=node.id, kind=NodeKind.OP,
                              name=f"asr{distance}", args=(signal_arg,),
                              label=node.label))
            reduced.setdefault(coef_arg, set()).add(node.id)
            stats.count("mults_reduced")
        if not stats.changed:
            return dfg, stats
        # A coefficient whose every consumer was strength-reduced is now
        # dead: DCE will drop its fetch and its ROM word.
        freed = sum(
            1 for coef, mults in reduced.items()
            if all(consumer.id in mults for consumer in index[coef])
        )
        if freed:
            stats.detail["coefficients_freed"] = freed
        return _with_nodes(dfg, nodes), stats

    @staticmethod
    def _shift_of(args: tuple[int, ...], const: dict[int, int],
                  fmt: FixedFormat, core) -> tuple[int, int, int] | None:
        for coef_arg, signal_arg in ((args[0], args[1]), (args[1], args[0])):
            value = const.get(coef_arg)
            if value is None or value <= 0 or value & (value - 1):
                continue
            distance = fmt.frac_bits - (value.bit_length() - 1)
            if distance < 1:
                continue            # exact 1.0: algebraic identity's job
            if _supports_dataflow_op(core, f"asr{distance}"):
                return coef_arg, signal_arg, distance
        return None


def _supports_dataflow_op(core, operation: str) -> bool:
    """Whether a dataflow unit (not address/constant/memory machinery)
    of the core can execute ``operation``."""
    return any(opu.supports(operation) and opu.kind.is_dataflow
               for opu in core.datapath.opus.values())


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------

class DcePass(Pass):
    """Remove nodes that cannot influence any output stream.

    Liveness is the backward closure from the OUTPUT nodes, with one
    refinement over the RT generator's own sweep: a STATE_WRITE is a
    root only while some *live* DELAY reads its state.  A delay line
    that no live computation taps is deleted wholesale — write, address
    computations and RAM allocation included.  Unreferenced
    coefficients and states are pruned from the declaration tables so
    the ROM and delay-line memory stay minimal.

    Node ids index the node list, so removal renumbers the survivors
    (definition order is preserved, keeping the list topologically
    sorted).
    """

    name = "dce"

    def run(self, dfg: Dfg, ctx: PassContext) -> tuple[Dfg, PassStats]:
        stats = PassStats(self.name)
        writes_of: dict[str, list[int]] = {}
        for node in dfg.nodes:
            if node.kind is NodeKind.STATE_WRITE:
                writes_of.setdefault(node.name, []).append(node.id)

        live: set[int] = set()
        work = [n.id for n in dfg.nodes if n.kind is NodeKind.OUTPUT]
        while work:
            node_id = work.pop()
            if node_id in live:
                continue
            live.add(node_id)
            node = dfg.node(node_id)
            work.extend(node.args)
            if node.kind is NodeKind.DELAY:
                work.extend(writes_of.get(node.name, ()))

        kept = [node for node in dfg.nodes if node.id in live]
        stats.removed = len(dfg.nodes) - len(kept)
        if not stats.removed:
            return dfg, stats

        # Before the first removed node, ids and operands stay put.
        id_map = {node.id: index for index, node in enumerate(kept)}
        nodes = [
            node if node.id == index else Node(
                id=index, kind=node.kind, name=node.name,
                args=tuple(id_map[a] for a in node.args),
                delay=node.delay, label=node.label)
            for index, node in enumerate(kept)
        ]
        live_params = {n.name for n in nodes if n.kind is NodeKind.PARAM}
        live_states = {
            n.name for n in nodes
            if n.kind in (NodeKind.DELAY, NodeKind.STATE_WRITE)
        }
        pruned = replace(
            dfg,
            nodes=nodes,
            params={k: v for k, v in dfg.params.items() if k in live_params},
            states={k: v for k, v in dfg.states.items() if k in live_states},
        )
        return pruned, stats
