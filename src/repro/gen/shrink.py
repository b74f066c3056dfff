"""Greedy failure minimization for fuzz findings.

A mismatch found on a 20-node random graph is a debugging session; the
same mismatch on a 4-node graph is a unit test.  :func:`shrink_dfg`
repeatedly tries structure-preserving reductions — reroute a node's
consumers to one of its operands and drop the node, drop surplus
outputs, sweep dead nodes — keeping each candidate only if the caller's
predicate says the failure still reproduces.  Every candidate is
rebuilt through :class:`~repro.lang.dfg.Dfg` validation, so the shrunk
graph is as well-formed as the original: it compiles, simulates and
emits back to source (:func:`repro.lang.emit_source`) like any other
application.

The predicate is arbitrary (the fuzz harness passes "same differential
mismatch"), which keeps the shrinker honest: it cannot accidentally
'fix' the bug while shrinking, because such candidates are rejected.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SourceError
from ..lang.dfg import Dfg, Node, NodeKind


def _rebuild(dfg: Dfg, drop: set[int], reroute: dict[int, int]) -> Dfg:
    """A compact, revalidated DFG without ``drop``, arguments remapped
    through ``reroute`` (old id -> old id of a surviving node)."""
    surviving = [node for node in dfg.nodes if node.id not in drop]
    new_ids = {node.id: index for index, node in enumerate(surviving)}

    def remap(arg: int) -> int:
        while arg in reroute:
            arg = reroute[arg]
        return new_ids[arg]

    nodes = [
        Node(id=new_ids[node.id], kind=node.kind, name=node.name,
             args=tuple(remap(arg) for arg in node.args),
             delay=node.delay, label=node.label)
        for node in surviving
    ]
    inputs = [node.name for node in nodes if node.kind is NodeKind.INPUT]
    outputs = [node.name for node in nodes if node.kind is NodeKind.OUTPUT]
    param_names = {node.name for node in nodes
                   if node.kind is NodeKind.PARAM}
    state_names = {node.name for node in nodes
                   if node.kind in (NodeKind.DELAY, NodeKind.STATE_WRITE)}
    shrunk = Dfg(
        name=dfg.name,
        nodes=nodes,
        params={name: value for name, value in dfg.params.items()
                if name in param_names},
        inputs=dict.fromkeys(inputs),
        outputs=outputs,
        states={name: spec for name, spec in dfg.states.items()
                if name in state_names},
    )
    shrunk.validate()
    return shrunk


def _value_nodes(dfg: Dfg) -> set[int]:
    """Ids of nodes that produce a value consumers may read."""
    return {node.id for node in dfg.nodes
            if node.kind not in (NodeKind.OUTPUT, NodeKind.STATE_WRITE)}


def _candidates(dfg: Dfg):
    """Yield ``(drop, reroute)`` reduction attempts, boldest first."""
    consumers = dfg.consumer_index()
    n_outputs = sum(1 for node in dfg.nodes
                    if node.kind is NodeKind.OUTPUT)
    read_states = {node.name for node in dfg.nodes
                   if node.kind is NodeKind.DELAY}
    values = sorted(_value_nodes(dfg))

    for node in reversed(dfg.nodes):
        if node.kind is NodeKind.OUTPUT:
            if n_outputs > 1:
                yield {node.id}, {}
        elif node.kind is NodeKind.STATE_WRITE:
            if node.name not in read_states:
                yield {node.id}, {}
        elif not consumers.get(node.id):
            yield {node.id}, {}
        elif node.kind is NodeKind.OP:
            for arg in dict.fromkeys(node.args):
                yield {node.id}, {node.id: arg}
        else:
            # INPUT / PARAM / DELAY with consumers: reroute to the
            # earliest other value (defined before this node, hence
            # before every consumer).
            for target in values:
                if target < node.id:
                    yield {node.id}, {node.id: target}
                    break

    dead = {node.id for node in dfg.nodes
            if node.kind not in (NodeKind.OUTPUT, NodeKind.STATE_WRITE)
            and not consumers.get(node.id)}
    if len(dead) > 1:
        yield dead, {}


def shrink_dfg(
    dfg: Dfg,
    still_fails: Callable[[Dfg], bool],
    max_attempts: int = 400,
) -> Dfg:
    """Greedily minimize ``dfg`` while ``still_fails`` holds.

    Each accepted reduction restarts the scan (a removal often unlocks
    further ones); ``max_attempts`` bounds the total number of
    predicate evaluations, since each one typically costs a compile
    plus a differential simulation.  Returns the smallest failing graph
    found — ``dfg`` itself if nothing could be removed.
    """
    attempts = 0
    current = dfg
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for drop, reroute in _candidates(current):
            if attempts >= max_attempts:
                break
            try:
                candidate = _rebuild(current, drop, reroute)
            except (SourceError, KeyError):
                continue
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current
