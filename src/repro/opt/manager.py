"""Pass manager and optimization levels.

The manager runs a pipeline of passes over a DFG and records what
every pass did in an :class:`OptReport`.  Every level is built from
two halves, and :func:`optimize` runs both:

* :func:`optimize_machine_independent` runs
  :func:`machine_independent_passes` (they only need the fixed-point
  format, so a design-space sweep shares their result across
  candidate cores);
* :func:`specialize_for_core` runs :func:`core_specialization_passes`
  against one core.

Levels mirror the classic compiler convention:

``-O0``
    Nothing.  The graph is lowered exactly as written — the mode every
    paper-reproduction bench pins, since the published figures describe
    unoptimized source.
``-O1`` (default)
    One sweep of constant folding, algebraic identity simplification,
    common-subexpression elimination and dead-code elimination.
``-O2``
    The ``-O1`` passes iterated to a fixpoint (each sweep can expose
    work for the next: a folded constant enables an identity, the
    identity exposes a common subexpression, ...), then core-aware
    strength reduction, CSE and DCE, again to a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError
from ..fixed import Q15, FixedFormat
from ..lang.dfg import Dfg
from .passes import (
    AlgebraicSimplifyPass,
    ConstantFoldingPass,
    CsePass,
    DcePass,
    Pass,
    PassContext,
    PassStats,
    StrengthReductionPass,
)

#: Safety cap on fixpoint iteration; real graphs settle in 2-3 sweeps.
MAX_ITERATIONS = 10


class OptimizationError(ReproError):
    """The optimizer was configured inconsistently."""


@dataclass
class OptReport:
    """Per-pass statistics of one optimizer run (a compile artifact)."""

    level: int
    nodes_before: int = 0
    nodes_after: int = 0
    iterations: int = 0
    passes: list[PassStats] = field(default_factory=list)

    @property
    def nodes_removed(self) -> int:
        """Net node-count reduction over the whole pipeline."""
        return self.nodes_before - self.nodes_after

    @property
    def changed(self) -> bool:
        """True when any pass rewrote or removed anything."""
        return any(stats.changed for stats in self.passes)

    def totals(self) -> dict[str, int]:
        """Aggregate rewrite counts per pass name over all iterations."""
        totals: dict[str, int] = {}
        for stats in self.passes:
            work = stats.rewrites + stats.removed
            if work:
                totals[stats.name] = totals.get(stats.name, 0) + work
        return totals

    def summary(self) -> str:
        """One-line digest, e.g. ``fold 2, cse 5, dce 9``."""
        totals = self.totals()
        if not totals:
            return "no rewrites"
        return ", ".join(f"{name} {count}" for name, count in totals.items())


class PassManager:
    """Run a pass pipeline over a DFG, once or to a fixpoint."""

    def __init__(self, passes: list[Pass], iterate: bool = False,
                 level: int = 0):
        self.passes = list(passes)
        self.iterate = iterate
        self.level = level

    def run(self, dfg: Dfg, core=None,
            fmt: FixedFormat | None = None) -> tuple[Dfg, OptReport]:
        """Run the pass pipeline over ``dfg`` (to a fixpoint when
        ``iterate``), returning the rewritten graph and its report.

        ``core`` feeds the core-aware passes and supplies the
        fixed-point format; ``fmt`` overrides the format when no core
        is at hand.
        """
        if fmt is None:
            fmt = (FixedFormat(core.data_width, core.frac_bits)
                   if core is not None else Q15)
        ctx = PassContext(fmt=fmt, core=core)
        report = OptReport(level=self.level, nodes_before=len(dfg.nodes))
        if not self.passes:
            report.nodes_after = len(dfg.nodes)
            return dfg, report
        dfg.validate()      # passes rely on topological node order
        max_sweeps = MAX_ITERATIONS if self.iterate else 1
        for _ in range(max_sweeps):
            report.iterations += 1
            sweep_changed = False
            for pass_ in self.passes:
                dfg, stats = pass_.run(dfg, ctx)
                report.passes.append(stats)
                sweep_changed = sweep_changed or stats.changed
            if not sweep_changed:
                break
        report.nodes_after = len(dfg.nodes)
        dfg.validate()
        return dfg, report


def _check_level(level: int) -> None:
    if level not in (0, 1, 2):
        raise OptimizationError(
            f"unknown optimization level {level!r}: expected 0, 1 or 2"
        )


def machine_independent_passes(level: int) -> list[Pass]:
    """The core-agnostic passes of ``level``.

    Everything except strength reduction: these passes depend only on
    the fixed-point format, so their result is shared across candidate
    cores during design-space exploration.
    """
    _check_level(level)
    if level == 0:
        return []
    return [
        ConstantFoldingPass(),
        AlgebraicSimplifyPass(),
        CsePass(),
        DcePass(),
    ]


def core_specialization_passes(level: int) -> list[Pass]:
    """The core-aware subset: what must re-run per candidate core.

    Only ``-O2`` has core-aware work — strength reduction rewrites
    power-of-two multiplies into the ``asr<k>`` shifts *this* core can
    execute, after which CSE/DCE clean up the exposed redundancy.
    """
    _check_level(level)
    if level < 2:
        return []
    return [StrengthReductionPass(), CsePass(), DcePass()]


def optimize_machine_independent(
    dfg: Dfg, level: int = 1, fmt: FixedFormat | None = None
) -> tuple[Dfg, OptReport]:
    """Run only the core-agnostic passes of ``level``.

    The shared half of a design-space sweep: optimize each application
    once per opt level here, then :func:`specialize_for_core` per
    candidate.  ``fmt`` defaults to Q15, the format of every core the
    intermediate-architecture generator synthesizes.
    """
    passes = machine_independent_passes(level)
    manager = PassManager(passes, iterate=(level >= 2), level=level)
    return manager.run(dfg, fmt=fmt)


def specialize_for_core(
    dfg: Dfg, core, level: int = 1
) -> tuple[Dfg, OptReport]:
    """Re-run the core-aware passes of ``level`` against ``core``.

    A no-op below ``-O2``.  Together with
    :func:`optimize_machine_independent` this factors :func:`optimize`
    into a shared prefix and a cheap per-core suffix; both halves are
    semantics-preserving, so any interleaving is bit-exact with the
    reference interpreter.
    """
    passes = core_specialization_passes(level)
    manager = PassManager(passes, iterate=bool(passes), level=level)
    return manager.run(dfg, core=core)


def optimize(dfg: Dfg, core=None, level: int = 1) -> tuple[Dfg, OptReport]:
    """Optimize ``dfg`` at ``level``; the main entry point.

    :func:`optimize_machine_independent` in ``core``'s fixed-point
    format (Q15 without a core), then :func:`specialize_for_core` when
    a core is given.  The returned report merges both halves: their
    passes in order, their iterations summed.
    """
    if core is None:
        return optimize_machine_independent(dfg, level)
    fmt = FixedFormat(core.data_width, core.frac_bits)
    dfg, report = optimize_machine_independent(dfg, level, fmt)
    dfg, specialized = specialize_for_core(dfg, core, level)
    report.nodes_after = specialized.nodes_after
    report.iterations += specialized.iterations
    report.passes.extend(specialized.passes)
    return dfg, report
