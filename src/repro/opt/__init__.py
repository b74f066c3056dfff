"""Machine-independent DFG optimizer (the layer in front of RT
generation).

The paper's figure of merit is the time-loop length in instructions;
every redundant transfer the RT generator emits is a slot the scheduler
must pack.  This package shrinks the data-flow graph *before* lowering:
constant folding on quantized coefficients, algebraic identities that
hold bit-exactly in the fixed-point domain, common-subexpression
elimination (shared delay-line reads in particular), core-aware
strength reduction of power-of-two multiplies, and dead-code
elimination.  :func:`optimize` is the entry point; the pipeline runs at
``-O0``/``-O1``/``-O2`` (see :mod:`repro.opt.manager`).
"""

from .manager import (
    MAX_ITERATIONS,
    OptimizationError,
    OptReport,
    PassManager,
    core_specialization_passes,
    machine_independent_passes,
    optimize,
    optimize_machine_independent,
    specialize_for_core,
)
from .passes import (
    COMMUTATIVE_OPS,
    AlgebraicSimplifyPass,
    ConstantFoldingPass,
    CsePass,
    DcePass,
    Pass,
    PassContext,
    PassStats,
    StrengthReductionPass,
)

__all__ = [
    "AlgebraicSimplifyPass",
    "COMMUTATIVE_OPS",
    "ConstantFoldingPass",
    "CsePass",
    "DcePass",
    "MAX_ITERATIONS",
    "OptReport",
    "OptimizationError",
    "Pass",
    "PassContext",
    "PassManager",
    "PassStats",
    "StrengthReductionPass",
    "core_specialization_passes",
    "machine_independent_passes",
    "optimize",
    "optimize_machine_independent",
    "specialize_for_core",
]
