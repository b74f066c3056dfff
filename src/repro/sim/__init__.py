"""Cycle-accurate core simulation.

One machine model, the decoded plan: :func:`~repro.sim.batch.decode_program`
lowers an encoded program once into a flat
:class:`~repro.sim.batch.DecodedPlan`, which two engines step — one
lane at a time in pure Python (:class:`~repro.sim.batch.DecodedSimulator`)
or over a whole stimulus batch as numpy array ops
(:class:`~repro.sim.batch.BatchSimulator`; numpy is an optional extra).
:func:`~repro.sim.batch.run_program` and :func:`~repro.sim.batch.run_batch`
pick an engine via :func:`~repro.sim.batch.resolve_engine`.  The oracle every engine is
checked against is :func:`repro.lang.reference.run_reference`.
"""

from .batch import (
    ENGINES,
    NUMPY_AVAILABLE,
    BatchSimulator,
    DecodedPlan,
    DecodedSimulator,
    PlanError,
    decode_program,
    default_frame_count,
    resolve_engine,
    run_batch,
    run_program,
)

__all__ = [
    "ENGINES",
    "NUMPY_AVAILABLE",
    "BatchSimulator",
    "DecodedPlan",
    "DecodedSimulator",
    "PlanError",
    "decode_program",
    "default_frame_count",
    "resolve_engine",
    "run_batch",
    "run_program",
]
