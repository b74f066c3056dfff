"""The compiled-program artifact bundle (the classic result object)."""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.library import CoreSpec
from ..core.artificial import ConflictModel
from ..encode.assembler import EncodedProgram
from ..lang.dfg import Dfg
from ..opt import OptReport
from ..rtgen.program import RTProgram
from ..sched.dependence import DependenceGraph
from ..sched.regalloc import Allocation
from ..sched.schedule import Schedule
from ..sim.batch import run_batch, run_program


@dataclass
class CompiledProgram:
    """Every artifact of one compilation, ready for inspection.

    ``dfg`` is the graph actually lowered (post-optimizer);
    ``source_dfg`` preserves the application as written and
    ``opt_report`` records what the optimizer did between the two.
    """

    core: CoreSpec
    dfg: Dfg
    rt_program: RTProgram
    conflict_model: ConflictModel
    dependence_graph: DependenceGraph
    schedule: Schedule
    allocation: Allocation
    binary: EncodedProgram
    source_dfg: Dfg | None = None
    opt_report: OptReport | None = None

    @property
    def n_cycles(self) -> int:
        """Time-loop length in instructions (the paper's figure of merit)."""
        return self.schedule.length

    def run(self, inputs: dict[str, list[int]],
            n_frames: int | None = None,
            engine: str = "auto") -> dict[str, list[int]]:
        """Execute the binary on the cycle-accurate core simulator
        (``engine``: see :func:`repro.sim.batch.resolve_engine`)."""
        return run_program(self.binary, inputs, n_frames, engine=engine)

    def run_batch(self, inputs: list[dict[str, list[int]]],
                  n_frames: int | None = None,
                  engine: str = "auto") -> list[dict[str, list[int]]]:
        """Execute the binary over a batch of stimulus lanes (one input
        dict per lane, one output dict per lane, see
        :func:`repro.sim.batch.run_batch`)."""
        return run_batch(self.binary, inputs, n_frames, engine=engine)
