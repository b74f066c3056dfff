"""The RT program: output of RT generation, input of everything else.

An :class:`RTProgram` is the paper's intermediate representation after
step 1 (figure 1b): a bag of register transfers over virtual values,
plus the bookkeeping the later phases need — loop-carried values, the
delay-line memory layout, the coefficient ROM image and the ACU modulo
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.library import CoreSpec
from ..lang.dfg import Dfg
from .memory import MemoryLayout, RomLayout
from .rt import RT


@dataclass(frozen=True)
class LoopCarry:
    """A value that survives into the next time-loop iteration.

    ``old`` is the value id read by this iteration (live-in), ``new``
    the id produced for the next one.  Both are pinned to the same
    physical register of ``register_file``; the scheduler adds
    write-after-read edges so the new value never overwrites the old
    one while readers remain.
    """

    register_file: str
    register: int
    old: int
    new: int
    initial: int = 0   # machine start-up value of the pinned register


@dataclass
class RTProgram:
    """All register transfers of one time-loop body."""

    core: CoreSpec
    dfg: Dfg
    rts: list[RT]
    loop_carries: list[LoopCarry] = field(default_factory=list)
    #: data memory (RAM name) -> layout of the states it holds
    memories: dict[str, MemoryLayout] = field(default_factory=dict)
    #: ACU name -> its modulo-register configuration
    acu_moduli: dict[str, int] = field(default_factory=dict)
    rom: RomLayout | None = None
    value_names: dict[int, str] = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def memory(self) -> MemoryLayout | None:
        """The single data memory's layout (convenience for the common
        one-RAM cores); None when stateless, error when multi-RAM."""
        if not self.memories:
            return None
        if len(self.memories) > 1:
            raise ValueError(
                "program uses several data memories; inspect .memories"
            )
        return next(iter(self.memories.values()))

    def producers(self) -> dict[int, RT]:
        """Virtual value id → producing RT (multicast counts once)."""
        table: dict[int, RT] = {}
        for rt in self.rts:
            for dest in rt.destinations:
                table.setdefault(dest.value, rt)
        return table

    def live_in_values(self) -> dict[int, LoopCarry]:
        return {carry.old: carry for carry in self.loop_carries}

    def opu_histogram(self) -> dict[str, int]:
        """RT count per OPU — the raw material of figure 9."""
        histogram: dict[str, int] = {}
        for rt in self.rts:
            histogram[rt.opu] = histogram.get(rt.opu, 0) + 1
        return histogram

    def pretty(self) -> str:
        """All RTs in the paper's concrete syntax."""
        return "\n\n".join(rt.pretty() for rt in self.rts)
