"""Operation units (OPUs) of the target datapath (paper, section 5).

An OPU is any processing unit on the datapath: ALU, MULT, RAM, ROM,
address computation units (ACUs), application-specific units (ASUs) and
the IO port blocks.  Each OPU supports a small set of *operations*; the
(OPU, operation-usage) pair later determines the RT class of every
register transfer executed on it (section 6.1).

Operands are fetched from register files connected to the OPU's input
ports; the result leaves through an output buffer onto a bus
(figure 2/3).  Ports may alternatively accept an *immediate* operand
taken from the instruction word (used by the ACU offset and the program
constant unit PRG_C).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ArchitectureError


class OpuKind(enum.Enum):
    """Classification of operation units.

    The kind drives default behaviour in the simulator (RAM has memory
    state, INPUT/OUTPUT touch the port streams, CONST reads the
    instruction word) and style checking, but any kind may carry any
    operation set.
    """

    ALU = "alu"
    MULT = "mult"
    RAM = "ram"
    ROM = "rom"
    ACU = "acu"
    ASU = "asu"
    INPUT = "input"
    OUTPUT = "output"
    CONST = "const"

    @property
    def has_memory(self) -> bool:
        return self in (OpuKind.RAM, OpuKind.ROM)

    @property
    def is_io(self) -> bool:
        return self in (OpuKind.INPUT, OpuKind.OUTPUT)

    @property
    def is_dataflow(self) -> bool:
        """A unit that computes values (not address, constant, memory
        or port machinery)."""
        return self in (OpuKind.ALU, OpuKind.MULT, OpuKind.ASU)


@dataclass(frozen=True)
class Operation:
    """A single operation an OPU can execute.

    Attributes
    ----------
    name:
        Usage string of the operation, e.g. ``"add"``.  This is the
        *usage* the OPU resource obtains in every RT executing it and
        (together with the OPU) decides the RT class.
    arity:
        Number of operands read from input ports (immediates included).
    latency:
        Cycles from operand fetch to the result being written into the
        destination register.  ``1`` is the single-cycle default of the
        paper's audio core; larger values model pipelined OPUs.
    initiation_interval:
        Cycles before the OPU can accept the next operation.  ``1``
        means fully pipelined; equal to ``latency`` means unpipelined.
    commutative:
        Whether the two operands may be swapped during routing.
    flags:
        Names of controller flags the operation produces (e.g.
        ``("neg",)`` for a compare); empty for pure dataflow ops.
    writes_memory / reads_memory:
        Memory side effects (RAM write / RAM and ROM read).
    """

    name: str
    arity: int = 2
    latency: int = 1
    initiation_interval: int = 1
    commutative: bool = False
    flags: tuple[str, ...] = ()
    writes_memory: bool = False
    reads_memory: bool = False

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ArchitectureError(f"operation {self.name!r}: negative arity")
        if self.latency < 1:
            raise ArchitectureError(f"operation {self.name!r}: latency must be >= 1")
        if not 1 <= self.initiation_interval <= self.latency:
            raise ArchitectureError(
                f"operation {self.name!r}: initiation interval must be in "
                f"[1, latency={self.latency}]"
            )


@dataclass
class InputPort:
    """One operand input of an OPU.

    Each port is fed by exactly one register file (set when the
    datapath is wired) or accepts an immediate field of the instruction
    word.  The paper's architecture style mandates that all non-
    immediate operands originate from register files.
    """

    opu: "Opu"
    index: int
    register_file: object | None = None  # RegisterFile, set by Datapath wiring
    accepts_immediate: bool = False

    @property
    def name(self) -> str:
        return f"{self.opu.name}.p{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fed = self.register_file.name if self.register_file is not None else (
            "imm" if self.accepts_immediate else "unconnected"
        )
        return f"InputPort({self.name} <- {fed})"


class Opu:
    """An operation unit instance on a datapath.

    Create OPUs through :meth:`repro.arch.datapath.Datapath.add_opu`;
    constructing one directly leaves it un-wired.
    """

    def __init__(self, name: str, kind: OpuKind, operations: list[Operation]):
        if not operations:
            raise ArchitectureError(f"OPU {name!r} needs at least one operation")
        names = [op.name for op in operations]
        if len(set(names)) != len(names):
            raise ArchitectureError(f"OPU {name!r}: duplicate operation names {names}")
        self.name = name
        self.kind = kind
        self.operations: dict[str, Operation] = {op.name: op for op in operations}
        arity = max(op.arity for op in operations)
        self.ports: list[InputPort] = [InputPort(self, i) for i in range(arity)]
        self.bus = None  # repro.arch.interconnect.Bus, set by Datapath wiring
        self.memory_size: int | None = None  # for RAM/ROM kinds
        self.rom_contents: list[int] | None = None  # for ROM kinds

    @property
    def buffer_name(self) -> str:
        """Resource name of the output buffer between OPU and bus."""
        return f"buf_{self.name}"

    def operation(self, name: str) -> Operation:
        try:
            return self.operations[name]
        except KeyError:
            raise ArchitectureError(
                f"OPU {self.name!r} has no operation {name!r}; "
                f"available: {sorted(self.operations)}"
            ) from None

    def supports(self, name: str) -> bool:
        return name in self.operations

    @property
    def produces_result(self) -> bool:
        """Whether the OPU drives a bus (OUTPUT port blocks do not)."""
        return self.kind is not OpuKind.OUTPUT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Opu({self.name}, {self.kind.value}, ops={sorted(self.operations)})"


def standard_shift_operations(max_shift: int = 4) -> list[Operation]:
    """Step shifter: one unary arithmetic-shift-right operation per
    distance (``asr1`` .. ``asr<max_shift>``), the distance encoded in
    the opcode as small in-house shifters do.  The optimizer's strength
    reduction targets these (:mod:`repro.opt`)."""
    if max_shift < 1:
        raise ArchitectureError("shifter needs at least distance 1")
    return [Operation(f"asr{k}", arity=1) for k in range(1, max_shift + 1)]
