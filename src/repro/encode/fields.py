"""Instruction-word field layout, derived from the datapath.

The VLIW instruction word of an in-house core is "horizontal": one
control field plus, per OPU, an opcode field and register-address /
immediate fields for its input ports, and per register file a
write-enable, write-address and (if present) multiplexer-select field.
The layout is a pure function of the core description, so the encoder
and the simulator always agree.

Field naming
------------
``ctrl.op``, ``ctrl.arg``, ``ctrl.flag`` — controller;
``<opu>.op`` — opcode (0 = NOP);
``<opu>.p<i>.addr`` — register address of input port *i*;
``<opu>.p<i>.imm`` — immediate of input port *i*;
``<rf>.wr_en`` / ``<rf>.wr_addr`` / ``<rf>.mux`` — destination side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..arch.controller import ControllerSpec, CtrlOp
from ..arch.library import CoreSpec
from ..arch.opu import OpuKind
from ..errors import EncodingError

#: Fixed controller opcode encoding (3 bits).
CTRL_OPCODES: dict[CtrlOp, int] = {
    CtrlOp.CONT: 0,
    CtrlOp.IDLE: 1,
    CtrlOp.JUMP: 2,
    CtrlOp.CJMP: 3,
    CtrlOp.LOOP: 4,
    CtrlOp.ENDL: 5,
    CtrlOp.HALT: 6,
}
CTRL_DECODE = {v: k for k, v in CTRL_OPCODES.items()}


@dataclass(frozen=True)
class Field:
    name: str
    width: int
    offset: int

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


class InstructionFormat:
    """Bit layout of one core's instruction word."""

    def __init__(self, fields: list[tuple[str, int]]):
        self.fields: dict[str, Field] = {}
        offset = 0
        for name, width in fields:
            if width < 1:
                raise EncodingError(f"field {name!r} has width {width}")
            if name in self.fields:
                raise EncodingError(f"duplicate field {name!r}")
            self.fields[name] = Field(name, width, offset)
            offset += width
        self.width = offset

    def encode(self, values: dict[str, int]) -> int:
        word = 0
        for name, value in values.items():
            field = self.field(name)
            if not 0 <= value <= field.mask:
                raise EncodingError(
                    f"value {value} does not fit field {name!r} "
                    f"({field.width} bits)"
                )
            word |= value << field.offset
        return word

    def decode(self, word: int) -> dict[str, int]:
        if word < 0 or word >= (1 << self.width):
            raise EncodingError(f"word {word:#x} wider than {self.width} bits")
        return {
            name: (word >> field.offset) & field.mask
            for name, field in self.fields.items()
        }

    def field(self, name: str) -> Field:
        try:
            return self.fields[name]
        except KeyError:
            raise EncodingError(f"unknown instruction field {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.fields


def opcode_table(core: CoreSpec) -> dict[str, dict[str, int]]:
    """Per-OPU operation → opcode (0 is reserved for NOP)."""
    table: dict[str, dict[str, int]] = {}
    for opu in core.datapath.opus.values():
        table[opu.name] = {
            name: index + 1
            for index, name in enumerate(sorted(opu.operations))
        }
    return table


def derive_format(core: CoreSpec) -> InstructionFormat:
    """Compute the instruction word layout of ``core``."""
    dp = core.datapath
    controller: ControllerSpec = core.controller
    fields: list[tuple[str, int]] = [
        ("ctrl.op", 3),
        ("ctrl.arg", max(controller.address_bits, 10)),
    ]
    if controller.supports_conditionals:
        fields.append(("ctrl.flag", max(1, controller.flag_bits)))

    ram_sizes = [
        opu.memory_size for opu in dp.opus.values() if opu.kind is OpuKind.RAM
    ]
    address_width = max(
        [(size - 1).bit_length() or 1 for size in ram_sizes], default=8
    )

    for opu in dp.opus.values():
        op_bits = max(1, len(opu.operations).bit_length())
        fields.append((f"{opu.name}.op", op_bits))
        arity = max(op.arity for op in opu.operations.values())
        for index in range(arity):
            port = opu.ports[index]
            if port.accepts_immediate:
                width = (
                    core.data_width
                    if opu.kind is OpuKind.CONST
                    else address_width
                )
                fields.append((f"{opu.name}.p{index}.imm", width))
            elif port.register_file is not None:
                fields.append(
                    (f"{opu.name}.p{index}.addr",
                     port.register_file.address_bits())
                )
    for rf in dp.register_files.values():
        fields.append((f"{rf.name}.wr_en", 1))
        fields.append((f"{rf.name}.wr_addr", rf.address_bits()))
    for mux_name, mux in dp.muxes.items():
        fields.append((f"{mux.register_file.name}.mux",
                       max(1, (len(mux.inputs) - 1).bit_length())))
    return InstructionFormat(fields)


class Encoding(NamedTuple):
    """What the assembler reads of a core: its word layout and opcodes.

    Both are pure functions of the core, so a
    :class:`~repro.toolchain.Toolchain` derives them once for all its
    compiles (:func:`encoding`)."""

    format: InstructionFormat
    opcodes: dict[str, dict[str, int]]


def encoding(core: CoreSpec) -> Encoding:
    """:func:`derive_format` and :func:`opcode_table` of ``core``."""
    return Encoding(derive_format(core), opcode_table(core))
