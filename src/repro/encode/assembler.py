"""Instruction assembly: from a schedule to binary microcode.

The assembler turns a validated schedule plus register allocation into
the program ROM image of figure 4: one instruction word per cycle, a
leading IDLE word synchronising the time-loop to the start signal and a
JUMP back to it in the last body word.

Pipelined OPUs are exposed architecturally: an operation issued at
cycle ``t`` with latency ``L`` reads its operands from word ``t`` and
its destination fields (write enable / address / mux select) live in
word ``t + L - 1``.  The usage model has already guaranteed these field
slots are free.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.controller import CtrlOp
from ..arch.library import CoreSpec
from ..errors import EncodingError
from ..rtgen.program import RTProgram
from ..rtgen.rt import RT
from ..sched.regalloc import Allocation
from ..sched.schedule import Schedule
from .fields import (
    CTRL_OPCODES,
    Encoding,
    InstructionFormat,
    encoding,
    opcode_table,
)


@dataclass
class EncodedProgram:
    """Binary microcode plus everything the simulator needs."""

    core: CoreSpec
    format: InstructionFormat
    words: list[int]
    n_body: int
    body_offset: int
    rom_words: tuple[int, ...]
    acu_moduli: dict[str, int]
    #: (input OPU name, body cycle) -> logical input port
    input_map: dict[tuple[str, int], str]
    #: (output OPU name, body cycle) -> logical output port
    output_map: dict[tuple[str, int], str]
    #: register file -> (pinned register, initial value)
    initial_registers: dict[str, list[tuple[int, int]]]
    mode: str = "loop"
    #: body traversals per start signal (mode="repeat")
    repeat_count: int = 1

    @property
    def word_width(self) -> int:
        return self.format.width

    def listing(self) -> str:
        """A human-readable assembly listing of all words."""
        lines = [
            f"; core {self.core.name}: {len(self.words)} words x "
            f"{self.format.width} bits"
        ]
        decode = {v: k for k, v in CTRL_OPCODES.items()}
        for index, word in enumerate(self.words):
            fields = self.format.decode(word)
            ctrl = decode[fields["ctrl.op"]]
            active = []
            for opu_name, ops in opcode_table(self.core).items():
                opcode = fields.get(f"{opu_name}.op", 0)
                if opcode:
                    name = next(n for n, c in ops.items() if c == opcode)
                    active.append(f"{opu_name}.{name}")
            body = " | ".join(active) if active else "nop"
            arg = fields.get("ctrl.arg", 0)
            ctrl_text = ctrl.value + (f" {arg}" if ctrl in
                                      (CtrlOp.JUMP, CtrlOp.CJMP, CtrlOp.LOOP)
                                      else "")
            lines.append(f"{index:4d}: [{ctrl_text:<10}] {body}")
        return "\n".join(lines)


def assemble(
    program: RTProgram,
    schedule: Schedule,
    allocation: Allocation,
    mode: str = "loop",
    repeat_count: int = 1,
    tables: Encoding | None = None,
) -> EncodedProgram:
    """Encode a scheduled RT program into binary microcode.

    ``mode="loop"`` builds the time-loop program (IDLE, body, JUMP
    back); ``mode="once"`` ends with HALT instead of the JUMP (finite
    test programs); ``mode="repeat"`` wraps the body in a zero-overhead
    hardware loop (figure 4's stack) running ``repeat_count`` times per
    start signal — block processing: each traversal consumes/produces
    one sample per IO stream.

    ``tables`` is ``encoding(program.core)``, derived here when not
    given; the pipeline passes the one its toolchain holds for the core.
    """
    if mode not in ("loop", "once", "repeat"):
        raise EncodingError(f"unknown program mode {mode!r}")
    if mode == "repeat":
        if repeat_count < 1:
            raise EncodingError("repeat_count must be >= 1")
        if not program.core.controller.supports_loops:
            raise EncodingError(
                "mode='repeat' needs a controller with a loop stack"
            )
    core = program.core
    fmt, opcodes = tables if tables is not None else encoding(core)
    dp = core.datapath

    # Word 0 is the IDLE synchronisation word; repeat mode adds a LOOP
    # word before the body and an ENDL-carrying tail after it.
    body_offset = 2 if mode == "repeat" else 1
    tail_words = 1 if mode in ("once", "repeat") else 0
    n_words = body_offset + schedule.length + tail_words
    if n_words > core.controller.program_size:
        raise EncodingError(
            f"program needs {n_words} words but the controller stores "
            f"{core.controller.program_size}"
        )
    assignments: list[dict[str, int]] = [dict() for _ in range(n_words)]
    assignments[0]["ctrl.op"] = CTRL_OPCODES[CtrlOp.IDLE]
    if mode == "repeat":
        assignments[1]["ctrl.op"] = CTRL_OPCODES[CtrlOp.LOOP]
        assignments[1]["ctrl.arg"] = repeat_count

    input_map: dict[tuple[str, int], str] = {}
    output_map: dict[tuple[str, int], str] = {}

    for rt, cycle in schedule.cycle_of.items():
        word = assignments[body_offset + cycle]
        _merge(word, f"{rt.opu}.op", opcodes[rt.opu][rt.operation], rt)
        opu = dp.opu(rt.opu)
        for operand, port in zip(rt.operands, _operand_ports(rt, opu)):
            if port is None:
                continue
            if operand.is_register:
                register = allocation.lookup(operand.register_file, operand.value)
                _merge(word, f"{rt.opu}.p{port}.addr", register, rt)
            else:
                imm_field = f"{rt.opu}.p{port}.imm"
                width = fmt.field(imm_field).width
                _merge(word, imm_field, operand.value & ((1 << width) - 1), rt)
        write_word = assignments[body_offset + cycle + rt.latency - 1]
        for dest in rt.destinations:
            register = allocation.lookup(dest.register_file, dest.value)
            _merge(write_word, f"{dest.register_file}.wr_en", 1, rt)
            _merge(write_word, f"{dest.register_file}.wr_addr", register, rt)
            if dest.mux is not None:
                mux = dp.muxes[dest.mux]
                select = mux.input_index(dp.opu(rt.opu).bus)
                _merge(write_word, f"{dest.register_file}.mux", select, rt)
        if opu.kind.is_io:
            if rt.io_port is None:
                raise EncodingError(f"IO transfer {rt!r} lacks a port name")
            if opu.kind.name == "INPUT":
                input_map[(rt.opu, cycle)] = rt.io_port
            else:
                output_map[(rt.opu, cycle)] = rt.io_port

    last_body = body_offset + schedule.length - 1
    if mode == "loop":
        assignments[last_body]["ctrl.op"] = CTRL_OPCODES[CtrlOp.JUMP]
        assignments[last_body]["ctrl.arg"] = 0
    elif mode == "repeat":
        assignments[last_body]["ctrl.op"] = CTRL_OPCODES[CtrlOp.ENDL]
        assignments[-1]["ctrl.op"] = CTRL_OPCODES[CtrlOp.JUMP]
        assignments[-1]["ctrl.arg"] = 0
    else:
        assignments[-1]["ctrl.op"] = CTRL_OPCODES[CtrlOp.HALT]

    words = [fmt.encode(values) for values in assignments]

    initial_registers: dict[str, list[tuple[int, int]]] = {}
    for carry in program.loop_carries:
        initial_registers.setdefault(carry.register_file, []).append(
            (carry.register, carry.initial)
        )

    return EncodedProgram(
        core=core,
        format=fmt,
        words=words,
        n_body=schedule.length,
        body_offset=body_offset,
        rom_words=program.rom.words if program.rom is not None else (),
        acu_moduli=dict(program.acu_moduli),
        input_map=input_map,
        output_map=output_map,
        initial_registers=initial_registers,
        mode=mode,
        repeat_count=repeat_count if mode == "repeat" else 1,
    )


def _merge(word: dict[str, int], field_name: str, value: int, rt: RT) -> None:
    existing = word.get(field_name)
    if existing is not None and existing != value:
        raise EncodingError(
            f"field {field_name!r} set twice with different values "
            f"({existing} vs {value}) while encoding {rt!r}; the schedule "
            f"violates the usage model"
        )
    word[field_name] = value


def _operand_ports(rt: RT, opu) -> list[int]:
    """Input-port index of each operand, in the RT's operand order.

    The generator stores operands in consecutive port order from port 0
    (immediates included on their immediate ports); unary operations
    use port 0.
    """
    del opu
    return list(range(len(rt.operands)))
