"""Cycle-accurate simulation: decode once, step one lane or many.

The machine model (figures 3 and 4 of the paper):

* Register files read at the start of a cycle and write at its end.
* Every active OPU computes one result per issue; pipelined OPUs
  deliver it onto their bus ``latency - 1`` cycles later, which is also
  when the destination fields of the instruction word take effect.
* RAM writes commit at the end of the cycle.
* The controller runs CONT/IDLE/JUMP/CJMP/LOOP/ENDL/HALT with a loop
  stack of configurable depth.  IDLE waits for the start signal that
  arrives once per sample frame.
* ALU-kind OPUs update the datapath flags (flag 0: negative, flag 1:
  zero) when the controller has flags.

The simulator executes the *encoded binary*, not the RT list, so it
independently checks the whole chain — RT generation, conflict
modelling, scheduling, register allocation and instruction encoding —
against :func:`repro.lang.reference.run_reference`, the one oracle.
Execution has two phases:

1. **Decode once** — :func:`decode_program` lowers an
   :class:`~repro.encode.assembler.EncodedProgram` into a
   :class:`DecodedPlan`: per word, the controller op, the active OPU
   micro-ops with preresolved operand sources (register file + address,
   or a sign-extended immediate), fixed-point semantic codes, pipeline
   due-offsets and bus names, and the destination writes with their
   mux-selected source bus.  Nothing is looked up per cycle.  A program
   the plan cannot express raises :class:`PlanError`.  Each program's
   plan is memoized for as long as the program lives, and decoded again
   when the program is edited in place.
2. **Step** — :class:`DecodedSimulator` steps the plan one lane at a
   time in pure Python.  :class:`BatchSimulator` executes it over ``N``
   stimulus lanes simultaneously: register files and memories are
   ``(N, size)`` numpy int arrays, every micro-op is a handful of array
   ops with exact two's-complement wrap semantics matching
   :mod:`repro.fixed`, and conditional control flow (``CJMP``) splits
   the lane set so diverging lanes continue under their own program
   counter.  A context holding every lane reads and writes registers
   through a slice (views); a split context through its lane index
   array (copies and masked writes).

Engine selection (:func:`resolve_engine`): ``"auto"`` picks numpy when
it is importable, the batch is wide enough and the data width fits the
int64 kernels, else the decoded engine.
"""

from __future__ import annotations

import functools
import importlib.util
import weakref
from dataclasses import dataclass

from ..arch.controller import CtrlOp
from ..arch.opu import OpuKind
from ..encode.assembler import EncodedProgram
from ..encode.fields import CTRL_DECODE, opcode_table
from ..errors import SimulationError
from ..fixed import FixedFormat
from ..obs import current_telemetry

#: Whether the vectorized engine can run in this process.  numpy is an
#: optional extra (setup.py [batch]) and is only looked for here; the
#: numpy engine imports it on first use (:func:`_load_numpy`).
NUMPY_AVAILABLE = importlib.util.find_spec("numpy") is not None

#: The numpy module once the numpy engine has run.  It is bound once, so
#: the engine's array ops read a plain module global instead of asking a
#: loader per op.
_np = None

#: Lane count at which ``"auto"`` prefers the numpy engine over the
#: decoded engine (below it, per-call array overhead dominates).
NUMPY_MIN_LANES = 8

#: Widest data word the numpy engine's int64 kernels hold exactly
#: (a product of two words plus rounding must not overflow).
NUMPY_MAX_WIDTH = 32

#: Engine names accepted everywhere an ``engine=`` parameter appears.
ENGINES = ("auto", "decoded", "numpy")


class PlanError(SimulationError):
    """The program uses a feature the decoded plan cannot express (the
    machine-code lint reports the same image as ``mc.decode``)."""


# ---------------------------------------------------------------------------
# Semantic codes: one small int per micro-op meaning, resolved at decode.
# ---------------------------------------------------------------------------

SEM_ADD = 0
SEM_ADD_CLIP = 1
SEM_SUB = 2
SEM_MULT = 3
SEM_PASS = 4
SEM_PASS_CLIP = 5
SEM_ASR = 6
SEM_RAM_READ = 7
SEM_RAM_WRITE = 8
SEM_ROM_READ = 9
SEM_ACU_ADDMOD = 10
SEM_ACU_INCA = 11
SEM_ACU_ADD = 12
SEM_CONST = 13
SEM_INPUT = 14
SEM_OUTPUT = 15

_FIXED_SEMS = {
    "add": SEM_ADD,
    "add_clip": SEM_ADD_CLIP,
    "sub": SEM_SUB,
    "mult": SEM_MULT,
    "pass": SEM_PASS,
    "pass_clip": SEM_PASS_CLIP,
}


@dataclass(frozen=True)
class OpPlan:
    """One active OPU in one instruction word, fully preresolved."""

    opu: str
    sem: int
    #: ``(True, rf_name, address)`` register reads or
    #: ``(False, value, 0)`` immediates, in port order.
    operands: tuple[tuple, ...]
    latency: int
    #: Bus the result matures on (``None`` for RAM/OUTPUT writes).
    bus: str | None
    #: RAM/ROM name for memory sems, IO port for INPUT/OUTPUT sems.
    target: str | None = None
    #: ACU modulus (addmod/inca) or ASR shift distance.
    constant: int = 0
    #: ALU-kind ops drive the datapath flags from their result.
    sets_flags: bool = False


@dataclass(frozen=True)
class WritePlan:
    """One destination-field register write in one instruction word."""

    rf: str
    addr: int
    bus: str


@dataclass(frozen=True)
class WordPlan:
    """One decoded instruction word."""

    index: int
    ctrl: CtrlOp
    arg: int
    flag: int
    ops: tuple[OpPlan, ...]
    writes: tuple[WritePlan, ...]


class DecodedPlan:
    """A flat, preresolved execution plan for one encoded program.

    Everything the per-cycle loop needs, resolved exactly once:
    decoded words, register-file/memory shapes, the fixed-point format
    and the controller envelope.  The plan is immutable and reusable —
    decode once, simulate any number of stimulus batches.  It holds no
    reference to its program, so :func:`decode_program`'s memo entry
    dies with the program.
    """

    def __init__(self, program: EncodedProgram):
        core = program.core
        self.fmt = FixedFormat(core.data_width, core.frac_bits)
        self.rf_sizes: dict[str, int] = {
            rf.name: rf.size for rf in core.datapath.register_files.values()
        }
        self.ram_sizes: dict[str, int] = {}
        self.rom_contents: dict[str, tuple[int, ...]] = {}
        for opu in core.datapath.opus.values():
            if opu.kind is OpuKind.RAM:
                self.ram_sizes[opu.name] = opu.memory_size
            elif opu.kind is OpuKind.ROM:
                contents = list(program.rom_words)
                contents += [0] * (opu.memory_size - len(contents))
                self.rom_contents[opu.name] = tuple(contents)
        self.initial_registers = {
            rf: tuple(inits)
            for rf, inits in program.initial_registers.items()
        }
        self.stack_depth = core.controller.stack_depth
        self.n_flags = core.controller.n_flags
        opcode_names = {
            opu: {code: name for name, code in table.items()}
            for opu, table in opcode_table(core).items()
        }
        self.words: tuple[WordPlan, ...] = tuple(
            _decode_word(program, index, opcode_names)
            for index in range(len(program.words))
        )

    @property
    def n_words(self) -> int:
        return len(self.words)


def _sign_extend(value: int, width: int) -> int:
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def _decode_word(program: EncodedProgram, index: int,
                 opcode_names: dict[str, dict[int, str]]) -> WordPlan:
    core = program.core
    dp = core.datapath
    fields = program.format.decode(program.words[index])
    ctrl = CTRL_DECODE[fields["ctrl.op"]]
    if ctrl not in core.controller.allowed_ops():
        raise PlanError(
            f"controller op {ctrl.value!r} not supported by this core"
        )
    body_cycle = index - program.body_offset

    ops: list[OpPlan] = []
    for opu in dp.opus.values():
        opcode = fields.get(f"{opu.name}.op", 0)
        if opcode == 0:
            continue
        operation_name = opcode_names[opu.name][opcode]
        operation = opu.operation(operation_name)
        operands: list[tuple] = []
        for port_index in range(operation.arity):
            port = opu.ports[port_index]
            if port.accepts_immediate:
                raw = fields.get(f"{opu.name}.p{port_index}.imm", 0)
                if opu.kind is OpuKind.CONST:
                    raw = _sign_extend(raw, core.data_width)
                operands.append((False, raw, 0))
            else:
                operands.append((
                    True, port.register_file.name,
                    fields.get(f"{opu.name}.p{port_index}.addr", 0),
                ))
        sem, target, constant = _resolve_semantics(
            program, opu, operation_name, body_cycle)
        produces = sem not in (SEM_RAM_WRITE, SEM_OUTPUT)
        bus = opu.bus.name if (produces and opu.bus is not None) else None
        ops.append(OpPlan(
            opu=opu.name, sem=sem, operands=tuple(operands),
            latency=operation.latency, bus=bus, target=target,
            constant=constant, sets_flags=opu.kind is OpuKind.ALU,
        ))

    writes: list[WritePlan] = []
    for rf in dp.register_files.values():
        if not fields.get(f"{rf.name}.wr_en", 0):
            continue
        address = fields.get(f"{rf.name}.wr_addr", 0)
        if address >= rf.size:
            raise PlanError(f"register index {address} outside {rf.name!r}")
        writes.append(WritePlan(
            rf=rf.name, addr=address, bus=_selected_bus(dp, rf, fields)))

    return WordPlan(
        index=index, ctrl=ctrl, arg=fields.get("ctrl.arg", 0),
        flag=fields.get("ctrl.flag", 0), ops=tuple(ops),
        writes=tuple(writes),
    )


def _resolve_semantics(program: EncodedProgram, opu, operation_name: str,
                       body_cycle: int) -> tuple[int, str | None, int]:
    """(semantic code, target name, constant) of one (OPU, operation)."""
    kind = opu.kind
    if kind is OpuKind.RAM:
        if operation_name == "read":
            return SEM_RAM_READ, opu.name, 0
        if operation_name == "write":
            return SEM_RAM_WRITE, opu.name, 0
    elif kind is OpuKind.ROM:
        return SEM_ROM_READ, opu.name, 0
    elif kind is OpuKind.ACU:
        modulus = program.acu_moduli.get(opu.name, 1)
        if operation_name == "addmod":
            return SEM_ACU_ADDMOD, None, modulus
        if operation_name == "inca":
            return SEM_ACU_INCA, None, modulus
        if operation_name == "add":
            return SEM_ACU_ADD, None, 0
    elif kind is OpuKind.CONST:
        return SEM_CONST, None, 0
    elif kind is OpuKind.INPUT:
        port = program.input_map.get((opu.name, body_cycle))
        if port is None:
            raise PlanError(
                f"input read on {opu.name!r} at body cycle {body_cycle} "
                f"has no logical port"
            )
        return SEM_INPUT, port, 0
    elif kind is OpuKind.OUTPUT:
        port = program.output_map.get((opu.name, body_cycle))
        if port is None:
            raise PlanError(
                f"output write on {opu.name!r} at body cycle "
                f"{body_cycle} has no logical port"
            )
        return SEM_OUTPUT, port, 0
    # ALU / MULT / ASU (and leftovers): shared fixed-point semantics.
    sem = _FIXED_SEMS.get(operation_name)
    if sem is not None:
        return sem, None, 0
    if operation_name.startswith("asr") and operation_name[3:].isdigit():
        return SEM_ASR, None, int(operation_name[3:])
    raise PlanError(
        f"no fixed-point semantics for operation {operation_name!r}")


def _selected_bus(dp, rf, fields) -> str:
    """The bus a destination write reads, resolved at decode time."""
    mux = dp.muxes.get(f"mux_{rf.name}")
    if mux is not None:
        select = fields.get(f"{rf.name}.mux", 0)
        if select >= len(mux.inputs):
            raise PlanError(f"mux select {select} outside mux of {rf.name!r}")
        return mux.inputs[select].name
    writers = list(rf.writers)
    if not writers:
        raise PlanError(f"register file {rf.name!r} has no writer")
    sink = writers[0]
    for bus in dp.buses.values():
        if sink in bus.sinks:
            return bus.name
    raise PlanError("sink without a bus")


#: ``id(program)`` -> (weak reference to the program, its decode token,
#: its plan).  The weak reference's callback drops the entry when the
#: program is collected, so a plan never outlives its program.
_PLANS: dict[int, tuple[weakref.ref, tuple, DecodedPlan]] = {}


def _decode_token(program: EncodedProgram) -> tuple:
    """Everything :class:`DecodedPlan` reads from ``program``, by value:
    a memo hit must find it unchanged."""
    return (
        program.core, program.format, tuple(program.words),
        program.body_offset, tuple(program.rom_words),
        tuple(program.acu_moduli.items()),
        tuple(program.input_map.items()),
        tuple(program.output_map.items()),
        tuple((rf, tuple(inits))
              for rf, inits in program.initial_registers.items()),
    )


def _forget(key: int, ref: weakref.ref) -> None:
    entry = _PLANS.get(key)
    if entry is not None and entry[0] is ref:
        del _PLANS[key]


def decode_program(program: EncodedProgram) -> DecodedPlan:
    """The reusable :class:`DecodedPlan` of an encoded program.

    A program is decoded once: later calls return the same plan for as
    long as the program lives and its words, ROM, maps and initial
    registers are unchanged (an edited program is decoded again).
    Every real decode counts ``sim.decodes``.  Raises
    :class:`PlanError` (a :class:`SimulationError`) when the program
    uses something the plan cannot express.
    """
    key = id(program)
    token = _decode_token(program)
    entry = _PLANS.get(key)
    if entry is not None and entry[0]() is program and entry[1] == token:
        return entry[2]
    plan = DecodedPlan(program)
    current_telemetry().count("sim.decodes")
    ref = weakref.ref(program, functools.partial(_forget, key))
    _PLANS[key] = (ref, token, plan)
    return plan


def _cycle_budget(plan: DecodedPlan, n_frames: int,
                  max_cycles: int | None) -> int:
    """Cycles a run may take before it counts as not settling."""
    if max_cycles is not None:
        return max_cycles
    return (n_frames + 1) * max(plan.n_words * 4, 64)


# ---------------------------------------------------------------------------
# Pure-Python decoded engine: one lane, no per-cycle decode.
# ---------------------------------------------------------------------------

class DecodedSimulator:
    """Steps one lane over a :class:`DecodedPlan` — pure Python.

    The instruction words were decoded exactly once, so a cycle is a
    walk over preresolved micro-ops; the differential suite pins the
    outputs to :func:`repro.lang.reference.run_reference`.
    """

    def __init__(self, plan: DecodedPlan):
        self.plan = plan
        self.fmt = plan.fmt
        self.registers: dict[str, list[int]] = {
            name: [0] * size for name, size in plan.rf_sizes.items()
        }
        for rf_name, inits in plan.initial_registers.items():
            for register, value in inits:
                self.registers[rf_name][register] = value
        self.memories: dict[str, list[int]] = {
            name: [0] * size for name, size in plan.ram_sizes.items()
        }
        for name, contents in plan.rom_contents.items():
            self.memories[name] = list(contents)
        self.pc = 0
        self.stack: list[tuple[int, int]] = []
        self.flags = [0] * max(1, plan.n_flags)
        self.cycle = 0
        self.frame = 0
        self.halted = False
        self.start_tokens = 0
        self.inputs: dict[str, list[int]] = {}
        self.outputs: dict[str, list[int]] = {}
        self._input_cursor: dict[str, int] = {}
        self._in_flight: dict[int, list[tuple[str, int]]] = {}

    def load_inputs(self, streams: dict[str, list[int]]) -> None:
        self.inputs = {port: list(values) for port, values in streams.items()}
        self._input_cursor = {port: 0 for port in streams}

    def run_frames(self, n_frames: int,
                   max_cycles: int | None = None) -> dict[str, list[int]]:
        self.start_tokens += n_frames
        budget = _cycle_budget(self.plan, n_frames, max_cycles)
        words = self.plan.words
        n_words = len(words)
        while not self.halted and self.cycle < budget:
            if self.pc >= n_words:
                raise SimulationError(f"PC {self.pc} outside the program")
            word = words[self.pc]
            if word.ctrl is CtrlOp.IDLE and self.start_tokens == 0:
                break
            self.step(word)
        if not self.halted:
            if self.pc >= n_words:
                raise SimulationError(f"PC {self.pc} outside the program")
            word = words[self.pc]
            if not (word.ctrl is CtrlOp.IDLE and self.start_tokens == 0):
                raise SimulationError(
                    f"simulation did not settle within {budget} cycles"
                )
        return {port: list(values) for port, values in self.outputs.items()}

    def step(self, word: WordPlan | None = None) -> None:
        if self.halted:
            raise SimulationError("stepping a halted core")
        if word is None:
            word = self.plan.words[self.pc]
        fmt = self.fmt
        registers = self.registers
        cycle = self.cycle

        produced: list[tuple[str, int, int]] = []
        memory_writes: list[tuple[str, int, int]] = []
        alu_result: int | None = None
        for op in word.ops:
            values = [
                registers[src[1]][src[2]] if src[0] else src[1]
                for src in op.operands
            ]
            sem = op.sem
            if sem == SEM_ADD:
                result = fmt.add(values[0], values[1])
            elif sem == SEM_MULT:
                result = fmt.mult(values[0], values[1])
            elif sem == SEM_SUB:
                result = fmt.sub(values[0], values[1])
            elif sem == SEM_ADD_CLIP:
                result = fmt.add_clip(values[0], values[1])
            elif sem == SEM_PASS:
                result = fmt.pass_(values[0])
            elif sem == SEM_PASS_CLIP:
                result = fmt.pass_clip(values[0])
            elif sem == SEM_ASR:
                result = fmt.asr(values[0], op.constant)
            elif sem == SEM_RAM_READ or sem == SEM_ROM_READ:
                memory = self.memories[op.target]
                address = values[0]
                if not 0 <= address < len(memory):
                    raise SimulationError(
                        f"address {address} outside memory {op.target!r} "
                        f"(size {len(memory)})"
                    )
                result = memory[address]
            elif sem == SEM_RAM_WRITE:
                memory = self.memories[op.target]
                address = values[0]
                if not 0 <= address < len(memory):
                    raise SimulationError(
                        f"address {address} outside memory {op.target!r} "
                        f"(size {len(memory)})"
                    )
                memory_writes.append((op.target, address, values[1]))
                result = None
            elif sem == SEM_ACU_ADDMOD:
                result = (values[0] + values[1]) % op.constant
            elif sem == SEM_ACU_INCA:
                result = (values[0] + 1) % op.constant
            elif sem == SEM_ACU_ADD:
                result = fmt.wrap(values[0] + values[1])
            elif sem == SEM_CONST:
                result = values[0]
            elif sem == SEM_INPUT:
                port = op.target
                cursor = self._input_cursor.get(port, 0)
                stream = self.inputs.get(port, [])
                if cursor >= len(stream):
                    raise SimulationError(f"input stream {port!r} exhausted")
                self._input_cursor[port] = cursor + 1
                result = fmt.wrap(stream[cursor])
            else:  # SEM_OUTPUT
                self.outputs.setdefault(op.target, []).append(values[0])
                result = None
            if result is not None:
                if op.sets_flags:
                    alu_result = result
                if op.bus is not None:
                    produced.append((op.bus, result, cycle + op.latency - 1))

        bus_values: dict[str, int] = {}
        for bus, value in self._in_flight.pop(cycle, []):
            bus_values[bus] = value
        for bus, value, due in produced:
            if due == cycle:
                bus_values[bus] = value
            else:
                self._in_flight.setdefault(due, []).append((bus, value))

        for write in word.writes:
            if write.bus not in bus_values:
                raise SimulationError(
                    f"cycle {cycle}: register file {write.rf!r} expects "
                    f"a value on {write.bus!r} but nothing matured there"
                )
            registers[write.rf][write.addr] = bus_values[write.bus]
        for memory, address, value in memory_writes:
            self.memories[memory][address] = value
        if alu_result is not None and self.plan.n_flags:
            self.flags[0] = 1 if alu_result < 0 else 0
            if self.plan.n_flags > 1:
                self.flags[1] = 1 if alu_result == 0 else 0

        self._advance_pc(word)
        self.cycle += 1

    def _advance_pc(self, word: WordPlan) -> None:
        ctrl = word.ctrl
        if ctrl is CtrlOp.CONT:
            self.pc += 1
        elif ctrl is CtrlOp.IDLE:
            if self.start_tokens > 0:
                self.start_tokens -= 1
                self.frame += 1
                self.pc += 1
        elif ctrl is CtrlOp.JUMP:
            self.pc = word.arg
        elif ctrl is CtrlOp.CJMP:
            if self.flags[word.flag]:
                self.pc = word.arg
            else:
                self.pc += 1
        elif ctrl is CtrlOp.LOOP:
            if len(self.stack) >= self.plan.stack_depth:
                raise SimulationError("loop stack overflow")
            self.stack.append((self.pc + 1, word.arg))
            self.pc += 1
        elif ctrl is CtrlOp.ENDL:
            if not self.stack:
                raise SimulationError("ENDL with empty loop stack")
            address, count = self.stack[-1]
            if count > 1:
                self.stack[-1] = (address, count - 1)
                self.pc = address
            else:
                self.stack.pop()
                self.pc += 1
        elif ctrl is CtrlOp.HALT:
            self.halted = True
        else:  # pragma: no cover - decode rejects unknown ops
            raise SimulationError(f"unhandled controller op {ctrl}")


# ---------------------------------------------------------------------------
# Numpy batch engine: N lanes in lockstep, lane-set splits on divergence.
# ---------------------------------------------------------------------------

class _Context:
    """One lock-stepped lane set: a program counter, loop stack, frame
    tokens and in-flight results shared by every lane in ``lanes``.

    A diverging ``CJMP`` splits a context into two children (taken /
    fall-through lane subsets); contexts never re-merge — each runs to
    its own settle point.  Per-lane *data* stays in the simulator's
    global ``(N, size)`` arrays; a context only slices it by lane:
    ``index`` is ``slice(None)`` when the context holds every lane in
    order (register reads are then views) and ``lanes`` otherwise."""

    __slots__ = ("lanes", "index", "pc", "cycle", "start_tokens", "frame",
                 "halted", "stack", "in_flight", "cursors", "budget")

    def __init__(self, lanes, index=None, pc=0, cycle=0, start_tokens=0,
                 frame=0, stack=None, in_flight=None, cursors=None,
                 budget=0):
        self.lanes = lanes
        self.index = lanes if index is None else index
        self.pc = pc
        self.cycle = cycle
        self.start_tokens = start_tokens
        self.frame = frame
        self.halted = False
        self.stack = stack if stack is not None else []
        self.in_flight = in_flight if in_flight is not None else {}
        self.cursors = cursors if cursors is not None else {}
        self.budget = budget

    def split(self, mask) -> tuple["_Context", "_Context"]:
        """(taken, fall-through) children along a boolean lane mask."""
        positions = _np.nonzero(mask)[0]
        complement = _np.nonzero(~mask)[0]
        children = []
        for selector in (positions, complement):
            child = _Context(
                lanes=self.lanes[selector], pc=self.pc, cycle=self.cycle,
                start_tokens=self.start_tokens, frame=self.frame,
                stack=list(self.stack),
                in_flight={
                    due: [(bus, _slice_lanes(value, selector))
                          for bus, value in entries]
                    for due, entries in self.in_flight.items()
                },
                cursors=dict(self.cursors), budget=self.budget,
            )
            children.append(child)
        return children[0], children[1]


def _load_numpy() -> None:
    """Bind :data:`_np` on the numpy engine's first use."""
    global _np
    if _np is not None:
        return
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
        raise SimulationError(
            "the numpy batch engine needs numpy (pip install "
            "repro[batch]); use engine='decoded' for the pure-Python "
            "engine"
        ) from None
    _np = numpy


def _slice_lanes(value, selector):
    """Slice a per-lane value (array) or broadcast scalar by position."""
    if isinstance(value, int):
        return value
    return value[selector]


def _owned(value):
    """A per-lane value that keeps its start-of-cycle contents after the
    cycle's register writes: an array (maybe a view of a register file)
    is copied, an immediate is returned as it is."""
    return value.copy() if isinstance(value, _np.ndarray) else value


class BatchSimulator:
    """Executes one :class:`DecodedPlan` over ``n_lanes`` stimulus lanes
    as numpy array ops.

    Register files and data memories are ``(n_lanes, size)`` int64
    arrays; each decoded micro-op becomes a gather, a vectorized
    fixed-point kernel and (at end of cycle) a masked scatter.  Exact
    two's-complement wrap semantics match :mod:`repro.fixed` —
    outputs are bit-identical to :class:`DecodedSimulator`.  Every lane
    runs the same program; only the stimulus differs per lane.
    """

    def __init__(self, plan: DecodedPlan, n_lanes: int):
        _load_numpy()
        if plan.fmt.width > NUMPY_MAX_WIDTH:
            raise PlanError(
                f"data width {plan.fmt.width} exceeds the numpy engine's "
                f"int64 headroom; use engine='decoded'"
            )
        if n_lanes < 1:
            raise SimulationError("a batch needs at least one lane")
        self.plan = plan
        self.n_lanes = n_lanes
        fmt = plan.fmt
        self._half = 1 << (fmt.width - 1)
        self._mask = (1 << fmt.width) - 1
        self._frac = fmt.frac_bits
        # int64 scalars, so a clamp converts no Python int per call.
        self._min = _np.int64(fmt.min_value)
        self._max = _np.int64(fmt.max_value)

        self.registers = {
            name: _np.zeros((n_lanes, size), dtype=_np.int64)
            for name, size in plan.rf_sizes.items()
        }
        self.memories = {
            name: _np.zeros((n_lanes, size), dtype=_np.int64)
            for name, size in plan.ram_sizes.items()
        }
        for name, contents in plan.rom_contents.items():
            self.memories[name] = _np.tile(
                _np.array(contents, dtype=_np.int64), (n_lanes, 1))
        for rf_name, inits in plan.initial_registers.items():
            for register, value in inits:
                self.registers[rf_name][:, register] = value
        self.flags = _np.zeros((n_lanes, max(1, plan.n_flags)),
                               dtype=_np.int64)
        self.inputs: dict[str, _np.ndarray] = {}
        self.input_lengths: dict[str, _np.ndarray] = {}
        #: (port, lane index array, per-lane values) in emission order.
        self._out_chunks: list[tuple[str, _np.ndarray, _np.ndarray]] = []
        self._finished: list[_Context] = []
        #: Lane-cycles actually stepped (telemetry: ``sim.cycles``).
        self.lane_cycles = 0
        #: Frames consumed summed over lanes (telemetry: ``sim.frames``).
        self.lane_frames = 0

    # -- fixed-point kernels, vectorized --------------------------------

    def _wrap(self, x):
        return ((x + self._half) & self._mask) - self._half

    def _clip(self, x):
        return _np.minimum(_np.maximum(x, self._min), self._max)

    # -- stimulus -------------------------------------------------------

    def load_inputs(self, streams: list[dict[str, list[int]]]) -> None:
        """Load one stimulus dict per lane (``len(streams) == n_lanes``).

        Streams may have different lengths per lane; a lane reading past
        its own stream raises exactly like :class:`DecodedSimulator`."""
        if len(streams) != self.n_lanes:
            raise SimulationError(
                f"{len(streams)} stimulus dicts for {self.n_lanes} lanes")
        ports = sorted({port for lanes in streams for port in lanes})
        for port in ports:
            lengths = _np.array(
                [len(lane.get(port, ())) for lane in streams],
                dtype=_np.int64)
            width = int(lengths.max()) if len(lengths) else 0
            table = _np.zeros((self.n_lanes, max(width, 1)), dtype=_np.int64)
            for lane, stream in enumerate(streams):
                values = stream.get(port, ())
                if values:
                    table[lane, :len(values)] = _np.array(
                        values, dtype=_np.int64)
            self.inputs[port] = self._wrap(table)
            self.input_lengths[port] = lengths

    # -- execution ------------------------------------------------------

    def run_frames(self, n_frames: int,
                   max_cycles: int | None = None) -> list[dict[str, list[int]]]:
        """Run ``n_frames`` time-loop iterations on every lane; returns
        one output-stream dict per lane."""
        budget = _cycle_budget(self.plan, n_frames, max_cycles)
        root = _Context(
            lanes=_np.arange(self.n_lanes), index=slice(None),
            start_tokens=n_frames, budget=budget,
        )
        work = [root]
        words = self.plan.words
        n_words = len(words)
        while work:
            ctx = work.pop()
            split = None
            while not ctx.halted and ctx.cycle < ctx.budget:
                if ctx.pc >= n_words:
                    raise SimulationError(f"PC {ctx.pc} outside the program")
                word = words[ctx.pc]
                if word.ctrl is CtrlOp.IDLE and ctx.start_tokens == 0:
                    break
                split = self._step(ctx, word)
                if split is not None:
                    work.extend(split)
                    break
            if split is not None:
                continue
            if not ctx.halted:
                if ctx.pc >= n_words:
                    raise SimulationError(f"PC {ctx.pc} outside the program")
                word = words[ctx.pc]
                if not (word.ctrl is CtrlOp.IDLE and ctx.start_tokens == 0):
                    raise SimulationError(
                        f"simulation did not settle within {ctx.budget} "
                        f"cycles"
                    )
            self._finished.append(ctx)
        self.lane_cycles = sum(
            ctx.cycle * len(ctx.lanes) for ctx in self._finished)
        self.lane_frames = sum(
            ctx.frame * len(ctx.lanes) for ctx in self._finished)
        return self._collect_outputs()

    def _step(self, ctx: _Context, word: WordPlan):
        """One cycle for every lane of ``ctx``; returns the two child
        contexts when a CJMP diverges, else ``None``.

        Register reads through a full-lane context's slice are views, so
        a value used after the end-of-cycle register writes (a RAM
        write's address and data, a result put on a bus) is taken with
        :func:`_owned`."""
        lanes = ctx.lanes
        index = ctx.index
        registers = self.registers
        produced: list[tuple[str, object, int]] = []
        memory_writes: list[tuple[str, object, object]] = []
        alu_result = None
        for op in word.ops:
            values = [
                registers[src[1]][index, src[2]] if src[0] else src[1]
                for src in op.operands
            ]
            sem = op.sem
            if sem == SEM_ADD:
                result = self._wrap(values[0] + values[1])
            elif sem == SEM_MULT:
                result = self._wrap((values[0] * values[1]) >> self._frac)
            elif sem == SEM_SUB:
                result = self._wrap(values[0] - values[1])
            elif sem == SEM_ADD_CLIP:
                result = self._clip(values[0] + values[1])
            elif sem == SEM_PASS:
                result = self._wrap(values[0])
            elif sem == SEM_PASS_CLIP:
                result = self._clip(values[0])
            elif sem == SEM_ASR:
                result = self._wrap(values[0] >> op.constant)
            elif sem == SEM_RAM_READ or sem == SEM_ROM_READ:
                result = self._memory_gather(op.target, lanes, values[0])
            elif sem == SEM_RAM_WRITE:
                memory_writes.append(
                    (op.target, _owned(values[0]), _owned(values[1])))
                result = None
            elif sem == SEM_ACU_ADDMOD:
                result = (values[0] + values[1]) % op.constant
            elif sem == SEM_ACU_INCA:
                result = (values[0] + 1) % op.constant
            elif sem == SEM_ACU_ADD:
                result = self._wrap(values[0] + values[1])
            elif sem == SEM_CONST:
                result = _owned(values[0])
            elif sem == SEM_INPUT:
                result = self._input_read(ctx, op.target)
            else:  # SEM_OUTPUT
                self._out_chunks.append((
                    op.target, lanes, _as_lane_array(values[0], len(lanes))))
                result = None
            if result is not None:
                if op.sets_flags:
                    alu_result = result
                if op.bus is not None:
                    produced.append(
                        (op.bus, result, ctx.cycle + op.latency - 1))

        bus_values: dict[str, object] = {}
        for bus, value in ctx.in_flight.pop(ctx.cycle, []):
            bus_values[bus] = value
        for bus, value, due in produced:
            if due == ctx.cycle:
                bus_values[bus] = value
            else:
                ctx.in_flight.setdefault(due, []).append((bus, value))

        for write in word.writes:
            if write.bus not in bus_values:
                raise SimulationError(
                    f"cycle {ctx.cycle}: register file {write.rf!r} expects "
                    f"a value on {write.bus!r} but nothing matured there"
                )
            registers[write.rf][index, write.addr] = bus_values[write.bus]
        for memory, address, value in memory_writes:
            self._memory_scatter(memory, lanes, address, value)
        if alu_result is not None and self.plan.n_flags:
            self.flags[index, 0] = _np.asarray(alu_result) < 0
            if self.plan.n_flags > 1:
                self.flags[index, 1] = _np.asarray(alu_result) == 0

        ctx.cycle += 1
        return self._advance(ctx, word)

    def _memory_gather(self, name: str, lanes, address):
        memory = self.memories[name]
        size = memory.shape[1]
        addresses = _np.asarray(address)
        if addresses.ndim == 0:
            addresses = _np.full(len(lanes), int(address), dtype=_np.int64)
        bad = (addresses < 0) | (addresses >= size)
        if bad.any():
            offender = int(addresses[bad][0])
            raise SimulationError(
                f"address {offender} outside memory {name!r} (size {size})"
            )
        return memory[lanes, addresses]

    def _memory_scatter(self, name: str, lanes, address, value) -> None:
        memory = self.memories[name]
        size = memory.shape[1]
        addresses = _np.asarray(address)
        if addresses.ndim == 0:
            addresses = _np.full(len(lanes), int(address), dtype=_np.int64)
        bad = (addresses < 0) | (addresses >= size)
        if bad.any():
            offender = int(addresses[bad][0])
            raise SimulationError(
                f"address {offender} outside memory {name!r} (size {size})"
            )
        memory[lanes, addresses] = value

    def _input_read(self, ctx: _Context, port: str):
        cursor = ctx.cursors.get(port, 0)
        lengths = self.input_lengths.get(port)
        if lengths is None or (lengths[ctx.index] <= cursor).any():
            raise SimulationError(f"input stream {port!r} exhausted")
        ctx.cursors[port] = cursor + 1
        return self.inputs[port][ctx.index, cursor]

    def _advance(self, ctx: _Context, word: WordPlan):
        ctrl = word.ctrl
        if ctrl is CtrlOp.CONT:
            ctx.pc += 1
        elif ctrl is CtrlOp.IDLE:
            if ctx.start_tokens > 0:
                ctx.start_tokens -= 1
                ctx.frame += 1
                ctx.pc += 1
        elif ctrl is CtrlOp.JUMP:
            ctx.pc = word.arg
        elif ctrl is CtrlOp.CJMP:
            taken = self.flags[ctx.index, word.flag] != 0
            if taken.all():
                ctx.pc = word.arg
            elif not taken.any():
                ctx.pc += 1
            else:
                child_taken, child_fall = ctx.split(taken)
                child_taken.pc = word.arg
                child_fall.pc = ctx.pc + 1
                return (child_taken, child_fall)
        elif ctrl is CtrlOp.LOOP:
            if len(ctx.stack) >= self.plan.stack_depth:
                raise SimulationError("loop stack overflow")
            ctx.stack.append((ctx.pc + 1, word.arg))
            ctx.pc += 1
        elif ctrl is CtrlOp.ENDL:
            if not ctx.stack:
                raise SimulationError("ENDL with empty loop stack")
            address, count = ctx.stack[-1]
            if count > 1:
                ctx.stack[-1] = (address, count - 1)
                ctx.pc = address
            else:
                ctx.stack.pop()
                ctx.pc += 1
        elif ctrl is CtrlOp.HALT:
            ctx.halted = True
        else:  # pragma: no cover - decode rejects unknown ops
            raise SimulationError(f"unhandled controller op {ctrl}")
        return None

    def _collect_outputs(self) -> list[dict[str, list[int]]]:
        """Per-lane output-stream dicts, in per-lane emission order."""
        results: list[dict[str, list[int]]] = [
            {} for _ in range(self.n_lanes)
        ]
        # Fast path: no divergence means every chunk covers the full
        # lane set in identity order — stack and transpose per port.
        full = all(
            len(lanes) == self.n_lanes and (lanes == _np.arange(
                self.n_lanes)).all()
            for _, lanes, _ in self._out_chunks
        )
        if full:
            by_port: dict[str, list[_np.ndarray]] = {}
            for port, _, values in self._out_chunks:
                by_port.setdefault(port, []).append(values)
            for port, rows in by_port.items():
                matrix = _np.stack(rows, axis=1)          # (N, n_values)
                for lane, row in enumerate(matrix.tolist()):
                    results[lane][port] = row
            return results
        for port, lanes, values in self._out_chunks:
            for lane, value in zip(lanes.tolist(), values.tolist()):
                results[lane].setdefault(port, []).append(value)
        return results


def _as_lane_array(value, n: int):
    array = _np.asarray(value)
    if array.ndim == 0:
        return _np.full(n, int(value), dtype=_np.int64)
    return array.copy()


# ---------------------------------------------------------------------------
# Entry points: engine selection and batched runs.
# ---------------------------------------------------------------------------

def resolve_engine(engine: str, n_lanes: int,
                   data_width: int | None = None) -> str:
    """The concrete engine an ``engine=`` parameter resolves to.

    ``"auto"`` picks numpy when it is available, the batch has at least
    :data:`NUMPY_MIN_LANES` lanes and the program's ``data_width`` (when
    given) is at most :data:`NUMPY_MAX_WIDTH`, else the decoded
    pure-Python engine.
    """
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown simulation engine {engine!r} "
            f"(known: {', '.join(ENGINES)})"
        )
    if engine == "auto":
        fits = data_width is None or data_width <= NUMPY_MAX_WIDTH
        engine = ("numpy" if NUMPY_AVAILABLE and fits
                  and n_lanes >= NUMPY_MIN_LANES else "decoded")
    if engine == "numpy" and not NUMPY_AVAILABLE:
        raise SimulationError(
            "engine='numpy' requested but numpy is not installed "
            "(pip install repro[batch], or use engine='decoded')"
        )
    return engine


def default_frame_count(
    program: EncodedProgram, inputs: dict[str, list[int]]
) -> int:
    """Stream-derived frame count: the shortest input stream divided by
    the block size (a block-repeat program consumes ``repeat_count``
    samples per stream per frame).

    A stream too short for even one frame is an error — computing zero
    frames and silently returning empty output streams would hide
    stimulus bugs.
    """
    if not inputs:
        raise SimulationError("n_frames is required without inputs")
    port = min(inputs, key=lambda name: len(inputs[name]))
    shortest = len(inputs[port])
    n_frames = shortest // program.repeat_count
    if n_frames == 0:
        raise SimulationError(
            f"input stream {port!r} has {shortest} samples but one frame "
            f"consumes {program.repeat_count}; supply at least a full "
            f"frame or pass n_frames explicitly"
        )
    return n_frames


def _frame_groups(program: EncodedProgram,
                  inputs: list[dict[str, list[int]]],
                  n_frames: int | None) -> dict[int, list[int]]:
    """Lane indices grouped by their frame count (batch lanes must run
    the same number of frames to stay in lockstep)."""
    groups: dict[int, list[int]] = {}
    for lane, streams in enumerate(inputs):
        frames = (n_frames if n_frames is not None
                  else default_frame_count(program, streams))
        groups.setdefault(frames, []).append(lane)
    return groups


def run_batch(
    program: EncodedProgram,
    inputs: list[dict[str, list[int]]],
    n_frames: int | None = None,
    engine: str = "auto",
) -> list[dict[str, list[int]]]:
    """Simulate one program over a batch of stimulus lanes.

    ``inputs`` is one stream dict per lane; the result is one output
    dict per lane, in order, the same on every engine.  ``n_frames``
    applies to every lane (default: each lane's own stream-derived
    frame count; lanes wanting different counts are grouped and run per
    count).  ``engine`` is one of :data:`ENGINES`.  A program the
    decoded plan cannot express raises :class:`PlanError`.
    """
    if not inputs:
        return []
    resolved = resolve_engine(engine, len(inputs), program.core.data_width)
    obs = current_telemetry()
    with obs.span("simulate", engine=resolved, lanes=len(inputs),
                  n_frames=n_frames):
        plan = decode_program(program)
        if resolved == "decoded":
            outputs = []
            cycles = frames = 0
            for streams in inputs:
                lane_frames = (n_frames if n_frames is not None
                               else default_frame_count(program, streams))
                simulator = DecodedSimulator(plan)
                simulator.load_inputs(streams)
                outputs.append(simulator.run_frames(lane_frames))
                cycles += simulator.cycle
                frames += simulator.frame
        else:
            outputs = [None] * len(inputs)
            cycles = frames = 0
            for frames_wanted, lanes in sorted(
                    _frame_groups(program, inputs, n_frames).items()):
                simulator = BatchSimulator(plan, len(lanes))
                simulator.load_inputs([inputs[lane] for lane in lanes])
                group_out = simulator.run_frames(frames_wanted)
                for lane, lane_out in zip(lanes, group_out):
                    outputs[lane] = lane_out
                cycles += simulator.lane_cycles
                frames += simulator.lane_frames
        obs.count("sim.cycles", cycles)
        obs.count("sim.frames", frames)
        obs.count("sim.batch_width", len(inputs))
    return outputs


def run_program(
    program: EncodedProgram,
    inputs: dict[str, list[int]],
    n_frames: int | None = None,
    engine: str = "auto",
) -> dict[str, list[int]]:
    """One stimulus lane: :func:`run_batch` over ``[inputs]``.

    ``n_frames`` counts *start signals*; the default comes from
    :func:`default_frame_count` (and is what the ``simulate`` span
    records).
    """
    if n_frames is None:
        n_frames = default_frame_count(program, inputs)
    return run_batch(program, [inputs], n_frames, engine=engine)[0]

