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
   the plan cannot express raises :class:`PlanError`.  A program is
   immutable, so it keeps its plan and is decoded once.
2. **Step** — both engines run code generated from the plan: on a
   plan's first run on an engine it is specialized into Python source,
   one generator per straight-line block of words, and built with
   :func:`compile` (:attr:`DecodedPlan.step_binder` and
   :attr:`DecodedPlan.batch_binder`, kept with the plan, each build
   counted as ``sim.codegens``).  One lowering serves both: a register
   read is a constant-index load, the fixed-point semantics are
   expressions with the format's constants, every write of the cycle is
   one tuple assignment, and the block yields the next PC after each
   word.  Only decoded integers and fixed identifiers reach the source
   text.  :class:`DecodedSimulator` runs one lane on Python ints, the
   constants as literals.  :class:`BatchSimulator` runs ``N`` stimulus
   lanes at once on int64 rows: a register file is a ``(size, N)``
   array, so a register is a contiguous row of lanes, a wrap is a sign
   extension matching :mod:`repro.fixed`, and a ``CJMP`` whose lanes
   disagree splits them into two compacted simulators that run on by
   themselves.  The code is built once per program and engine, and pays
   off when a program runs more than once or long enough: a fresh
   program run once for a few frames costs more than the interpreters
   it replaced did, and every later run of it is several times faster.

Engine selection (:func:`resolve_engine`): ``"auto"`` picks numpy when
it is importable, the batch is wide enough and the data width fits the
int64 kernels, else the decoded engine.
"""

from __future__ import annotations

import functools
import importlib.util
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
#: decoded engine (below it, per-call array overhead dominates).  On
#: warm plans the two break even at about 17 lanes on fir8 and lms and
#: 20 on audio (the ``crossover`` row of ``BENCH_sim.json``).
NUMPY_MIN_LANES = 20

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
    decode once, simulate any number of stimulus batches.  Its program
    keeps it (:func:`decode_program`), and it holds no reference back,
    so it dies with the program, and with it the step code the engines
    generate from the plan (:attr:`step_binder`, :attr:`batch_binder`).
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
        self.initial_registers = program.initial_registers
        self.stack_depth = core.controller.stack_depth
        self.n_flags = core.controller.n_flags
        tables = _decode_tables(program)
        allowed = core.controller.allowed_ops()
        self.words: tuple[WordPlan, ...] = tuple(
            _decode_word(program, index, tables, allowed)
            for index in range(len(program.words))
        )
        # Memories and IO ports in the index order the generated step
        # code addresses them by.
        self.memory_names = (*self.ram_sizes, *self.rom_contents)
        self.memory_sizes = (*self.ram_sizes.values(),
                             *map(len, self.rom_contents.values()))
        self.input_ports = _ports(self.words, SEM_INPUT)
        self.output_ports = _ports(self.words, SEM_OUTPUT)
        #: Per word: whether it is an IDLE, where a run waits for a frame.
        self.idle = tuple(word.ctrl is CtrlOp.IDLE for word in self.words)

    @property
    def n_words(self) -> int:
        return len(self.words)

    @functools.cached_property
    def step_binder(self):
        """The plan's generated step code (:func:`_generate_steps`),
        built on first use and kept with the plan, so it lives and dies
        with it (no second memo).  Every build counts ``sim.codegens``."""
        binder = _generate_steps(self, lanes=False)
        current_telemetry().count("sim.codegens")
        return binder

    @functools.cached_property
    def batch_binder(self):
        """The plan's numpy step code (:func:`_generate_steps` spelled
        for rows of lanes), built on the numpy engine's first run of the
        plan and kept beside :attr:`step_binder`.  Every build counts
        ``sim.codegens``."""
        _load_numpy()
        binder = _generate_steps(self, lanes=True)
        current_telemetry().count("sim.codegens")
        return binder


def _ports(words: tuple[WordPlan, ...], sem: int) -> tuple[str, ...]:
    """The IO ports ``sem`` ops name, in first-use order."""
    return tuple(dict.fromkeys(
        op.target for word in words for op in word.ops if op.sem == sem))


def _sign_extend(value: int, width: int) -> int:
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def _decode_tables(program: EncodedProgram) -> tuple[list, list, tuple]:
    """What :func:`_decode_word` reads of the core, built once per plan.

    A field is its ``(offset, mask)`` in the word (``(0, 0)``, reading
    0, when the format lacks it).  Per OPU: the OPU, its opcode field,
    opcode -> operation name, per port ``(is_register, field, rf name
    or sign-extend flag)``, and the micro-ops made so far, by opcode and
    port fields.  Per register file: the file, its write-enable, address
    and mux-select fields, the buses the select picks from (a message
    when nothing can feed the file), and the writes made so far.  Last,
    the controller's op, arg and flag fields.  A plan's words share
    equal micro-ops and writes; both are immutable.
    """
    core = program.core
    dp = core.datapath
    layout = program.format.fields

    def at(name: str) -> tuple[int, int]:
        field = layout.get(name)
        return (field.offset, field.mask) if field else (0, 0)

    opcodes = opcode_table(core)
    units = []
    for opu in dp.opus.values():
        ports = tuple(
            (False, at(f"{opu.name}.p{i}.imm"), opu.kind is OpuKind.CONST)
            if port.accepts_immediate else
            (True, at(f"{opu.name}.p{i}.addr"), port.register_file.name)
            for i, port in enumerate(opu.ports))
        names = {code: name
                 for name, code in opcodes.get(opu.name, {}).items()}
        units.append((opu, at(f"{opu.name}.op"), names, ports, {}))
    files = []
    for rf in dp.register_files.values():
        select, buses = _write_buses(dp, rf)
        files.append((rf, at(f"{rf.name}.wr_en"), at(f"{rf.name}.wr_addr"),
                      at(select) if select else (0, 0), buses, {}))
    return units, files, (at("ctrl.op"), at("ctrl.arg"), at("ctrl.flag"))


def _decode_word(program: EncodedProgram, index: int, tables: tuple,
                 allowed: set[CtrlOp]) -> WordPlan:
    units, files, ((op_at, op_mask), (arg_at, arg_mask),
                   (flag_at, flag_mask)) = tables
    word = program.words[index]
    if word < 0 or word >> program.format.width:
        program.format.decode(word)     # raises: wider than the format
    ctrl = CTRL_DECODE[word >> op_at & op_mask]
    if ctrl not in allowed:
        raise PlanError(
            f"controller op {ctrl.value!r} not supported by this core"
        )
    body_cycle = index - program.body_offset
    ops: list[OpPlan] = []
    for opu, (at, mask), names, ports, made in units:
        opcode = word >> at & mask
        if opcode == 0:
            continue
        key = (opcode, *(word >> at & mask for _, (at, mask), _ in ports))
        op = made.get(key)
        if op is None:
            op = _op_plan(program, opu, names[opcode], ports, key[1:],
                          body_cycle)
            if opu.kind not in (OpuKind.INPUT, OpuKind.OUTPUT):
                made[key] = op
        ops.append(op)

    writes: list[WritePlan] = []
    for rf, (at, mask), (address_at, address_mask), (select_at, select_mask), \
            buses, made in files:
        if not word >> at & mask:
            continue
        address = word >> address_at & address_mask
        select = word >> select_at & select_mask
        write = made.get((address, select))
        if write is None:
            if address >= rf.size:
                raise PlanError(
                    f"register index {address} outside {rf.name!r}")
            if isinstance(buses, str):
                raise PlanError(buses)
            if select >= len(buses):
                raise PlanError(
                    f"mux select {select} outside mux of {rf.name!r}")
            write = made[address, select] = WritePlan(
                rf=rf.name, addr=address, bus=buses[select])
        writes.append(write)

    return WordPlan(
        index=index, ctrl=ctrl, arg=word >> arg_at & arg_mask,
        flag=word >> flag_at & flag_mask, ops=tuple(ops),
        writes=tuple(writes),
    )


def _op_plan(program: EncodedProgram, opu, operation_name: str,
             ports: tuple, fields: tuple[int, ...],
             body_cycle: int) -> OpPlan:
    """The micro-op ``opu`` runs for ``operation_name``, its port fields
    holding ``fields``."""
    operation = opu.operation(operation_name)
    sem, target, constant = _resolve_semantics(
        program, opu, operation_name, body_cycle)
    width = program.core.data_width
    operands = tuple(
        (True, where, value) if is_register else
        (False, _sign_extend(value, width) if where else value, 0)
        for (is_register, _, where), value in zip(
            ports[:operation.arity], fields))
    produces = sem not in (SEM_RAM_WRITE, SEM_OUTPUT)
    return OpPlan(
        opu=opu.name, sem=sem, operands=operands,
        latency=operation.latency,
        bus=opu.bus.name if (produces and opu.bus is not None) else None,
        target=target, constant=constant,
        sets_flags=opu.kind is OpuKind.ALU,
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


def _write_buses(dp, rf) -> tuple[str | None, tuple[str, ...] | str]:
    """The mux-select field of ``rf`` (``None`` without a mux) and the
    buses a write can read, by select value; a message instead of the
    buses when nothing can feed ``rf``."""
    mux = dp.muxes.get(f"mux_{rf.name}")
    if mux is not None:
        return f"{rf.name}.mux", tuple(bus.name for bus in mux.inputs)
    writers = list(rf.writers)
    if not writers:
        return None, f"register file {rf.name!r} has no writer"
    sink = writers[0]
    for bus in dp.buses.values():
        if sink in bus.sinks:
            return None, (bus.name,)
    return None, "sink without a bus"


def decode_program(program: EncodedProgram) -> DecodedPlan:
    """The reusable :class:`DecodedPlan` of an encoded program.

    A program is decoded once: it is immutable, so its plan is kept in
    its instance ``__dict__`` and every later call returns it.  Every
    real decode counts ``sim.decodes``.  Raises :class:`PlanError` (a
    :class:`SimulationError`) when the program uses something the plan
    cannot express.
    """
    plan = program.__dict__.get("_plan")
    if plan is None:
        plan = program.__dict__["_plan"] = DecodedPlan(program)
        current_telemetry().count("sim.decodes")
    return plan


def _cycle_budget(plan: DecodedPlan, n_frames: int,
                  max_cycles: int | None) -> int:
    """Cycles a run may take before it counts as not settling."""
    if max_cycles is not None:
        return max_cycles
    return (n_frames + 1) * max(plan.n_words * 4, 64)


# ---------------------------------------------------------------------------
# Step code: a plan's straight-line blocks generated as Python, per engine.
# ---------------------------------------------------------------------------

def _step_faults(plan: DecodedPlan) -> dict[str, object]:
    """The error helpers generated step code calls, by the name it calls
    them.  The code passes them indices; the names are looked up here,
    so no name from the core or the program reaches generated text."""
    memories = plan.memory_names
    sizes = plan.memory_sizes
    ports = plan.input_ports
    words = plan.words

    def address_fault(*checked):
        """Raise for the first ``address, memory`` pair out of range; a
        numpy address holds one address per lane, checked in order."""
        for address, memory in zip(checked[::2], checked[1::2]):
            for value in getattr(address, "flat", (address,)):
                if not 0 <= value < sizes[memory]:
                    raise SimulationError(
                        f"address {value} outside memory "
                        f"{memories[memory]!r} (size {sizes[memory]})"
                    )

    def input_fault(port: int):
        raise SimulationError(f"input stream {ports[port]!r} exhausted")

    def unmatured(cycle: int, word: int, write: int):
        expected = words[word].writes[write]
        raise SimulationError(
            f"cycle {cycle}: register file {expected.rf!r} expects a value "
            f"on {expected.bus!r} but nothing matured there"
        )

    def stack_overflow():
        raise SimulationError("loop stack overflow")

    def stack_underflow():
        raise SimulationError("ENDL with empty loop stack")

    return {
        "address_fault": address_fault,
        "input_fault": input_fault,
        "unmatured": unmatured,
        "stack_overflow": stack_overflow,
        "stack_underflow": stack_underflow,
    }


def _blocks(plan: DecodedPlan) -> list[range]:
    """The plan's straight-line blocks, in order: a block runs ``CONT``
    words up to and including the first other controller op, and stops
    before an ``IDLE`` (a frame wait always starts its own block)."""
    blocks = []
    start = 0
    for w, word in enumerate(plan.words):
        follows = w + 1 < plan.n_words and not plan.idle[w + 1]
        if word.ctrl is not CtrlOp.CONT or not follows:
            blocks.append(range(start, w + 1))
            start = w + 1
    return blocks


def _value_templates(fmt: FixedFormat,
                     lanes: bool) -> tuple[str, dict[int, str]]:
    """The wrap template and, per semantic code, the value of a micro-op
    that only computes: ``{0}``/``{1}`` its operands, ``{n}`` its
    constant, ``{k}`` its index in the word.  A wrapped expression binds
    at least as tightly as ``+``.

    One lane (``lanes`` false) computes on Python ints with the
    format's constants as literals; ``clip`` names the unclipped value
    ``v{k}``.  Many lanes compute on int64 rows with the constants named
    (:func:`_lane_namespace`): a wrap is a sign extension from the
    format's width, exact for every width up to
    :data:`NUMPY_MAX_WIDTH`, and a clip is ``minimum``/``maximum``.
    """
    if lanes:
        wrap = "({} << EXT >> EXT)"
        clip = "minimum(maximum({}, LO), HI)"
        frac = "FRAC"
    else:
        half, mask = 1 << (fmt.width - 1), (1 << fmt.width) - 1
        low, high = fmt.min_value, fmt.max_value
        wrap = f"({{}} + {half} & {mask}) - {half}"
        clip = f"({high} if (v{{k}} := {{}}) > {high} else " \
               f"{low} if v{{k}} < {low} else v{{k}})"
        frac = fmt.frac_bits
    return wrap, {
        SEM_ADD: wrap.format("{0} + {1}"),
        SEM_ACU_ADD: wrap.format("{0} + {1}"),
        SEM_SUB: wrap.format("{0} - {1}"),
        SEM_MULT: wrap.format(f"({{0}} * {{1}} >> {frac})"),
        SEM_PASS: wrap.format("{0}"),
        SEM_ASR: wrap.format("({0} >> {n})"),
        SEM_ADD_CLIP: clip.replace("{}", "{0} + {1}"),
        SEM_PASS_CLIP: clip.replace("{}", "{0}"),
        SEM_ACU_ADDMOD: "({0} + {1}) % {n}",
        SEM_ACU_INCA: "({0} + 1) % {n}",
        SEM_CONST: "{0}",
    }


def _lane_namespace(fmt: FixedFormat) -> dict[str, object]:
    """What numpy step code names besides its error helpers: the
    format's constants as int64 scalars (so no op converts a Python int)
    and the array functions it calls."""
    int64 = _np.int64
    return {
        "EXT": int64(64 - fmt.width), "FRAC": int64(fmt.frac_bits),
        "LO": int64(fmt.min_value), "HI": int64(fmt.max_value),
        "minimum": _np.minimum, "maximum": _np.maximum,
        "count_nonzero": _np.count_nonzero, "full": _np.full,
    }


def _generate_steps(plan: DecodedPlan, lanes: bool):
    """Specialize ``plan`` into Python source, one generator per
    straight-line block (:func:`_blocks`), and compile it; returns the
    generated ``bind`` function.

    ``bind(run, registers, memories, rows, streams, cursors, outputs,
    flags, stack, pending)`` takes one simulator's state, ``run`` its
    :class:`_RunState` and the rest its lists in the plan's index order,
    and returns, per word, the generator
    function of its block, ``block(cycle, pc)``: entered at word ``pc``
    in cycle ``cycle``, it runs one word per resumption and yields the
    next PC.  In a word a register read is a constant-index load, the
    fixed-point semantics are expressions with the format's constants
    (:func:`_value_templates`), and every write of the cycle is one
    tuple assignment, so every read sees the registers as the cycle
    started.  A latency-1 result is assigned straight into its
    destination registers; only a later-maturing result goes through
    ``pending`` (due cycle -> bus number -> value).

    The decoded engine's code (``lanes`` false) computes on Python ints.
    The numpy engine's (``lanes`` true) is the same lowering spelled for
    rows of lanes: a register is a row of a ``(size, lanes)`` array (a
    view), a RAM is flat with each lane's row starting at ``rows[j]``, a
    ROM is one row every lane shares, IO moves whole rows, flags are
    rows and a ``CJMP`` at word ``w`` whose lanes disagree yields ``~w``
    for the driver to split the lanes.  As a register read is a
    view, no value may be used after a write of the cycle could change
    it: RAM stores are the first targets of the tuple, so their
    addresses and data are read before any register is written, and an
    output, or a result that is a bare register read, is copied.

    The text is built from decoded integers and fixed identifiers only.
    A register file, memory or port is a list index, and the error
    helpers (:func:`_step_faults`) look names up by index, so no name
    from the core or the program reaches :func:`compile`.
    """
    rf_index = {name: i for i, name in enumerate(plan.rf_sizes)}
    memory_index = {name: i for i, name in enumerate(plan.memory_names)}
    input_index = {port: i for i, port in enumerate(plan.input_ports)}
    output_index = {port: i for i, port in enumerate(plan.output_ports)}
    # Memories ``0 .. n_rams - 1`` are RAMs, the rest ROMs.
    n_rams = len(plan.ram_sizes)
    # Buses that carry a result maturing after its issue cycle.
    late_bus = {}
    for word in plan.words:
        for op in word.ops:
            if op.latency > 1 and op.bus is not None:
                late_bus.setdefault(op.bus, len(late_bus))
    wrap, computed = _value_templates(plan.fmt, lanes)
    if lanes:
        any_of = "count_nonzero({})"
        negative, zero = "{} < 0", "{} == 0"
    else:
        any_of = "{}"
        negative, zero = "1 if {} < 0 else 0", "1 if {} == 0 else 0"

    def operand(source) -> str:
        is_register, where, address = source
        if is_register:
            return f"rf{rf_index[where]}[{int(address)}]"
        return repr(int(where))

    def address(k: int, expr: str, j: int, tests: list[str],
                faults: list[str]) -> str:
        """``expr`` as an address into memory ``j``; its range test and
        its ``address, memory`` pair go to ``tests`` and ``faults``."""
        size = plan.memory_sizes[j]
        if not expr.startswith("rf"):
            if not 0 <= int(expr) < size:
                tests.append("1")
                faults.append(f"{expr}, {j}")
            return expr
        if size & (size - 1) == 0:
            # A power-of-two size: any bit at or above it, or a sign.
            tests.append(f"(a{k} := {expr}) >> {size.bit_length() - 1}")
        elif lanes:
            tests.append(f"((a{k} := {expr}) < 0) | (a{k} >= {size})")
        else:
            tests.append(f"(not 0 <= (a{k} := {expr}) < {size})")
        faults.append(f"a{k}, {j}")
        return f"a{k}"

    def cell(j: int, at: str) -> str:
        """Word ``at`` of memory ``j``: a lane's RAM row starts at
        ``row{j}`` in the flat memory."""
        if lanes and j < n_rams:
            return f"mem{j}[row{j} + {at}]"
        return f"mem{j}[{at}]"

    def word_lines(w: int, word: WordPlan, cycle: str) -> list[str]:
        """Word ``w`` run in cycle ``cycle``: its reads, then one tuple
        assignment of every write, then the next PC, yielded."""
        body: list[str] = []            # statements before the writes
        tests: list[str] = []           # address range tests
        faults: list[str] = []          # their ``address, memory`` pairs
        results = []                    # (op, its value expression)
        uniform = []                    # per result: one value, all lanes
        stores = []                     # (target, value), committed first
        for k, op in enumerate(word.ops):
            x = [operand(source) for source in op.operands]
            sem = op.sem
            if sem in computed:
                value = computed[sem].format(*x, n=int(op.constant), k=k)
                if lanes and value.startswith("rf"):
                    value += ".copy()"  # a bare register row is a view
            elif sem == SEM_RAM_READ or sem == SEM_ROM_READ:
                j = memory_index[op.target]
                value = cell(j, address(k, x[0], j, tests, faults))
            elif sem == SEM_RAM_WRITE:
                j = memory_index[op.target]
                at = address(k, x[0], j, tests, faults)
                stores.append((cell(j, at), x[1]))
                continue
            elif sem == SEM_INPUT:
                p = input_index[op.target]
                body += [f"if (k{k} := cursors[{p}]) >= len(in{p}): "
                         f"input_fault({p})",
                         f"cursors[{p}] = k{k} + 1"]
                # The numpy engine wraps its streams when they load.
                value = f"in{p}[k{k}]" if lanes else \
                    wrap.format(f"in{p}[k{k}]")
            else:  # SEM_OUTPUT
                value = x[0]
                if lanes:
                    value = f"{value}.copy()" if value.startswith("rf") \
                        else f"full(run.n_lanes, {value})"
                body.append(f"out{output_index[op.target]}.append({value})")
                continue
            results.append((op, value))
            # A numpy value of immediates alone is one scalar, all lanes.
            uniform.append(lanes and sem not in (SEM_RAM_READ, SEM_INPUT)
                           and not any(source[0] for source in op.operands))
        if tests:
            # One test for every address of the word, before any effect.
            body.insert(0, f"if {any_of.format(' | '.join(tests))}: "
                           f"address_fault({', '.join(faults)})")

        # Each result's uses: (target, value template), ``{}`` standing
        # for the result.  A result used more than once is named at its
        # first use; the right-hand side evaluates left to right.
        on_bus = {op.bus: n for n, (op, _) in enumerate(results)
                  if op.bus is not None and op.latency == 1}
        uses: list[list[tuple[str, str]]] = [[] for _ in results]
        matured: list[tuple[str, str]] = []
        for n, write in enumerate(word.writes):
            target = f"rf{rf_index[write.rf]}[{int(write.addr)}]"
            if write.bus in on_bus:
                uses[on_bus[write.bus]].append((target, "{}"))
            elif write.bus in late_bus:
                b = late_bus[write.bus]
                matured.append((target, f"arrived[{b}] if {b} in arrived "
                                        f"else unmatured({cycle}, {w}, {n})"))
            else:
                matured.append((target, f"unmatured({cycle}, {w}, {n})"))
        for n, (op, _) in enumerate(results):
            if op.bus is not None and op.latency > 1:
                uses[n].append((f"pending.setdefault({cycle} + "
                                f"{op.latency - 1}, {{}})"
                                f"[{late_bus[op.bus]}]", "{}"))
        flagged = [n for n, (op, _) in enumerate(results) if op.sets_flags]
        if flagged and plan.n_flags:
            n = flagged[-1]
            # A flag is a row of lanes even when its value is one scalar,
            # so a CJMP on it never mistakes the scalar for one lane.
            row = "full(run.n_lanes, {})" if uniform[n] else "{}"
            uses[n].append(("flags[0]", row.format(negative)))
            if plan.n_flags > 1:
                uses[n].append(("flags[1]", row.format(zero)))
        if late_bus:
            # Every cycle takes its matured results out of the table.
            body.append(f"arrived = pending.pop({cycle}, NOTHING)" if matured
                        else f"pending.pop({cycle}, None)")

        # Stores first: a numpy store's address and data may be register
        # rows that a later target of the tuple rewrites.
        targets = [target for target, _ in stores]
        values = [value for _, value in stores]
        for n, (op, value) in enumerate(results):
            later = value
            if len(uses[n]) > 1 and op.sem != SEM_CONST:
                value, later = f"(t{n} := {value})", f"t{n}"
            for target, template in uses[n]:
                targets.append(target)
                values.append(template.format(value))
                value = later
        for target, value in matured:
            targets.append(target)
            values.append(value)
        if targets:
            body.append(f"{', '.join(targets)} = {', '.join(values)}")
        return body + _control_lines(word, w, plan.stack_depth, lanes)

    lines = ["def bind(run, registers, memories, rows, streams, cursors, "
             "outputs, flags, stack, pending):"]
    for prefix, parameter, count in (
            ("rf", "registers", len(plan.rf_sizes)),
            ("mem", "memories", len(plan.memory_names)),
            ("row", "rows", n_rams if lanes else 0),
            ("in", "streams", len(plan.input_ports)),
            ("out", "outputs", len(plan.output_ports))):
        if count:
            names = ", ".join(f"{prefix}{i}" for i in range(count))
            lines.append(f"    {names}, = {parameter}")
    entries = []
    for block in _blocks(plan):
        start = block.start
        lines.append(f"    def b{start}(c, at):")
        entries += [f"b{start}, "] * len(block)
        if len(block) == 1:
            lines += [f"        {line}"
                      for line in word_lines(start, plan.words[start], "c")]
            continue
        for w in block:
            # Entered at word ``at``, the block skips the words before
            # it; word ``w`` runs in cycle ``c - at + w``.
            lines.append(f"        if at <= {w}:")
            body = word_lines(w, plan.words[w], f"c - at + {w}")
            lines += [f"            {line}" for line in body]
    lines.append(f"    return ({''.join(entries)})")

    namespace = {"__builtins__": {}, "len": len, "NOTHING": {},
                 **_step_faults(plan)}
    if lanes:
        namespace.update(_lane_namespace(plan.fmt))
    exec(compile("\n".join(lines) + "\n", "<decoded plan>", "exec"),
         namespace)
    return namespace["bind"]


def _control_lines(word: WordPlan, w: int, stack_depth: int,
                   lanes: bool) -> list[str]:
    """The controller's part of word ``w``: it yields the next PC."""
    ctrl, arg = word.ctrl, int(word.arg)
    if ctrl is CtrlOp.CONT:
        return [f"yield {w + 1}"]
    if ctrl is CtrlOp.JUMP:
        return [f"yield {arg}"]
    if ctrl is CtrlOp.CJMP:
        flag = f"flags[{int(word.flag)}]"
        if lanes:
            # Lanes that disagree: ``~w`` asks the driver to split them.
            return [f"yield {arg} if (taken := count_nonzero({flag})) == "
                    f"run.n_lanes else {w + 1} if not taken else {~w}"]
        return [f"yield {arg} if {flag} else {w + 1}"]
    if ctrl is CtrlOp.LOOP:
        return [f"if len(stack) >= {int(stack_depth)}: stack_overflow()",
                f"stack.append(({w + 1}, {arg}))",
                f"yield {w + 1}"]
    if ctrl is CtrlOp.ENDL:
        return ["if not stack: stack_underflow()",
                "address, count = stack[-1]",
                "if count > 1:",
                "    stack[-1] = (address, count - 1)",
                "    yield address",
                "else:",
                "    stack.pop()",
                f"    yield {w + 1}"]
    if ctrl is CtrlOp.IDLE:
        return ["if run.start_tokens > 0:",
                "    run.start_tokens -= 1",
                "    run.frame += 1",
                f"    yield {w + 1}",
                "else:",
                f"    yield {w}"]
    if ctrl is CtrlOp.HALT:
        return ["run.halted = True", f"yield {w}"]
    raise PlanError(f"unhandled controller op {ctrl}")  # pragma: no cover


class _RunState:
    """The run state generated step code reads and writes.  It is kept
    apart from its simulator, so the code bound to it holds no reference
    back: a simulator and its arrays are freed as soon as it is dropped,
    not at the next cyclic garbage collection."""

    __slots__ = ("start_tokens", "frame", "halted", "n_lanes")

    def __init__(self, start_tokens: int, frame: int, n_lanes: int):
        self.start_tokens = start_tokens
        self.frame = frame
        self.halted = False
        self.n_lanes = n_lanes


def _run_state(name: str) -> property:
    """A simulator's ``name``, held by its :class:`_RunState`."""
    return property(lambda sim: getattr(sim._run, name),
                    lambda sim, value: setattr(sim._run, name, value))


def _run_blocks(sim, budget: int) -> None:
    """Run ``sim``'s generated blocks from ``sim.pc`` until it halts,
    waits at an ``IDLE`` with no frame signal left, spends ``budget``
    cycles, or its lanes diverge at a ``CJMP`` (numpy: the PC is then
    ``~w``, ``w`` the ``CJMP``'s word).  Raises for a PC outside the
    program and a run that stopped anywhere else."""
    blocks = sim._blocks
    run = sim._run
    idle = sim.plan.idle
    n_words = len(blocks)
    pc, cycle = sim.pc, sim.cycle
    try:
        while cycle < budget and not run.halted and pc >= 0:
            # Only a block's first word can be outside the program or an
            # IDLE, and only its last can halt or split.
            if pc >= n_words:
                raise SimulationError(f"PC {pc} outside the program")
            if idle[pc] and not run.start_tokens:
                break
            for pc in blocks[pc](cycle, pc):
                cycle += 1
                if cycle >= budget:
                    break
    finally:
        sim.pc, sim.cycle = pc, cycle
    if run.halted or pc < 0:
        return
    if pc >= n_words:
        raise SimulationError(f"PC {pc} outside the program")
    if not (idle[pc] and run.start_tokens == 0):
        raise SimulationError(
            f"simulation did not settle within {budget} cycles")


class DecodedSimulator:
    """Steps one lane over a :class:`DecodedPlan` — pure Python.

    The words run as generated code (:attr:`DecodedPlan.step_binder`,
    built once per plan), one generator per straight-line block, bound
    to this simulator's register files, memories and streams when it is
    made: a cycle is one resumption that yields the next PC.  The
    containers in :attr:`registers`, :attr:`memories`, :attr:`inputs`,
    :attr:`outputs`, :attr:`flags` and :attr:`stack` are the ones the
    code holds: edit them in place, do not rebind them.  The
    differential suite pins the outputs to
    :func:`repro.lang.reference.run_reference`.
    """

    start_tokens = _run_state("start_tokens")
    frame = _run_state("frame")
    halted = _run_state("halted")

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
        self._run = _RunState(0, 0, 1)
        self.inputs: dict[str, list[int]] = {
            port: [] for port in plan.input_ports}
        self.outputs: dict[str, list[int]] = {
            port: [] for port in plan.output_ports}
        self._cursors = [0] * len(plan.input_ports)
        self._blocks = plan.step_binder(
            self._run, list(self.registers.values()),
            [self.memories[name] for name in plan.memory_names], (),
            list(self.inputs.values()), self._cursors,
            list(self.outputs.values()), self.flags, self.stack, {})

    def load_inputs(self, streams: dict[str, list[int]]) -> None:
        for port, stream in self.inputs.items():
            stream[:] = streams.get(port, ())
        self._cursors[:] = [0] * len(self._cursors)

    def run_frames(self, n_frames: int,
                   max_cycles: int | None = None) -> dict[str, list[int]]:
        self._run.start_tokens += n_frames
        _run_blocks(self, _cycle_budget(self.plan, n_frames, max_cycles))
        return {port: list(values) for port, values in self.outputs.items()
                if values}

    def step(self) -> None:
        """Execute the word at :attr:`pc`: one cycle."""
        if self._run.halted:
            raise SimulationError("stepping a halted core")
        if self.pc >= len(self._blocks):
            raise SimulationError(f"PC {self.pc} outside the program")
        self.pc = next(self._blocks[self.pc](self.cycle, self.pc))
        self.cycle += 1


# ---------------------------------------------------------------------------
# Numpy batch engine: N lanes in lockstep, lane-set splits on divergence.
# ---------------------------------------------------------------------------

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


class BatchSimulator:
    """Executes one :class:`DecodedPlan` over ``n_lanes`` stimulus lanes
    as numpy array ops.

    The words run as generated code (:attr:`DecodedPlan.batch_binder`,
    built once per plan), the decoded engine's lowering spelled for rows
    of lanes.  A register file is a ``(size, n_lanes)`` int64 array, so
    a register is a contiguous row of lanes; a RAM is ``(n_lanes,
    size)``; a ROM is its contents, one row every lane shares; an input
    stream is a ``(samples, n_lanes)`` table; :attr:`flags` holds one
    row per flag.  Exact two's-complement wrap semantics match
    :mod:`repro.fixed`, so outputs are bit-identical to
    :class:`DecodedSimulator`.  Every lane runs the same program; only
    the stimulus differs per lane.

    A ``CJMP`` whose lanes disagree splits the simulator into two
    children, each a compacted copy of its side's lanes (:attr:`lanes`
    holds their batch indices) that runs on by itself; lanes never
    re-merge.  When a run ends, every child's registers, RAMs and flags
    are scattered back, so this simulator's hold every lane's.
    """

    start_tokens = _run_state("start_tokens")
    frame = _run_state("frame")
    halted = _run_state("halted")

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
        #: The batch lanes this simulator steps, in order.
        self.lanes = _np.arange(n_lanes)
        int64 = _np.int64
        self.registers = {
            name: _np.zeros((size, n_lanes), dtype=int64)
            for name, size in plan.rf_sizes.items()
        }
        for rf_name, inits in plan.initial_registers.items():
            for register, value in inits:
                self.registers[rf_name][register] = value
        self.memories = {
            name: _np.zeros((n_lanes, size), dtype=int64)
            for name, size in plan.ram_sizes.items()
        }
        for name, contents in plan.rom_contents.items():
            self.memories[name] = _np.array(contents, dtype=int64)
        self.flags = [_np.zeros(n_lanes, dtype=bool)
                      for _ in range(max(1, plan.n_flags))]
        self.inputs = {port: _np.zeros((0, n_lanes), dtype=int64)
                       for port in plan.input_ports}
        self.input_lengths = {port: _np.zeros(n_lanes, dtype=int64)
                              for port in plan.input_ports}
        #: Lane-cycles actually stepped (telemetry: ``sim.cycles``).
        self.lane_cycles = 0
        #: Frames consumed summed over lanes (telemetry: ``sim.frames``).
        self.lane_frames = 0

    def load_inputs(self, streams: list[dict[str, list[int]]]) -> None:
        """Load one stimulus dict per lane (``len(streams) == n_lanes``).

        Streams may have different lengths per lane; a lane reading past
        its own stream raises exactly like :class:`DecodedSimulator`."""
        if len(streams) != self.n_lanes:
            raise SimulationError(
                f"{len(streams)} stimulus dicts for {self.n_lanes} lanes")
        ext = _np.int64(64 - self.plan.fmt.width)
        for port in self.plan.input_ports:
            values = [lane.get(port, ()) for lane in streams]
            lengths = [len(stream) for stream in values]
            width = max(lengths)
            if min(lengths) < width:
                values = [[*stream, *[0] * (width - len(stream))]
                          for stream in values]
            table = _np.array(values, dtype=_np.int64).reshape(
                self.n_lanes, width)
            self.inputs[port] = (table << ext >> ext).T.copy()
            self.input_lengths[port] = _np.array(lengths, dtype=_np.int64)

    def run_frames(self, n_frames: int,
                   max_cycles: int | None = None) -> list[dict[str, list[int]]]:
        """Run ``n_frames`` time-loop iterations on every lane from the
        first word; returns one output-stream dict per lane."""
        budget = _cycle_budget(self.plan, n_frames, max_cycles)
        self._resume(0, 0, 0, n_frames, [],
                     [0] * len(self.plan.input_ports), {})
        results: list[dict[str, list[int]]] = [
            {} for _ in range(self.n_lanes)]
        work, leaves = [self], []
        while work:
            sim = work.pop()
            _run_blocks(sim, budget)
            sim._flush(results)
            if sim.pc < 0:
                work += sim._split(~sim.pc)
            else:
                leaves.append(sim)
        if leaves != [self]:
            self._merge(leaves)
        self.lane_cycles = sum(leaf.cycle * leaf.n_lanes for leaf in leaves)
        self.lane_frames = sum(leaf.frame * leaf.n_lanes for leaf in leaves)
        return results

    def _resume(self, pc: int, cycle: int, frame: int, start_tokens: int,
                stack: list, cursors: list, pending: dict) -> None:
        """Set the run state, then bind the plan's numpy step code to
        this simulator's state; a stream is cut to the samples every
        lane has."""
        self.pc, self.cycle = pc, cycle
        self._run = _RunState(start_tokens, frame, self.n_lanes)
        self.stack = stack
        self._cursors = cursors
        self._pending = pending
        plan = self.plan
        self.outputs = [[] for _ in plan.output_ports]
        self._blocks = plan.batch_binder(
            self._run, list(self.registers.values()),
            [self.memories[name].reshape(-1) for name in plan.memory_names],
            [_np.arange(0, self.n_lanes * size, size)
             for size in plan.ram_sizes.values()],
            [self.inputs[port][:self.input_lengths[port].min()]
             for port in plan.input_ports],
            self._cursors, self.outputs, self.flags, self.stack,
            self._pending)

    def _flush(self, results: list[dict[str, list[int]]]) -> None:
        """Append what this simulator's lanes output to ``results``."""
        lanes = self.lanes.tolist()
        for port, rows in zip(self.plan.output_ports, self.outputs):
            if not rows:
                continue
            for lane, values in zip(lanes, _np.stack(rows, axis=1).tolist()):
                known = results[lane].get(port)
                if known is None:
                    results[lane][port] = values
                else:
                    known.extend(values)

    def _split(self, w: int) -> list["BatchSimulator"]:
        """The children of the ``CJMP`` at word ``w`` whose lanes
        disagreed: the taken side's, then the fall-through side's.  A
        flag is a row of lanes, so each side has at least one lane."""
        word = self.plan.words[w]
        taken = self.flags[word.flag]
        return [self._child(_np.flatnonzero(taken), word.arg),
                self._child(_np.flatnonzero(~taken), w + 1)]

    def _child(self, positions, pc: int) -> "BatchSimulator":
        """A simulator holding this one's lanes at ``positions``, its
        arrays compacted to them, continuing at ``pc``."""
        def rows(value):
            # An in-flight value of immediates alone is a scalar.
            return value[positions] if isinstance(value, _np.ndarray) \
                else value

        plan = self.plan
        child = object.__new__(BatchSimulator)
        child.plan = plan
        child.n_lanes = len(positions)
        child.lanes = self.lanes[positions]
        child.registers = {name: rf.take(positions, axis=1)
                           for name, rf in self.registers.items()}
        child.memories = {name: memory.take(positions, axis=0)
                          if name in plan.ram_sizes else memory
                          for name, memory in self.memories.items()}
        child.flags = [flag[positions] for flag in self.flags]
        child.inputs = {port: table.take(positions, axis=1)
                        for port, table in self.inputs.items()}
        child.input_lengths = {port: lengths[positions] for port, lengths
                               in self.input_lengths.items()}
        child._resume(pc, self.cycle, self.frame, self.start_tokens,
                      list(self.stack), list(self._cursors), {
                          due: {bus: rows(value)
                                for bus, value in arrived.items()}
                          for due, arrived in self._pending.items()})
        return child

    def _merge(self, leaves: list["BatchSimulator"]) -> None:
        """Scatter the registers, RAMs and flags of the simulators the
        lanes ended in back into this one's."""
        flags = [_np.zeros(self.n_lanes, dtype=bool) for _ in self.flags]
        for leaf in leaves:
            lanes = leaf.lanes
            for name, rf in leaf.registers.items():
                self.registers[name][:, lanes] = rf
            for name in self.plan.ram_sizes:
                self.memories[name][lanes] = leaf.memories[name]
            for merged, flag in zip(flags, leaf.flags):
                merged[lanes] = flag
        self.flags[:] = flags


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
    n_frames = min(map(len, inputs.values())) // program.repeat_count
    if n_frames == 0:
        port = min(inputs, key=lambda name: len(inputs[name]))
        shortest = len(inputs[port])
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

