"""Batch simulator tests: decode plans, engine parity, engine choice.

:func:`repro.run_reference` on the source graph is the oracle; both
engines (the decoded single-lane interpreter and the numpy batch
engine) must be bit-identical to it on every program the toolchain can
produce.  Hand-assembled controller programs assert register values
and cycle counts directly.  The suite covers:

* differential parity over compiled applications (fixed seeds plus a
  Hypothesis-driven random-stimulus property),
* the controller edge cases batches make interesting — nested
  hardware loops, flag-driven CJMP *divergence* across lanes,
  pipelined-OPU in-flight results,
* engine resolution (``auto`` by lane count and data width, an
  undecodable image raising :class:`~repro.sim.PlanError`),
* the plan memo (one decode and one step-code build per program, fresh
  ones after an edit, neither outliving its program), generated step
  code on a core whose names are not Python identifiers, and in-place
  edits of the decoded engine's registers and memories reaching that
  code,
* the numpy engine's traps: register rows are views, so same-cycle
  overwrites of a RAM write's address and data, an output or an
  operand must not leak; per-lane and immediate memory addresses;
  in-flight results and ragged streams across a lane split, and a flag
  set from immediates alone that must not split; the sign-extension
  wrap against :mod:`repro.fixed`,
* the short-stimulus guard and the ``sim.*`` telemetry counters.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CompileOptions,
    Telemetry,
    Toolchain,
    run_reference,
    use_telemetry,
)
from repro.analyze import lint_program
from repro.apps import fir_application, lms_application
from repro.arch import (
    ControllerSpec,
    CoreSpec,
    CtrlOp,
    Datapath,
    Operation,
    OpuKind,
    fir_core,
)
from repro.arch.serialize import core_from_dict, core_to_dict
from repro.encode import CTRL_OPCODES
from repro.encode.assembler import EncodedProgram
from repro.errors import SimulationError
from repro.fixed import FixedFormat
from repro.lang.builder import DfgBuilder
from repro.sim import (
    ENGINES,
    NUMPY_AVAILABLE,
    DecodedSimulator,
    PlanError,
    decode_program,
    default_frame_count,
    resolve_engine,
    run_batch,
    run_program,
)
from repro.sim import batch as batch_module

from stream_helpers import random_streams
from test_pipelined_opu import FIR3, pipelined_core
from test_sim_controller import ProgramBuilder, make_core, mux_index

BATCH_ENGINES = ["decoded"] + (["numpy"] if NUMPY_AVAILABLE else [])

OPTIONS = CompileOptions(disk_cache=False)


def reference_oracle(compiled, lanes, n_frames=None):
    """Each lane through :func:`run_reference` on the source graph."""
    program = compiled.binary
    fmt = FixedFormat(program.core.data_width, program.core.frac_bits)
    return [
        run_reference(
            compiled.source_dfg, dict(streams),
            n_frames if n_frames is not None
            else default_frame_count(program, streams),
            fmt=fmt)
        for streams in lanes
    ]


@pytest.fixture(scope="module")
def fir_compiled():
    toolchain = Toolchain("fir", OPTIONS)
    return toolchain.compile(fir_application([0.25, 0.5, -0.125, 0.3]))


@pytest.fixture(scope="module")
def fir_program(fir_compiled):
    return fir_compiled.binary


@pytest.fixture(scope="module")
def lms_compiled():
    toolchain = Toolchain("adaptive", OPTIONS)
    return toolchain.compile(lms_application(n_taps=3))


@pytest.fixture(scope="module")
def lms_program(lms_compiled):
    return lms_compiled.binary


def fresh_copy(program):
    """An undecoded copy of ``program``."""
    return dataclasses.replace(program)


def cont_at(program, index):
    """A copy of ``program`` whose word ``index`` is a bare CONT."""
    words = list(program.words)
    words[index] = program.format.encode(
        {"ctrl.op": CTRL_OPCODES[CtrlOp.CONT]})
    return dataclasses.replace(program, words=words)


def count_decodes(action, counter="sim.decodes"):
    """(``counter`` counted while ``action`` ran, its result)."""
    obs = Telemetry()
    with use_telemetry(obs):
        result = action()
    return obs.counters.get(counter, 0), result


class TestDecodePlan:
    def test_plan_covers_every_word(self, fir_program):
        plan = decode_program(fir_program)
        assert plan.n_words == len(fir_program.words)

    def test_decoded_simulator_matches_reference(self, fir_compiled):
        streams = random_streams(["x"], 12, seed=7)
        simulator = DecodedSimulator(decode_program(fir_compiled.binary))
        simulator.load_inputs(dict(streams))
        assert [simulator.run_frames(12)] == reference_oracle(
            fir_compiled, [streams], 12)


class TestPlanMemo:
    """``decode_program`` decodes a program once: a program is immutable
    and keeps its plan, and a changed binary is a new program."""

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_repeated_runs_decode_once(self, fir_program, engine):
        program = fresh_copy(fir_program)
        lanes = [random_streams(["x"], 4, seed=s) for s in range(3)]

        def runs():
            for _ in range(3):
                run_batch(program, lanes, engine=engine)
                run_program(program, lanes[0], engine=engine)

        assert count_decodes(runs)[0] == 1
        assert count_decodes(runs)[0] == 0
        assert count_decodes(lambda: lint_program(program))[0] == 0

    def test_word_edit_decodes_again(self, fir_program):
        program = fresh_copy(fir_program)
        first = decode_program(program)
        assert decode_program(program) is first
        index = next(w.index for w in first.words if w.ops)
        with pytest.raises(TypeError):
            program.words[index] = 0
        edited = cont_at(program, index)
        decodes, second = count_decodes(lambda: decode_program(edited))
        assert decodes == 1
        assert second is not first
        assert second.words[index].ops == ()
        assert decode_program(edited) is second
        assert decode_program(program) is first

    def test_map_edit_is_never_served_a_stale_plan(self, fir_program):
        program = fresh_copy(fir_program)
        decode_program(program)
        for edit in (lambda: program.input_map.clear(),
                     lambda: program.input_map.__setitem__(("i", 0), "x"),
                     lambda: setattr(program, "input_map", {})):
            with pytest.raises((AttributeError, TypeError)):
                edit()
        with pytest.raises(PlanError, match="no logical port"):
            decode_program(dataclasses.replace(program, input_map={}))

    def test_replaced_copy_gets_its_own_plan(self, fir_program):
        program = fresh_copy(fir_program)
        plan = decode_program(program)
        copy = dataclasses.replace(program)
        assert count_decodes(lambda: decode_program(copy))[0] == 1
        assert decode_program(copy) is not plan

    def test_ten_runs_generate_once(self, fir_program):
        program = fresh_copy(fir_program)
        streams = random_streams(["x"], 4, seed=4)

        def runs():
            for _ in range(10):
                run_program(program, streams, engine="decoded")

        assert count_decodes(runs, "sim.codegens")[0] == 1
        assert count_decodes(runs, "sim.codegens")[0] == 0

    def test_word_edit_generates_new_code(self, fir_program):
        program = fresh_copy(fir_program)
        first = decode_program(program)
        code = first.step_binder
        index = next(w.index for w in first.words if w.ops)
        program = cont_at(program, index)
        codegens, second = count_decodes(
            lambda: decode_program(program).step_binder, "sim.codegens")
        assert codegens == 1
        assert decode_program(program) is not first
        assert second is not code
        lanes = [random_streams(["x"], 4, seed=s) for s in range(3)]
        assert run_batch(program, lanes, engine="decoded") == [
            run_program(program, lane, engine="decoded") for lane in lanes]
        if NUMPY_AVAILABLE:
            assert run_batch(program, lanes, engine="decoded") == \
                run_batch(program, lanes, engine="numpy")

    def test_code_dies_with_its_program(self, fir_program):
        program = fresh_copy(fir_program)
        run_program(program, random_streams(["x"], 4, seed=2),
                    engine="decoded")
        code = weakref.ref(decode_program(program).step_binder)
        del program
        gc.collect()
        assert code() is None


#: Quotes, braces, a backslash and a newline: nothing of a core's names
#: may reach generated step code except through an index.
ODD = "'\"{}}\\\n"


def odd(name):
    return name + ODD


@pytest.fixture(scope="module")
def odd_compiled():
    """A two-tap filter on a fir core whose register files, RAM, IO
    units, IO ports and core name all end in :data:`ODD`."""
    data = core_to_dict(fir_core(ram_size=16))
    data["name"] = odd(data["name"])
    datapath = data["datapath"]
    units = {"ram", "ipb", "opb"}
    for rf in datapath["register_files"]:
        rf["name"] = odd(rf["name"])
    for unit in datapath["opus"]:
        if unit["name"] in units:
            unit["name"] = odd(unit["name"])
        for port in unit["ports"]:
            if port["register_file"] is not None:
                port["register_file"] = odd(port["register_file"])
    for route in datapath["routes"]:
        route["register_file"] = odd(route["register_file"])
    for class_def in data["class_defs"]:
        if class_def["opu"] in units:
            class_def["opu"] = odd(class_def["opu"])
    builder = DfgBuilder("odd")
    x = builder.input(odd("x"))
    delay = builder.state("d", depth=2)
    builder.write(delay, x)
    builder.output(odd("y"), builder.op(
        "add", builder.op("mult", builder.param("h0", 0.5), x),
        builder.op("mult", builder.param("h1", 0.25),
                   builder.delay(delay, 1))))
    return Toolchain(core_from_dict(data), OPTIONS).compile(builder.build())


class TestGeneratedSource:
    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_odd_names_match_reference(self, odd_compiled, engine):
        lanes = [random_streams([odd("x")], 8, seed=s) for s in range(8)]
        assert run_batch(odd_compiled.binary, lanes, engine=engine) == \
            reference_oracle(odd_compiled, lanes)

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_address_error_names_the_memory(self, odd_compiled, engine):
        # The ACU walks the delay line modulo 100 from 50: past the
        # 16-word RAM at the first access.
        program = odd_compiled.binary
        image = dataclasses.replace(
            program, acu_moduli={unit: 100 for unit in program.acu_moduli},
            initial_registers={**program.initial_registers,
                               odd("rf_acu"): [(0, 50)]})
        with pytest.raises(SimulationError) as error:
            run_program(image, random_streams([odd("x")], 4, seed=1),
                        engine=engine)
        assert f"outside memory {odd('ram')!r} (size 16)" in \
            str(error.value)

def fill_memories(sim):
    """Every memory of ``sim`` holds ``10 * address``, edited in place."""
    for memory in sim.memories.values():
        memory[:] = range(0, 10 * len(memory), 10)


class TestLiveState:
    """The decoded engine's register files and memories are the lists
    its generated code holds: an edit made in place before a run is seen
    by the run."""

    @staticmethod
    def run(program, edit):
        sim = DecodedSimulator(decode_program(program))
        sim.load_inputs(random_streams(["x"], 4, seed=5))
        edit(sim)
        return sim.run_frames(4)

    def test_memory_edit_is_seen(self, fir_program):
        assert self.run(fir_program, fill_memories) != \
            self.run(fir_program, lambda sim: None)

    def test_register_edit_is_seen(self, fir_program):
        # The ACU's base register picks which delay-line words are read.
        def base(value):
            def edit(sim):
                fill_memories(sim)
                sim.registers["rf_acu"][0] = value
            return edit

        assert self.run(fir_program, base(7)) != \
            self.run(fir_program, base(0))

    def test_stepping_each_word_matches_a_run(self, lms_program):
        # ``step()`` enters a straight-line block at any of its words.
        plan = decode_program(lms_program)
        streams = random_streams(["x", "d"], 3, seed=8)
        ran, stepped = DecodedSimulator(plan), DecodedSimulator(plan)
        ran.load_inputs(streams)
        stepped.load_inputs(streams)
        outputs = ran.run_frames(3)
        stepped.start_tokens = 3
        while stepped.cycle < ran.cycle:
            stepped.step()
        assert (stepped.pc, stepped.registers, stepped.memories) == \
            (ran.pc, ran.registers, ran.memories)
        assert {port: values for port, values in stepped.outputs.items()
                if values} == outputs

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_finished_simulator_dies_with_its_last_reference(
            self, fir_program, engine):
        # The step code binds the simulator's arrays and run state, not
        # the simulator, so no reference cycle waits for the collector.
        plan = decode_program(fir_program)
        streams = random_streams(["x"], 4, seed=5)
        gc.collect()
        gc.disable()
        try:
            if engine == "numpy":
                sim = batch_module.BatchSimulator(plan, 2)
                sim.load_inputs([streams, streams])
            else:
                sim = DecodedSimulator(plan)
                sim.load_inputs(streams)
            sim.run_frames(4)
            assert sim.frame == 4 and not sim.start_tokens
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()


class TestAddressBounds:
    """The decoded engine tests every address of a word at once: one
    past either end of a memory faults, with the interpreter's message,
    and its first and last words do not."""

    @pytest.mark.parametrize("ram_size", [12, 16])   # a power of 2 or not
    @pytest.mark.parametrize("sem", [batch_module.SEM_RAM_READ,
                                     batch_module.SEM_RAM_WRITE])
    def test_ram_access(self, ram_size, sem):
        compiled = Toolchain(fir_core(ram_size=ram_size), OPTIONS).compile(
            fir_application([0.25, 0.5, -0.125, 0.3]))
        plan = decode_program(compiled.binary)
        word, (_, rf, register) = next(
            (word.index, op.operands[0])
            for word in plan.words for op in word.ops if op.sem == sem)
        for address in (-1, 0, ram_size - 1, ram_size):
            sim = DecodedSimulator(plan)
            sim.load_inputs(random_streams(["x"], 2, seed=1))
            sim.start_tokens = 1
            while sim.pc != word:
                sim.step()
            sim.registers[rf][register] = address
            if 0 <= address < ram_size:
                sim.step()
                continue
            with pytest.raises(SimulationError) as error:
                sim.step()
            assert str(error.value) == (
                f"address {address} outside memory 'ram' "
                f"(size {ram_size})")


class TestDifferentialApps:
    """Compiled applications: every engine equals the reference."""

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_fir_batch_parity(self, fir_compiled, engine):
        lanes = [random_streams(["x"], 10, seed=s) for s in range(9)]
        assert run_batch(fir_compiled.binary, lanes, engine=engine) == \
            reference_oracle(fir_compiled, lanes)

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_lms_batch_parity(self, lms_compiled, engine):
        ports = sorted(set(lms_compiled.binary.input_map.values()))
        lanes = [random_streams(ports, 8, seed=40 + s) for s in range(8)]
        assert run_batch(lms_compiled.binary, lanes, engine=engine) == \
            reference_oracle(lms_compiled, lanes)

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_ragged_stream_lengths_group_by_frames(self, fir_compiled,
                                                   engine):
        # Lanes with different stream lengths derive different frame
        # counts; the batch path must split them without reordering.
        lanes = [random_streams(["x"], n, seed=n) for n in (4, 9, 4, 6)]
        assert run_batch(fir_compiled.binary, lanes, engine=engine) == \
            reference_oracle(fir_compiled, lanes)

    @settings(max_examples=20, deadline=None)
    @given(seeds=st.lists(st.integers(min_value=0, max_value=2 ** 16),
                          min_size=1, max_size=12),
           n_samples=st.integers(min_value=1, max_value=16))
    def test_property_random_stimulus_bit_identical(self, fir_compiled,
                                                    seeds, n_samples):
        fir_program = fir_compiled.binary
        lanes = [random_streams(["x"], n_samples, seed=s) for s in seeds]
        expected = reference_oracle(fir_compiled, lanes)
        for engine in BATCH_ENGINES:
            assert run_batch(fir_program, lanes, engine=engine) == expected


def build_divergent_program():
    """A hand-assembled conditional: lanes take the CJMP (flag 0 set by
    a negative input) or fall through, writing 222 or 111."""
    core = make_core(n_flags=2, conditionals=True)
    pb = ProgramBuilder(core)
    read = {
        "ipb.op": pb.opcodes["ipb"]["read"],
        "rf_alu_p0.wr_en": 1,
        "rf_alu_p0.wr_addr": 0,
        "rf_alu_p0.mux": mux_index(core, "rf_alu_p0", "bus_ipb"),
    }
    pb.word(**read)                                        # w0: p0[0] <- x
    pb.alu("add", a=0, b=0)                                # w1: flags <- x
    pb.word(ctrl=CtrlOp.CJMP, arg=7, flag=0)               # w2: if neg
    pb.const_p1(111, 1)                                    # w3
    pb.alu("add", a=1, b=1, dest=("rf_opb", 0))            # w4 (p0[1]=0)
    pb.word(**{"opb.op": pb.opcodes["opb"]["write"],
               "opb.p0.addr": 0})                          # w5: y <- 111
    pb.word(ctrl=CtrlOp.JUMP, arg=10)                      # w6
    pb.const_p1(222, 1)                                    # w7
    pb.alu("add", a=1, b=1, dest=("rf_opb", 0))            # w8
    pb.word(**{"opb.op": pb.opcodes["opb"]["write"],
               "opb.p0.addr": 0})                          # w9: y <- 222
    pb.word(ctrl=CtrlOp.HALT)                              # w10
    program = pb.build()
    return EncodedProgram(
        core=program.core, format=program.format, words=program.words,
        n_body=program.n_body, body_offset=0, rom_words=(),
        acu_moduli={}, input_map={("ipb", 0): "x"},
        output_map={("opb", 5): "y", ("opb", 9): "y"},
        initial_registers={}, mode="once")


class TestControlFlowEdges:
    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_cjmp_lane_divergence(self, engine):
        program = build_divergent_program()
        lanes = [{"x": [value]} for value in
                 (5, -3, 0, -1, 100, -100, 7, -7, 1, -1, 0)]
        outputs = run_batch(program, lanes, n_frames=0, engine=engine)
        got = [out["y"][0] for out in outputs]
        assert got == [111 if x >= 0 else 222
                       for x in (5, -3, 0, -1, 100, -100, 7, -7, 1, -1, 0)]

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_nested_loops_fill_the_stack(self, engine):
        core = make_core(stack_depth=4)
        pb = ProgramBuilder(core)
        pb.const_p1(1, 0)
        for count in (2, 3, 2, 2):                         # 24 iterations
            pb.word(ctrl=CtrlOp.LOOP, arg=count)
        pb.alu("add", a=0, b=0, dest=("rf_alu_p0", 0))
        for _ in range(4):
            pb.word(ctrl=CtrlOp.ENDL)
        pb.word(ctrl=CtrlOp.HALT)
        plan = decode_program(pb.build())
        single = DecodedSimulator(plan)
        single.run_frames(0, max_cycles=500)
        assert single.registers["rf_alu_p0"][0] == 24
        # const + HALT, LOOP words issued 1 + 2 + 6 + 12 times, 24
        # adds, ENDL words issued 24 + 12 + 6 + 2 times.
        assert single.cycle == 2 + 21 + 24 + 44
        if engine == "numpy":
            simulator = batch_module.BatchSimulator(plan, 6)
            simulator.load_inputs([{} for _ in range(6)])
            simulator.run_frames(0, max_cycles=500)
            # A register is a row of lanes.
            assert simulator.registers["rf_alu_p0"][0].tolist() == [24] * 6
            assert simulator.lane_cycles == 6 * single.cycle

    def test_idle_after_straight_line_waits_before_it(self):
        # Two CONT words run into an IDLE: with no frame signal the run
        # stops at the IDLE without issuing it, and one frame later it
        # has issued the IDLE and the add once more.
        core = make_core()
        pb = ProgramBuilder(core)
        pb.const_p1(1, 0)
        pb.alu("add", a=0, b=0, dest=("rf_alu_p0", 0))
        pb.word(ctrl=CtrlOp.IDLE)
        pb.word(ctrl=CtrlOp.JUMP, arg=1)
        sim = DecodedSimulator(decode_program(pb.build()))
        sim.run_frames(0)
        assert (sim.pc, sim.cycle, sim.registers["rf_alu_p0"][0]) == (2, 2, 1)
        sim.run_frames(1)
        assert (sim.pc, sim.cycle, sim.registers["rf_alu_p0"][0]) == (2, 5, 2)

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_pipelined_opu_latency(self, engine):
        toolchain = Toolchain(pipelined_core(mult_latency=2), OPTIONS)
        compiled = toolchain.compile(FIR3)
        lanes = [random_streams(["x"], 8, seed=s) for s in range(8)]
        assert run_batch(compiled.binary, lanes, engine=engine) == \
            reference_oracle(compiled, lanes)


def write_fields(core, rf, addr, bus):
    """The fields that write register ``addr`` of ``rf`` from ``bus``."""
    fields = {f"{rf}.wr_en": 1, f"{rf}.wr_addr": addr}
    select = mux_index(core, rf, bus)
    if select is not None:
        fields[f"{rf}.mux"] = select
    return fields


def flagged_pipelined_core(mult_latency):
    """The pipelined test core with two flags and conditional jumps."""
    return dataclasses.replace(
        pipelined_core(mult_latency=mult_latency),
        controller=ControllerSpec(stack_depth=2, program_size=128,
                                  n_flags=2, supports_conditionals=True))


def build_aliasing_program():
    """Hand-assembled words in which a register feeding a RAM write, an
    OUTPUT or a pipelined multiply is overwritten in the same cycle.

    The seven-word block runs once over every lane, then again on each
    side of a CJMP that splits the lanes by the sign of the first input
    (ports suffixed ``_neg`` on the taken side).  Per block: ``o`` is
    the input, ``m`` the input stored to RAM address ``base + 3`` and
    read back (``base + 43`` on the taken side; ``base`` is ``rf_acu[0]``,
    and the sum is taken modulo the ACU modulus, 8), ``p`` the input
    times ``0.75``.  Every read must see the start of
    its cycle, so none of them sees the same cycle's ``x + 1000``.
    """
    core = flagged_pipelined_core(mult_latency=2)
    pb = ProgramBuilder(core)
    op = pb.opcodes

    def to(rf, addr, bus):
        return write_fields(core, rf, addr, bus)

    def acu(imm, addr):
        return {"acu.op": op["acu"]["addmod"], "acu.p0.addr": 0,
                "acu.p1.imm": imm, **to("rf_ram_addr", addr, "bus_acu")}

    input_map, output_map = {}, {}

    def block(suffix, offset=3):
        start = len(pb.words)
        input_map[("ipb", start)] = "x"
        pb.word(**{"ipb.op": op["ipb"]["read"],
                   **to("rf_ram_data", 0, "bus_ipb"),
                   **to("rf_mult_data", 0, "bus_ipb"),
                   **to("rf_alu_p0", 0, "bus_ipb"), **acu(offset, 1)})
        pb.word(**{"alu.op": op["alu"]["pass"], "alu.p0.addr": 0,
                   **to("rf_opb", 0, "bus_alu"), **acu(offset, 0)})
        # The aliasing cycle: RAM address, RAM data, the OUTPUT's
        # register and the multiply's operand are all rewritten.
        pb.word(**{"ram.op": op["ram"]["write"], "ram.p0.addr": 0,
                   "ram.p1.addr": 0,
                   "opb.op": op["opb"]["write"], "opb.p0.addr": 0,
                   "mult.op": op["mult"]["mult"], "mult.p0.addr": 0,
                   "mult.p1.addr": 0,
                   "alu.op": op["alu"]["add"], "alu.p0.addr": 0,
                   "alu.p1.addr": 0,
                   **to("rf_ram_data", 0, "bus_alu"),
                   **to("rf_mult_data", 0, "bus_alu"),
                   **to("rf_opb", 0, "bus_alu"), **acu(5, 0)})
        pb.word(**{"ram.op": op["ram"]["read"], "ram.p0.addr": 1,
                   **to("rf_alu_p1", 1, "bus_ram"),
                   **to("rf_alu_p0", 1, "bus_mult")})
        pb.word(**{"alu.op": op["alu"]["add"], "alu.p0.addr": 2,
                   "alu.p1.addr": 1, **to("rf_opb", 1, "bus_alu")})
        pb.word(**{"opb.op": op["opb"]["write"], "opb.p0.addr": 1,
                   "alu.op": op["alu"]["add"], "alu.p0.addr": 1,
                   "alu.p1.addr": 2, **to("rf_opb", 1, "bus_alu")})
        pb.word(**{"opb.op": op["opb"]["write"], "opb.p0.addr": 1})
        for offset, port in ((2, "o"), (5, "m"), (6, "p")):
            output_map[("opb", start + offset)] = port + suffix

    block("")
    pb.word(**{"alu.op": op["alu"]["pass"], "alu.p0.addr": 0})
    cjmp = pb.word(ctrl=CtrlOp.CJMP, flag=0)
    block("")
    jump = pb.word(ctrl=CtrlOp.JUMP)
    pb.words[cjmp]["ctrl.arg"] = len(pb.words)
    block("_neg", offset=43)
    pb.words[jump]["ctrl.arg"] = len(pb.words)
    pb.word(ctrl=CtrlOp.HALT)
    return dataclasses.replace(
        pb.build(), input_map=input_map, output_map=output_map,
        acu_moduli={"acu": 8},
        initial_registers={"rf_alu_p1": [(0, 1000)],
                           "rf_mult_coef": [(0, 0x6000)]})


def build_in_flight_split_program():
    """A latency-3 multiply issued in the cycle before a CJMP that splits
    the lanes by the sign of the input ``x``; its product matures after
    the split, on each side.  Output ``p`` (fall-through) or ``p_neg``
    (taken) is ``x`` times ``0.75``; only the taken side reads a second
    sample of ``x``, output as ``x_neg``."""
    core = flagged_pipelined_core(mult_latency=3)
    pb = ProgramBuilder(core)
    op = pb.opcodes

    def to(rf, addr, bus):
        return write_fields(core, rf, addr, bus)

    def product_to_output(output_map, port):
        pb.word(**to("rf_alu_p0", 1, "bus_mult"))
        pb.word(**{"alu.op": op["alu"]["pass"], "alu.p0.addr": 1,
                   **to("rf_opb", 0, "bus_alu")})
        output_map[("opb", len(pb.words))] = port
        pb.word(**{"opb.op": op["opb"]["write"], "opb.p0.addr": 0})

    input_map, output_map = {("ipb", 0): "x"}, {}
    pb.word(**{"ipb.op": op["ipb"]["read"],
               **to("rf_mult_data", 0, "bus_ipb"),
               **to("rf_alu_p0", 0, "bus_ipb")})
    pb.word(**{"mult.op": op["mult"]["mult"], "mult.p0.addr": 0,
               "mult.p1.addr": 0, "alu.op": op["alu"]["pass"],
               "alu.p0.addr": 0})
    cjmp = pb.word(ctrl=CtrlOp.CJMP, flag=0)
    product_to_output(output_map, "p")
    pb.word(ctrl=CtrlOp.HALT)
    pb.words[cjmp]["ctrl.arg"] = len(pb.words)
    product_to_output(output_map, "p_neg")
    input_map[("ipb", len(pb.words))] = "x"
    pb.word(**{"ipb.op": op["ipb"]["read"],
               **to("rf_alu_p0", 2, "bus_ipb")})
    pb.word(**{"alu.op": op["alu"]["pass"], "alu.p0.addr": 2,
               **to("rf_opb", 1, "bus_alu")})
    output_map[("opb", len(pb.words))] = "x_neg"
    pb.word(**{"opb.op": op["opb"]["write"], "opb.p0.addr": 1})
    pb.word(ctrl=CtrlOp.HALT)
    return dataclasses.replace(
        pb.build(), input_map=input_map, output_map=output_map,
        initial_registers={"rf_mult_coef": [(0, 0x6000)]})


class TestSplits:
    """What a diverging CJMP hands each side: in-flight results and the
    stream samples its own lanes have."""

    @staticmethod
    def expected(lane):
        fmt = FixedFormat(16, 15)
        x = lane["x"]
        if x[0] >= 0:
            return {"p": [fmt.mult(x[0], 0x6000)]}
        return {"p_neg": [fmt.mult(x[0], 0x6000)], "x_neg": [x[1]]}

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_pipelined_result_in_flight_across_a_split(self, engine):
        program = build_in_flight_split_program()
        lanes = [{"x": [x, x // 2 + 1]}
                 for x in (1200, -3000, 77, -5, 0, 32000, -32768, 9)]
        assert run_batch(program, lanes, n_frames=0, engine=engine) == \
            [self.expected(lane) for lane in lanes]

    @pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
    def test_simulators_die_with_their_last_reference(self, monkeypatch):
        # Bound step code holds no reference back to its simulator, so
        # neither the batch nor a child of its split waits for the
        # cyclic collector to free its arrays.
        made = []
        child = batch_module.BatchSimulator._child

        def recording(self, positions, pc):
            made.append(weakref.ref(result := child(self, positions, pc)))
            return result

        monkeypatch.setattr(batch_module.BatchSimulator, "_child", recording)
        plan = decode_program(build_in_flight_split_program())
        gc.collect()
        gc.disable()
        try:
            sim = batch_module.BatchSimulator(plan, 4)
            sim.load_inputs([{"x": [x, 1]} for x in (3, -3, 5, -5)])
            sim.run_frames(0)
            batch = weakref.ref(sim)
            del sim
            assert len(made) == 2
            assert batch() is None
            assert [ref() for ref in made] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
    def test_flag_from_immediates_does_not_split(self):
        # The flag is one value for every lane, so every lane jumps, the
        # batch never splits and its registers are the lanes' own.
        lanes = [{"x": [x, 3 * x - 1]} for x in (6, -40, 0, 1000)]
        batch, singles = per_lane_runs(
            build_immediate_flag_program(), lanes, lambda *_: None)
        outputs = batch.run_frames(0)
        assert batch.flags[1].tolist() == [True] * len(lanes)
        for lane, single in enumerate(singles):
            assert outputs[lane] == single.run_frames(0) == \
                {"y": [lanes[lane]["x"][1]]}
            assert batch.registers["rf_x"][:, lane].tolist() == \
                single.registers["rf_x"]
        assert batch.lane_cycles == len(lanes) * singles[0].cycle

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_ragged_streams_exhaust_only_in_their_child(self, engine):
        # Only the taken side reads twice: one-sample lanes that fall
        # through are fine, a one-sample lane that jumps is not.
        program = build_in_flight_split_program()
        lanes = [{"x": [x]} if x >= 0 else {"x": [x, -x // 3, 5]}
                 for x in (40, -2, 7, -900, 0)]
        assert run_batch(program, lanes, n_frames=0, engine=engine) == \
            [self.expected(lane) for lane in lanes]
        lanes[1] = {"x": [-2]}
        with pytest.raises(SimulationError,
                           match="input stream 'x' exhausted"):
            run_batch(program, lanes, n_frames=0, engine=engine)


def build_immediate_flag_program():
    """An ALU that passes an immediate 0, so the zero flag is set on
    every lane by an op with no register operand; the CJMP on it is
    taken by all lanes, which then read a second input into
    ``rf_x[1]``."""
    dp = Datapath("imm-flag")
    alu = dp.add_opu("alu", OpuKind.ALU, [Operation("pass", arity=1)])
    ipb = dp.add_opu("ipb", OpuKind.INPUT, [Operation("read", arity=0)])
    dp.add_opu("opb", OpuKind.OUTPUT, [Operation("write", arity=1)])
    held = dp.add_register_file("rf_x", 2)
    dp.make_immediate_port(alu, 0)
    dp.connect_port("opb", 0, held)
    dp.route_bus(dp.attach_bus(ipb), held)
    dp.route_bus(dp.attach_bus(alu), held)
    core = CoreSpec(name="imm-flag", datapath=dp, controller=ControllerSpec(
        stack_depth=1, program_size=8, n_flags=2,
        supports_conditionals=True))
    pb = ProgramBuilder(core)
    op = pb.opcodes
    pb.word(**{"alu.op": op["alu"]["pass"], "alu.p0.imm": 0,
               "ipb.op": op["ipb"]["read"],
               **write_fields(core, "rf_x", 0, "bus_ipb")})
    pb.word(ctrl=CtrlOp.CJMP, arg=3, flag=1)
    pb.word(ctrl=CtrlOp.HALT)
    pb.word(**{"ipb.op": op["ipb"]["read"],
               **write_fields(core, "rf_x", 1, "bus_ipb")})
    pb.word(**{"opb.op": op["opb"]["write"], "opb.p0.addr": 1})
    pb.word(ctrl=CtrlOp.HALT)
    return dataclasses.replace(
        pb.build(), input_map={("ipb", 0): "x", ("ipb", 3): "x"},
        output_map={("opb", 4): "y"})


def build_register_const_program():
    """A CONST unit fed by a register, its result in flight for a cycle
    while that register takes the next input: output ``y`` is the
    first input ``x``."""
    dp = Datapath("reg-const")
    const = dp.add_opu("prg_c", OpuKind.CONST, [
        Operation("const", arity=1, latency=2, initiation_interval=1)])
    ipb = dp.add_opu("ipb", OpuKind.INPUT, [Operation("read", arity=0)])
    dp.add_opu("opb", OpuKind.OUTPUT, [Operation("write", arity=1)])
    held = dp.add_register_file("rf_c", 1)
    out = dp.add_register_file("rf_opb", 1)
    dp.connect_port(const, 0, held)
    dp.connect_port("opb", 0, out)
    dp.route_bus(dp.attach_bus(ipb), held)
    dp.route_bus(dp.attach_bus(const), out)
    pb = ProgramBuilder(CoreSpec(
        name="reg-const", datapath=dp,
        controller=ControllerSpec(stack_depth=1, program_size=8)))
    op = pb.opcodes
    read = {"ipb.op": op["ipb"]["read"], "rf_c.wr_en": 1}
    pb.word(**read)
    pb.word(**read, **{"prg_c.op": op["prg_c"]["const"]})
    pb.word(**{"rf_opb.wr_en": 1})
    pb.word(**{"opb.op": op["opb"]["write"]})
    pb.word(ctrl=CtrlOp.HALT)
    return dataclasses.replace(
        pb.build(), input_map={("ipb", 0): "x", ("ipb", 1): "x"},
        output_map={("opb", 3): "y"})


class TestRegisterViews:
    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_register_fed_const_in_flight_keeps_its_value(self, engine):
        lanes = [{"x": [x, 100 + x]} for x in (4, -9, 0, 31000)]
        assert run_batch(build_register_const_program(), lanes,
                         n_frames=0, engine=engine) == \
            [{"y": [lane["x"][0]]} for lane in lanes]

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_same_cycle_overwrites_read_the_cycle_start(self, engine):
        program = build_aliasing_program()
        fmt = FixedFormat(16, 15)
        firsts = (1200, -3000, 77, -5, 0, 32000, -32768, 9, -1, 4)
        lanes = [{"x": [x, 11 - x // 2]} for x in firsts]

        def expected(x0, x1):
            out = {"o": [x0], "m": [x0], "p": [fmt.mult(x0, 0x6000)]}
            suffix = "_neg" if x0 < 0 else ""
            for port, value in (("o", x1), ("m", x1),
                                ("p", fmt.mult(x1, 0x6000))):
                out.setdefault(port + suffix, []).append(value)
            return out

        assert run_batch(program, lanes, n_frames=0, engine=engine) == \
            [expected(*lane["x"]) for lane in lanes]


def per_lane_runs(program, lanes, edit):
    """A numpy simulator over ``lanes`` and one decoded simulator per
    lane, all loaded and set up by ``edit(registers, memories, lane)``
    for each lane, none run yet."""
    plan = decode_program(program)
    batch = batch_module.BatchSimulator(plan, len(lanes))
    batch.load_inputs(lanes)
    for lane in range(len(lanes)):
        registers = {name: rf[:, lane] for name, rf in batch.registers.items()}
        memories = {name: batch.memories[name][lane] for name in plan.ram_sizes}
        edit(registers, memories, lane)
    singles = []
    for lane, streams in enumerate(lanes):
        single = DecodedSimulator(plan)
        single.load_inputs(streams)
        edit(single.registers, single.memories, lane)
        singles.append(single)
    return batch, singles


def immediate_ram_core():
    """A 48-word RAM addressed by an instruction-word immediate, whose
    read matures a cycle after its issue, between an input and an
    output."""
    dp = Datapath("imm-ram")
    ram = dp.add_opu("ram", OpuKind.RAM, [
        Operation("read", arity=1, reads_memory=True, latency=2,
                  initiation_interval=1),
        Operation("write", arity=2, writes_memory=True),
    ], memory_size=48)
    ipb = dp.add_opu("ipb", OpuKind.INPUT, [Operation("read", arity=0)])
    dp.add_opu("opb", OpuKind.OUTPUT, [Operation("write", arity=1)])
    data = dp.add_register_file("rf_ram_data", 2)
    out = dp.add_register_file("rf_opb", 2)
    dp.make_immediate_port(ram, 0)
    dp.connect_port(ram, 1, data)
    dp.connect_port("opb", 0, out)
    dp.route_bus(dp.attach_bus(ipb), data)
    dp.route_bus(dp.attach_bus(ram), out)
    return CoreSpec(name="imm-ram", datapath=dp,
                    controller=ControllerSpec(stack_depth=1,
                                              program_size=16))


def build_immediate_ram_program(last_address=9):
    """Store ``x`` at word 9, read it back while ``y`` overwrites word 9
    in the cycle the read matures, then read ``y`` from
    ``last_address``: output ``o`` is ``[x, y]``."""
    pb = ProgramBuilder(immediate_ram_core())
    op = pb.opcodes
    read, write = op["ram"]["read"], op["ram"]["write"]
    pb.word(**{"ipb.op": op["ipb"]["read"], "rf_ram_data.wr_en": 1,
               "rf_ram_data.wr_addr": 0})
    pb.word(**{"ipb.op": op["ipb"]["read"], "rf_ram_data.wr_en": 1,
               "rf_ram_data.wr_addr": 1,
               "ram.op": write, "ram.p0.imm": 9, "ram.p1.addr": 0})
    pb.word(**{"ram.op": read, "ram.p0.imm": 9})
    pb.word(**{"ram.op": write, "ram.p0.imm": 9, "ram.p1.addr": 1,
               "rf_opb.wr_en": 1, "rf_opb.wr_addr": 0})
    pb.word(**{"opb.op": op["opb"]["write"], "opb.p0.addr": 0,
               "ram.op": read, "ram.p0.imm": last_address})
    pb.word(**{"rf_opb.wr_en": 1, "rf_opb.wr_addr": 1})
    pb.word(**{"opb.op": op["opb"]["write"], "opb.p0.addr": 1})
    pb.word(ctrl=CtrlOp.HALT)
    return dataclasses.replace(
        pb.build(), input_map={("ipb", 0): "x", ("ipb", 1): "y"},
        output_map={("opb", 4): "o", ("opb", 6): "o"})


def build_lane_address_program(ram_size, sem):
    """A RAM ``sem`` (``"read"`` or ``"write"``) at the address a lane
    reads from input ``a``, on a RAM of ``ram_size`` words; input ``s``
    picks the side of a CJMP first (taken when negative), so the access
    runs on the full lane set when every ``s`` agrees and in a child of
    the split when they do not."""
    dp = Datapath("lane-ram")
    ram = dp.add_opu("ram", OpuKind.RAM, [
        Operation("read", arity=1, reads_memory=True),
        Operation("write", arity=2, writes_memory=True),
    ], memory_size=ram_size)
    alu = dp.add_opu("alu", OpuKind.ALU, [Operation("pass", arity=1)])
    ipb = dp.add_opu("ipb", OpuKind.INPUT, [Operation("read", arity=0)])
    dp.add_opu("opb", OpuKind.OUTPUT, [Operation("write", arity=1)])
    rf = {name: dp.add_register_file(name, 2)
          for name in ("rf_a", "rf_d", "rf_s", "rf_o")}
    dp.connect_port(ram, 0, rf["rf_a"])
    dp.connect_port(ram, 1, rf["rf_d"])
    dp.connect_port(alu, 0, rf["rf_s"])
    dp.connect_port("opb", 0, rf["rf_o"])
    ipb_bus = dp.attach_bus(ipb)
    for name in ("rf_a", "rf_d", "rf_s"):
        dp.route_bus(ipb_bus, rf[name])
    dp.route_bus(dp.attach_bus(ram), rf["rf_o"])
    dp.route_bus(dp.attach_bus(alu), rf["rf_o"])
    core = CoreSpec(name="lane-ram", datapath=dp, controller=ControllerSpec(
        stack_depth=1, program_size=16, n_flags=2,
        supports_conditionals=True))
    pb = ProgramBuilder(core)
    op = pb.opcodes
    access = {"ram.op": op["ram"][sem], "ram.p0.addr": 0}
    if sem == "read":
        access.update(write_fields(core, "rf_o", 0, "bus_ram"))
    else:
        access["ram.p1.addr"] = 0
    pb.word(**{"ipb.op": op["ipb"]["read"],
               **write_fields(core, "rf_s", 0, "bus_ipb")})
    pb.word(**{"ipb.op": op["ipb"]["read"],
               **write_fields(core, "rf_a", 0, "bus_ipb"),
               **write_fields(core, "rf_d", 0, "bus_ipb"),
               "alu.op": op["alu"]["pass"], "alu.p0.addr": 0})
    pb.word(ctrl=CtrlOp.CJMP, arg=5, flag=0)
    pb.word(**access)
    pb.word(ctrl=CtrlOp.HALT)
    pb.word(**access)
    pb.word(ctrl=CtrlOp.HALT)
    return dataclasses.replace(
        pb.build(), input_map={("ipb", 0): "s", ("ipb", 1): "a"})


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
class TestMemoryAccess:
    """The numpy engine's RAM reads and writes, one address per lane or
    one immediate for all, on the full lane set and on each side of a
    diverging CJMP, against the decoded engine lane by lane."""

    #: First inputs: negative ones take the CJMP of the aliasing program.
    FIRSTS = (5, -3, -7, 4, 0, -1)

    def lanes(self):
        return [{"x": [x, 7 * x + 1]} for x in self.FIRSTS]

    @staticmethod
    def bases(values):
        """An edit giving each lane its own ACU base register and RAM
        contents, so each lane's addresses and data are its own."""
        def edit(registers, memories, lane):
            registers["rf_acu"][0] = values[lane]
            memories["ram"][:] = range(100 * lane, 100 * lane + 64)
        return edit

    def test_lane_addresses_pair_each_lane_with_its_own(self):
        program = dataclasses.replace(build_aliasing_program(),
                                      acu_moduli={"acu": 64})
        lanes = self.lanes()
        batch, singles = per_lane_runs(program, lanes,
                                       self.bases([0, 9, 30, 17, 51, 2]))
        outputs = batch.run_frames(0)
        for lane, single in enumerate(singles):
            assert outputs[lane] == single.run_frames(0)
            # Every child's state is scattered back to its lanes.
            assert batch.memories["ram"][lane].tolist() == \
                single.memories["ram"]
            for name, rf in batch.registers.items():
                assert rf[:, lane].tolist() == single.registers[name]

    def test_ram_write_address_and_data_rewritten_in_its_cycle(self):
        # The store of the aliasing cycle goes to the start-of-cycle
        # address (base + 3, not the rewritten base + 5) and stores the
        # start-of-cycle data (the input, not the input + 1000).
        program = dataclasses.replace(build_aliasing_program(),
                                      acu_moduli={"acu": 64})
        lanes = [{"x": [x, x]} for x in (8, 21, 5, 2)]
        bases = [0, 9, 30, 17]
        batch, _ = per_lane_runs(program, lanes, self.bases(bases))
        before = batch.memories["ram"].copy()
        batch.run_frames(0)
        ram = batch.memories["ram"]
        for lane, base in enumerate(bases):
            assert ram[lane, base + 3] == lanes[lane]["x"][0]
            assert ram[lane, base + 5] == before[lane, base + 5]

    def test_immediate_read_is_owned(self):
        # A read still in flight must not see a later write to its word.
        program = build_immediate_ram_program()
        lanes = [{"x": [x], "y": [-x - 1]} for x in (3, -8, 1200, 0, 77)]
        assert run_batch(program, lanes, n_frames=0, engine="numpy") == \
            [{"o": [x, -x - 1]} for x in (3, -8, 1200, 0, 77)]

    def test_immediate_address_outside_is_named(self):
        # The 6-bit immediate field holds 50, past the 48-word RAM.
        program = build_immediate_ram_program(last_address=50)
        for engine in BATCH_ENGINES:
            with pytest.raises(SimulationError) as error:
                run_batch(program, [{"x": [1], "y": [2]}] * 3, n_frames=0,
                          engine=engine)
            assert str(error.value) == \
                "address 50 outside memory 'ram' (size 48)"

    @pytest.mark.parametrize("bases, bad", [
        # The first block: lanes 1 and 3 are out, lane 1 is named.
        ([0, 70, 3, 100, 2, 5], 73),
        # Only on the taken side (negative firsts, base + 43): lane 2.
        ([0, 12, 30, 25, 60, 1], 73),
    ])
    def test_address_outside_names_the_first_lane(self, bases, bad):
        program = build_aliasing_program()
        program = dataclasses.replace(program, acu_moduli={"acu": 1000})
        batch, singles = per_lane_runs(program, self.lanes(),
                                       self.bases(bases))
        message = f"address {bad} outside memory 'ram' (size 64)"
        with pytest.raises(SimulationError) as error:
            batch.run_frames(0)
        assert str(error.value) == message
        failed = []
        for single in singles:
            try:
                single.run_frames(0)
            except SimulationError as fault:
                failed.append(str(fault))
        assert failed[0] == message

    @pytest.mark.parametrize("ram_size", [12, 16])   # a power of 2 or not
    @pytest.mark.parametrize("sem", ["read", "write"])
    @pytest.mark.parametrize("selects, addresses, bad", [
        # Every lane falls through: lane 1's negative address is named,
        # not lane 4's address past the end.
        ([1] * 6, [4, -2, "last", 5, "size+300", 1], -2),
        ([1] * 6, [4, 0, "last", -1, 5, 1], -1),
        ([1] * 6, [4, 3, "size", -5, 0, 1], "size"),
        # Only in the taken child (lanes 1, 3 and 4): lane 3, then 4.
        ([1, -1, 1, -1, -1, 1], [0, 5, 2, -2, "size", 0], -2),
        ([1, -1, 1, -1, -1, 1], [0, 5, 2, "last", -3, 0], -3),
        # Only in the fall-through child (lanes 1, 2, 4 and 5): lane 2.
        ([-1, 1, 1, -1, 1, 1], [0, 3, "size", 1, -5, 2], "size"),
    ])
    def test_lane_address_outside_names_the_first_lane(
            self, ram_size, sem, selects, addresses, bad):
        def at(value):
            return {"last": ram_size - 1, "size": ram_size,
                    "size+300": ram_size + 300}.get(value, value)

        program = build_lane_address_program(ram_size, sem)
        lanes = [{"s": [select], "a": [at(address)]}
                 for select, address in zip(selects, addresses)]
        message = f"address {at(bad)} outside memory 'ram' (size {ram_size})"
        for engine in BATCH_ENGINES:
            with pytest.raises(SimulationError) as error:
                run_batch(program, lanes, n_frames=0, engine=engine)
            assert str(error.value) == message

    @pytest.mark.parametrize("sem", ["read", "write"])
    def test_lane_addresses_at_both_ends_are_in_range(self, sem):
        program = build_lane_address_program(12, sem)
        lanes = [{"s": [select], "a": [address]} for select, address
                 in zip([1, -1, 1, -1], [0, 11, 11, 0])]
        for engine in BATCH_ENGINES:
            run_batch(program, lanes, n_frames=0, engine=engine)



@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
class TestLaneArithmetic:
    """The numpy spelling of the fixed-point semantics, evaluated on
    int64 rows, equals :mod:`repro.fixed` at every width it takes."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), width=st.integers(min_value=8, max_value=32))
    def test_sign_extension_wrap_matches_fixed(self, data, width):
        batch_module._load_numpy()
        np = batch_module._np
        fmt = FixedFormat(width, data.draw(st.integers(0, width - 1)))
        low, high = fmt.min_value, fmt.max_value
        edges = [low, low + 1, -1, 0, 1, high - 1, high]
        words = edges + data.draw(st.lists(st.integers(low, high),
                                           max_size=8))
        # Every pair, so the products at the extremes are all there.
        a, b = zip(*[(x, y) for x in words for y in words])
        shift = data.draw(st.integers(0, width - 1))
        raw = data.draw(st.lists(st.integers(-2 ** 62, 2 ** 62),
                                 min_size=1, max_size=8))
        wrap, computed = batch_module._value_templates(fmt, lanes=True)
        names = {**batch_module._lane_namespace(fmt),
                 "a": np.array(a), "b": np.array(b), "v": np.array(raw)}

        def lanes(template):
            text = template.format("a", "b", n=shift, k=0)
            return eval(text, {"__builtins__": {}}, names).tolist()

        sem = batch_module
        for code, expected in (
                (sem.SEM_ADD, fmt.add), (sem.SEM_SUB, fmt.sub),
                (sem.SEM_MULT, fmt.mult), (sem.SEM_ADD_CLIP, fmt.add_clip)):
            assert lanes(computed[code]) == list(map(expected, a, b))
        assert lanes(computed[sem.SEM_ASR]) == \
            [fmt.asr(x, shift) for x in a]
        assert lanes(computed[sem.SEM_PASS_CLIP]) == list(map(fmt.clip, a))
        assert lanes(wrap.format("v")) == list(map(fmt.wrap, raw))


class TestShortStreams:
    def test_run_program_rejects_short_stream(self, fir_program):
        with pytest.raises(SimulationError, match="'x'"):
            run_program(fir_program, {"x": []})

    def test_error_names_the_short_stream(self, lms_program):
        ports = sorted(set(lms_program.input_map.values()))
        streams = {port: [1, 2, 3] for port in ports}
        streams[ports[-1]] = []
        with pytest.raises(SimulationError, match=repr(ports[-1])):
            run_program(lms_program, streams)

    def test_run_batch_rejects_short_stream(self, fir_program):
        for engine in BATCH_ENGINES:
            with pytest.raises(SimulationError, match="'x'"):
                run_batch(fir_program, [{"x": [1]}, {"x": []}],
                          engine=engine)

    def test_explicit_n_frames_still_allowed(self, fir_program):
        # An explicit frame count bypasses the stream-derived default
        # (the simulator then raises only if it actually runs dry).
        outputs = run_program(fir_program, {"x": [100, 200]}, n_frames=2)
        assert len(outputs["y"]) == 2


class TestEngineResolution:
    def test_known_engines(self):
        assert ENGINES == ("auto", "decoded", "numpy")
        assert resolve_engine("decoded", 256) == "decoded"

    def test_unknown_engine_rejected(self):
        for engine in ("jit", "scalar"):
            with pytest.raises(SimulationError, match="unknown simulation"):
                resolve_engine(engine, 1)

    def test_auto_small_batches_stay_pure_python(self):
        assert resolve_engine("auto", 1) == "decoded"

    @pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
    def test_auto_wide_batches_pick_numpy(self):
        assert resolve_engine("auto", batch_module.NUMPY_MIN_LANES) == "numpy"

    def test_auto_wide_data_stays_decoded(self):
        width = batch_module.NUMPY_MAX_WIDTH
        assert resolve_engine("auto", 512, data_width=width + 8) == "decoded"
        if NUMPY_AVAILABLE:
            assert resolve_engine("auto", 512, data_width=width) == "numpy"

    def test_numpy_without_numpy_is_an_error(self, monkeypatch):
        monkeypatch.setattr(batch_module, "NUMPY_AVAILABLE", False)
        with pytest.raises(SimulationError, match="numpy is not installed"):
            resolve_engine("numpy", 16)

    def test_auto_without_numpy_degrades(self, monkeypatch):
        monkeypatch.setattr(batch_module, "NUMPY_AVAILABLE", False)
        assert resolve_engine("auto", 512) == "decoded"

    def test_undecodable_image_raises_and_lints(self, fir_program):
        # An input read with no logical port: the plan cannot express
        # the image, the engines refuse it and the lint names it.
        image = dataclasses.replace(fir_program, input_map={})
        streams = random_streams(["x"], 6, seed=3)
        with pytest.raises(PlanError, match="no logical port"):
            run_batch(image, [streams])
        assert [f.code for f in lint_program(image) if f.is_error] == \
            ["mc.decode"]


class TestWideCores:
    """A 40-bit core: ``auto`` steps it on the decoded engine."""

    @pytest.fixture(scope="class")
    def wide_compiled(self):
        core = dataclasses.replace(fir_core(), data_width=40)
        toolchain = Toolchain(core, OPTIONS)
        return toolchain.compile(fir_application([0.25, 0.5, -0.125, 0.3]))

    def lanes(self):
        fmt = FixedFormat(40, 15)
        return [random_streams(["x"], 6, seed=s, fmt=fmt) for s in range(8)]

    def test_auto_matches_reference(self, wide_compiled):
        lanes = self.lanes()
        expected = reference_oracle(wide_compiled, lanes)
        assert max(abs(v) for out in expected for v in out["y"]) >= 1 << 31
        obs = Telemetry()
        with use_telemetry(obs):
            assert run_batch(wide_compiled.binary, lanes) == expected
        (span,) = obs.spans("simulate")
        assert span.tags["engine"] == "decoded"

    def test_toolchain_run_matches_reference(self):
        core = dataclasses.replace(fir_core(), data_width=40)
        dfg = fir_application([0.25, 0.5, -0.125, 0.3])
        lanes = self.lanes()
        fmt = FixedFormat(40, 15)
        expected = [run_reference(dfg, dict(lane), 6, fmt=fmt)
                    for lane in lanes]
        assert Toolchain(core, OPTIONS).run(dfg, lanes, 6) == expected

    @pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
    def test_explicit_numpy_still_refuses(self, wide_compiled):
        with pytest.raises(PlanError, match="int64 headroom"):
            run_batch(wide_compiled.binary, self.lanes(), engine="numpy")


class TestTelemetry:
    def test_single_lane_run_counts_and_span(self, fir_program):
        obs = Telemetry()
        streams = random_streams(["x"], 6, seed=5)
        with use_telemetry(obs):
            run_program(fir_program, streams)
        expected_frames = 6 // fir_program.repeat_count
        (span,) = obs.spans("simulate")
        assert span.tags["engine"] == "decoded"
        assert span.tags["lanes"] == 1
        assert span.tags["n_frames"] == expected_frames
        assert obs.counters["sim.frames"] == expected_frames
        assert obs.counters["sim.batch_width"] == 1
        assert obs.counters["sim.cycles"] > 0

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_batch_run_counts_every_lane(self, fir_program, engine):
        obs = Telemetry()
        lanes = [random_streams(["x"], 4, seed=s) for s in range(3)]
        with use_telemetry(obs):
            run_batch(fir_program, lanes, engine=engine)
        (span,) = obs.spans("simulate")
        assert span.tags["engine"] == engine
        assert span.tags["lanes"] == 3
        assert obs.counters["sim.frames"] == 3 * (4 // fir_program.repeat_count)
        assert obs.counters["sim.batch_width"] == 3
        assert obs.counters["sim.cycles"] > 0

    def test_counters_are_documented(self):
        from repro.obs import COUNTERS
        for name in ("sim.cycles", "sim.frames", "sim.batch_width"):
            assert name in COUNTERS


class TestSimulatePoints:
    def test_exploration_candidates_run_real_stimulus(self):
        from repro import simulate_points
        from repro.arch import Allocation, explore

        dfg = fir_application([0.5, 0.25, 0.125])
        points = explore([dfg], [Allocation(n_mult=1),
                                 Allocation(n_mult=2)])
        stimuli = random_streams(["x"], 8, seed=31)
        sims = simulate_points(dfg, points, stimuli)
        assert len(sims) == len(points)
        streams = []
        for sim in sims:
            if sim.point.feasible:
                assert sim.ok
                assert len(sim.outputs) == 1
                streams.append(sim.outputs[0])
            else:
                assert not sim.ok and sim.failure
        # The same application on different feasible cores computes the
        # same streams — that is what makes candidates comparable.
        assert streams and all(out == streams[0] for out in streams)

    def test_per_lane_stimuli(self):
        from repro import simulate_points
        from repro.arch import Allocation, explore

        dfg = fir_application([0.5, 0.25, 0.125])
        points = explore([dfg], [Allocation()])
        lanes = [random_streams(["x"], 6, seed=s) for s in (1, 2)]
        (sim,) = simulate_points(dfg, points, lanes)
        assert sim.ok and len(sim.outputs) == 2
        assert sim.outputs[0] != sim.outputs[1]


class TestToolchainIntegration:
    def test_toolchain_run_accepts_engine(self):
        toolchain = Toolchain("fir", OPTIONS)
        app = fir_application([0.25, 0.5, 0.25])
        streams = random_streams(["x"], 6, seed=9)
        expected = run_reference(app, dict(streams))
        for engine in BATCH_ENGINES:
            assert toolchain.run(app, dict(streams), engine=engine) == \
                expected

    def test_toolchain_run_batch_of_stimuli(self):
        toolchain = Toolchain("fir", OPTIONS)
        app = fir_application([0.25, 0.5, 0.25])
        lanes = [random_streams(["x"], 6, seed=20 + s) for s in range(4)]
        outputs = toolchain.run(app, [dict(lane) for lane in lanes])
        assert outputs == reference_oracle(toolchain.compile(app), lanes)
