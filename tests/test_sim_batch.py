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
* the plan memo (one decode per program, a fresh one after an edit,
  no plan outliving its program) and the numpy engine's register views
  on full-lane contexts,
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
from repro.arch import ControllerSpec, CtrlOp, fir_core
from repro.encode import CTRL_OPCODES
from repro.encode.assembler import EncodedProgram
from repro.errors import SimulationError
from repro.fixed import FixedFormat
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
    """An undecoded copy of ``program`` with its own words and maps."""
    return dataclasses.replace(
        program, words=list(program.words),
        input_map=dict(program.input_map),
        output_map=dict(program.output_map))


def count_decodes(action):
    """(``sim.decodes`` counted while ``action`` ran, its result)."""
    obs = Telemetry()
    with use_telemetry(obs):
        result = action()
    return obs.counters.get("sim.decodes", 0), result


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
    """``decode_program`` decodes a program once for as long as it lives
    and stays unchanged."""

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
        program.words[index] = program.format.encode(
            {"ctrl.op": CTRL_OPCODES[CtrlOp.CONT]})
        decodes, second = count_decodes(lambda: decode_program(program))
        assert decodes == 1
        assert second is not first
        assert second.words[index].ops == ()
        assert decode_program(program) is second

    def test_map_edit_is_never_served_a_stale_plan(self, fir_program):
        program = fresh_copy(fir_program)
        decode_program(program)
        program.input_map.clear()
        with pytest.raises(PlanError, match="no logical port"):
            decode_program(program)

    def test_replaced_copy_gets_its_own_plan(self, fir_program):
        program = fresh_copy(fir_program)
        plan = decode_program(program)
        copy = dataclasses.replace(program)
        assert count_decodes(lambda: decode_program(copy))[0] == 1
        assert decode_program(copy) is not plan

    def test_plan_dies_with_its_program(self, fir_program):
        program = fresh_copy(fir_program)
        run_program(program, random_streams(["x"], 4, seed=2))
        plan = weakref.ref(decode_program(program))
        key = id(program)
        assert key in batch_module._PLANS
        del program
        gc.collect()
        assert plan() is None
        assert key not in batch_module._PLANS

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
            assert list(simulator.registers["rf_alu_p0"][:, 0]) == [24] * 6
            assert simulator.lane_cycles == 6 * single.cycle

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_pipelined_opu_latency(self, engine):
        toolchain = Toolchain(pipelined_core(mult_latency=2), OPTIONS)
        compiled = toolchain.compile(FIR3)
        lanes = [random_streams(["x"], 8, seed=s) for s in range(8)]
        assert run_batch(compiled.binary, lanes, engine=engine) == \
            reference_oracle(compiled, lanes)


def build_aliasing_program():
    """Hand-assembled words in which a register feeding a RAM write, an
    OUTPUT or a pipelined multiply is overwritten in the same cycle.

    The seven-word block runs once over every lane, then again on each
    side of a CJMP that splits the lanes by the sign of the first input
    (ports suffixed ``_neg`` on the taken side).  Per block: ``o`` is
    the input, ``m`` the input stored to RAM address 3 and read back,
    ``p`` the input times ``0.75``.  Every read must see the start of
    its cycle, so none of them sees the same cycle's ``x + 1000``.
    """
    core = dataclasses.replace(
        pipelined_core(mult_latency=2),
        controller=ControllerSpec(stack_depth=2, program_size=128,
                                  n_flags=2, supports_conditionals=True))
    pb = ProgramBuilder(core)
    op = pb.opcodes

    def to(rf, addr, bus):
        fields = {f"{rf}.wr_en": 1, f"{rf}.wr_addr": addr}
        select = mux_index(core, rf, bus)
        if select is not None:
            fields[f"{rf}.mux"] = select
        return fields

    def acu(imm, addr):
        return {"acu.op": op["acu"]["addmod"], "acu.p0.addr": 0,
                "acu.p1.imm": imm, **to("rf_ram_addr", addr, "bus_acu")}

    input_map, output_map = {}, {}

    def block(suffix):
        start = len(pb.words)
        input_map[("ipb", start)] = "x"
        pb.word(**{"ipb.op": op["ipb"]["read"],
                   **to("rf_ram_data", 0, "bus_ipb"),
                   **to("rf_mult_data", 0, "bus_ipb"),
                   **to("rf_alu_p0", 0, "bus_ipb"), **acu(3, 1)})
        pb.word(**{"alu.op": op["alu"]["pass"], "alu.p0.addr": 0,
                   **to("rf_opb", 0, "bus_alu"), **acu(3, 0)})
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
    block("_neg")
    pb.words[jump]["ctrl.arg"] = len(pb.words)
    pb.word(ctrl=CtrlOp.HALT)
    return dataclasses.replace(
        pb.build(), input_map=input_map, output_map=output_map,
        acu_moduli={"acu": 8},
        initial_registers={"rf_alu_p1": [(0, 1000)],
                           "rf_mult_coef": [(0, 0x6000)]})


class TestRegisterViews:
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
