"""Controller-level simulator tests: hand-assembled microcode programs.

The compiled flow only exercises IDLE/CONT/JUMP; these tests drive the
remaining controller features of figure 4 — nested hardware loops via
the stack, conditional branches on datapath flags, HALT — by building
instruction words directly through the derived format and stepping
them on the decoded plan (:class:`repro.sim.DecodedSimulator`).

Tiny-core facts used throughout: registers reset to 0; constants can
reach only the ALU's second operand file (``rf_alu_p1`` via
``bus_prg_c``); ALU results fan out to both operand files and the
output file.
"""

import pytest

from repro.arch import ControllerSpec, CoreSpec, CtrlOp, tiny_datapath
from repro.encode import CTRL_OPCODES, derive_format, opcode_table
from repro.encode.assembler import EncodedProgram
from repro.errors import SimulationError
from repro.sim import DecodedSimulator, PlanError, decode_program


def make_core(stack_depth=4, n_flags=0, conditionals=False):
    return CoreSpec(
        name="ctrl-test",
        datapath=tiny_datapath(),
        controller=ControllerSpec(
            stack_depth=stack_depth,
            n_flags=n_flags,
            supports_conditionals=conditionals,
            supports_loops=True,
            program_size=64,
        ),
    )


def mux_index(core, rf_name, bus_name):
    mux = core.datapath.muxes.get(f"mux_{rf_name}")
    if mux is None:
        return None
    return next(i for i, bus in enumerate(mux.inputs) if bus.name == bus_name)


class ProgramBuilder:
    """Assemble words field-by-field for controller tests."""

    def __init__(self, core):
        self.core = core
        self.fmt = derive_format(core)
        self.opcodes = opcode_table(core)
        self.words: list[dict] = []

    def word(self, ctrl=CtrlOp.CONT, arg=0, flag=0, **fields) -> int:
        values = {"ctrl.op": CTRL_OPCODES[ctrl], "ctrl.arg": arg}
        if "ctrl.flag" in self.fmt:
            values["ctrl.flag"] = flag
        values.update(fields)
        self.words.append(values)
        return len(self.words) - 1

    def alu(self, operation, ctrl=CtrlOp.CONT, arg=0, a=0, b=0, dest=None,
            flag=0):
        """An ALU operation; ``dest`` is (register file, register)."""
        fields = {
            "alu.op": self.opcodes["alu"][operation],
            "alu.p0.addr": a,
            "alu.p1.addr": b,
        }
        if dest is not None:
            rf, addr = dest
            fields[f"{rf}.wr_en"] = 1
            fields[f"{rf}.wr_addr"] = addr
            select = mux_index(self.core, rf, "bus_alu")
            if select is not None:
                fields[f"{rf}.mux"] = select
        return self.word(ctrl=ctrl, arg=arg, flag=flag, **fields)

    def const_p1(self, value, register, ctrl=CtrlOp.CONT, arg=0):
        """Load an immediate into rf_alu_p1[register]."""
        fields = {
            "prg_c.op": self.opcodes["prg_c"]["const"],
            "prg_c.p0.imm": value & 0xFFFF,
            "rf_alu_p1.wr_en": 1,
            "rf_alu_p1.wr_addr": register,
            "rf_alu_p1.mux": mux_index(self.core, "rf_alu_p1", "bus_prg_c"),
        }
        return self.word(ctrl=ctrl, arg=arg, **fields)

    def build(self, mode="once") -> EncodedProgram:
        return EncodedProgram(
            core=self.core,
            format=self.fmt,
            words=[self.fmt.encode(v) for v in self.words],
            n_body=len(self.words),
            body_offset=0,
            rom_words=(),
            acu_moduli={},
            input_map={},
            output_map={},
            initial_registers={},
            mode=mode,
        )


def simulator(program: EncodedProgram) -> DecodedSimulator:
    return DecodedSimulator(decode_program(program))


class TestHardwareLoops:
    def test_loop_repeats_body(self):
        core = make_core()
        pb = ProgramBuilder(core)
        pb.const_p1(1, 0)                                   # p1[0] <- 1
        pb.word(ctrl=CtrlOp.LOOP, arg=5)
        pb.alu("add", a=0, b=0, dest=("rf_alu_p0", 0))      # p0[0] += 1
        pb.word(ctrl=CtrlOp.ENDL)
        pb.word(ctrl=CtrlOp.HALT)
        sim = simulator(pb.build())
        sim.run_frames(0, max_cycles=100)
        assert sim.halted
        assert sim.registers["rf_alu_p0"][0] == 5

    def test_loop_count_one_runs_once(self):
        core = make_core()
        pb = ProgramBuilder(core)
        pb.const_p1(1, 0)
        pb.word(ctrl=CtrlOp.LOOP, arg=1)
        pb.alu("add", a=0, b=0, dest=("rf_alu_p0", 0))
        pb.word(ctrl=CtrlOp.ENDL)
        pb.word(ctrl=CtrlOp.HALT)
        sim = simulator(pb.build())
        sim.run_frames(0, max_cycles=50)
        assert sim.registers["rf_alu_p0"][0] == 1

    def test_nested_loops_multiply(self):
        core = make_core()
        pb = ProgramBuilder(core)
        pb.const_p1(1, 0)
        pb.word(ctrl=CtrlOp.LOOP, arg=3)
        pb.word(ctrl=CtrlOp.LOOP, arg=4)
        pb.alu("add", a=0, b=0, dest=("rf_alu_p0", 0))
        pb.word(ctrl=CtrlOp.ENDL)
        pb.word(ctrl=CtrlOp.ENDL)
        pb.word(ctrl=CtrlOp.HALT)
        sim = simulator(pb.build())
        sim.run_frames(0, max_cycles=200)
        assert sim.registers["rf_alu_p0"][0] == 12   # 3 * 4

    def test_loop_stack_overflow(self):
        core = make_core(stack_depth=1)
        pb = ProgramBuilder(core)
        pb.word(ctrl=CtrlOp.LOOP, arg=2)
        pb.word(ctrl=CtrlOp.LOOP, arg=2)   # second push must overflow
        pb.word(ctrl=CtrlOp.ENDL)
        pb.word(ctrl=CtrlOp.ENDL)
        pb.word(ctrl=CtrlOp.HALT)
        sim = simulator(pb.build())
        with pytest.raises(SimulationError, match="stack overflow"):
            sim.run_frames(0, max_cycles=50)

    def test_endl_without_loop(self):
        core = make_core()
        pb = ProgramBuilder(core)
        pb.word(ctrl=CtrlOp.ENDL)
        pb.word(ctrl=CtrlOp.HALT)
        sim = simulator(pb.build())
        with pytest.raises(SimulationError, match="empty loop stack"):
            sim.run_frames(0, max_cycles=50)


class TestConditionalBranches:
    def branch_program(self, value):
        """Load ``value`` through the ALU (setting flags), then CJMP."""
        core = make_core(n_flags=2, conditionals=True)
        pb = ProgramBuilder(core)
        pb.const_p1(value, 0)
        # add(p0[0]=0, p1[0]=value): result = value, flags track it.
        pb.alu("add", a=0, b=0, dest=("rf_alu_p0", 1))
        return core, pb

    def run_flag_branch(self, value, flag):
        core, pb = self.branch_program(value)
        taken_target = 5
        pb.word(ctrl=CtrlOp.CJMP, arg=taken_target, flag=flag)
        pb.const_p1(111, 1)                  # fall-through path
        pb.word(ctrl=CtrlOp.HALT)
        assert len(pb.words) == taken_target
        pb.const_p1(222, 1)                  # taken path
        pb.word(ctrl=CtrlOp.HALT)
        sim = simulator(pb.build())
        sim.run_frames(0, max_cycles=50)
        return sim.registers["rf_alu_p1"][1]

    def test_negative_flag_taken(self):
        assert self.run_flag_branch(-5 & 0xFFFF, flag=0) == 222

    def test_negative_flag_not_taken(self):
        assert self.run_flag_branch(7, flag=0) == 111

    def test_zero_flag_taken(self):
        assert self.run_flag_branch(0, flag=1) == 222

    def test_zero_flag_not_taken(self):
        assert self.run_flag_branch(3, flag=1) == 111

    def test_unsupported_ctrl_op_rejected(self):
        core = make_core()   # no conditionals
        pb = ProgramBuilder(core)
        pb.word(ctrl=CtrlOp.CJMP, arg=0)
        pb.word(ctrl=CtrlOp.HALT)
        with pytest.raises(PlanError, match="not supported"):
            decode_program(pb.build())


class TestMachineGuards:
    def test_stepping_halted_core(self):
        core = make_core()
        pb = ProgramBuilder(core)
        pb.word(ctrl=CtrlOp.HALT)
        sim = simulator(pb.build())
        sim.run_frames(0, max_cycles=10)
        with pytest.raises(SimulationError, match="halted"):
            sim.step()

    def test_register_write_without_bus_value(self):
        core = make_core()
        pb = ProgramBuilder(core)
        # Write-enable p1 with the constant-unit mux input selected,
        # but no constant issued: nothing matures on bus_prg_c.
        pb.word(**{
            "rf_alu_p1.wr_en": 1,
            "rf_alu_p1.wr_addr": 0,
            "rf_alu_p1.mux": mux_index(core, "rf_alu_p1", "bus_prg_c"),
        })
        pb.word(ctrl=CtrlOp.HALT)
        sim = simulator(pb.build())
        with pytest.raises(SimulationError, match="nothing matured"):
            sim.run_frames(0, max_cycles=10)
