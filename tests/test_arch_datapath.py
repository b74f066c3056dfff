"""Unit tests for the datapath model (repro.arch)."""

import pytest

from repro.arch import (
    ControllerSpec,
    CoreSpec,
    Datapath,
    Operation,
    OpuKind,
    audio_datapath,
    datapath_findings,
    fir_datapath,
    tiny_datapath,
)
from repro.errors import ArchitectureError, ConnectivityError


def build_minimal():
    dp = Datapath("mini")
    alu = dp.add_opu("alu", OpuKind.ALU, [Operation("add", arity=2)])
    rf0 = dp.add_register_file("rf0", 2)
    rf1 = dp.add_register_file("rf1", 2)
    dp.connect_port(alu, 0, rf0)
    dp.connect_port(alu, 1, rf1)
    bus = dp.attach_bus(alu)
    dp.route_bus(bus, rf0)
    return dp, alu, rf0, rf1, bus


class TestBuilder:
    def test_add_opu_registers_by_name(self):
        dp, alu, *_ = build_minimal()
        assert dp.opu("alu") is alu

    def test_duplicate_opu_name_rejected(self):
        dp, *_ = build_minimal()
        with pytest.raises(ArchitectureError, match="duplicate OPU"):
            dp.add_opu("alu", OpuKind.ALU, [Operation("add")])

    def test_duplicate_rf_name_rejected(self):
        dp, *_ = build_minimal()
        with pytest.raises(ArchitectureError, match="duplicate register file"):
            dp.add_register_file("rf0", 2)

    def test_opu_without_operations_rejected(self):
        dp = Datapath("x")
        with pytest.raises(ArchitectureError, match="at least one operation"):
            dp.add_opu("bad", OpuKind.ALU, [])

    def test_duplicate_operation_names_rejected(self):
        dp = Datapath("x")
        with pytest.raises(ArchitectureError, match="duplicate operation"):
            dp.add_opu("bad", OpuKind.ALU, [Operation("add"), Operation("add")])

    def test_ram_requires_memory_size(self):
        dp = Datapath("x")
        with pytest.raises(ArchitectureError, match="memory_size"):
            dp.add_opu("ram", OpuKind.RAM, [Operation("read", arity=1)])

    def test_non_memory_opu_rejects_memory_size(self):
        dp = Datapath("x")
        with pytest.raises(ArchitectureError, match="no memory"):
            dp.add_opu("alu", OpuKind.ALU, [Operation("add")], memory_size=4)

    def test_port_cannot_be_fed_twice(self):
        dp, alu, rf0, *_ = build_minimal()
        with pytest.raises(ArchitectureError, match="already fed"):
            dp.connect_port(alu, 0, rf0)

    def test_immediate_port_cannot_be_fed(self):
        dp = Datapath("x")
        acu = dp.add_opu("acu", OpuKind.ACU, [Operation("addmod", arity=2)])
        rf = dp.add_register_file("rf", 2)
        dp.make_immediate_port(acu, 1)
        with pytest.raises(ArchitectureError, match="immediate"):
            dp.connect_port(acu, 1, rf)

    def test_port_index_out_of_range(self):
        dp, alu, rf0, *_ = build_minimal()
        with pytest.raises(ArchitectureError, match="no port 7"):
            dp.connect_port(alu, 7, rf0)

    def test_output_opu_drives_no_bus(self):
        dp = Datapath("x")
        opb = dp.add_opu("opb", OpuKind.OUTPUT, [Operation("write", arity=1)])
        with pytest.raises(ArchitectureError, match="drives no bus"):
            dp.attach_bus(opb)

    def test_double_bus_rejected(self):
        dp, alu, *_ = build_minimal()
        with pytest.raises(ArchitectureError, match="already drives"):
            dp.attach_bus(alu)

    def test_duplicate_route_rejected(self):
        dp, alu, rf0, rf1, bus = build_minimal()
        with pytest.raises(ArchitectureError, match="already routed"):
            dp.route_bus(bus, rf0)


class TestMuxInsertion:
    def test_single_writer_is_direct(self):
        dp, alu, rf0, rf1, bus = build_minimal()
        route = dp.route_to(alu, rf0)
        assert route.mux is None

    def test_second_writer_materialises_mux(self):
        dp, alu, rf0, rf1, bus = build_minimal()
        prg = dp.add_opu("prg", OpuKind.CONST, [Operation("const", arity=1)])
        dp.make_immediate_port(prg, 0)
        bus2 = dp.attach_bus(prg)
        dp.route_bus(bus2, rf0)
        route_alu = dp.route_to(alu, rf0)
        route_prg = dp.route_to(prg, rf0)
        assert route_alu.mux is route_prg.mux
        assert route_alu.mux is not None
        assert len(route_alu.mux.inputs) == 2
        # Existing direct writer was re-wired to mux input 0.
        assert route_alu.mux.input_index(bus) == 0
        assert route_alu.mux.input_index(bus2) == 1

    def test_mux_select_usage_strings(self):
        dp, alu, rf0, rf1, bus = build_minimal()
        prg = dp.add_opu("prg", OpuKind.CONST, [Operation("const", arity=1)])
        dp.make_immediate_port(prg, 0)
        bus2 = dp.attach_bus(prg)
        dp.route_bus(bus2, rf0)
        mux = dp.route_to(alu, rf0).mux
        assert mux.select_usage(bus) == "pass[0]"
        assert mux.select_usage(bus2) == "pass[1]"


class TestQueries:
    def test_opus_supporting(self):
        dp = audio_datapath()
        assert [o.name for o in dp.opus_supporting("mult")] == ["mult"]
        assert [o.name for o in dp.opus_supporting("const")] == ["rom", "prg_c"]

    def test_route_to_missing_raises(self):
        dp = audio_datapath()
        with pytest.raises(ConnectivityError, match="no route"):
            dp.route_to("prg_c", "rf_opb1")

    def test_port_register_file(self):
        dp = audio_datapath()
        assert dp.port_register_file("mult", 0).name == "rf_mult_data"
        assert dp.port_register_file("mult", 1).name == "rf_mult_coef"

    def test_port_register_file_on_immediate_port_raises(self):
        dp = audio_datapath()
        with pytest.raises(ConnectivityError, match="immediate"):
            dp.port_register_file("acu", 1)

    def test_reachable_register_files(self):
        dp = audio_datapath()
        reachable = {rf.name for rf in dp.reachable_register_files("alu")}
        assert reachable == {
            "rf_ram_data", "rf_mult_data", "rf_alu_p0", "rf_alu_p1",
            "rf_opb1", "rf_opb2",
        }

    def test_unknown_names_raise(self):
        dp = audio_datapath()
        with pytest.raises(ArchitectureError, match="unknown OPU"):
            dp.opu("nope")
        with pytest.raises(ArchitectureError, match="unknown register file"):
            dp.register_file("nope")


class TestValidation:
    def test_library_datapaths_are_valid(self):
        for dp in (audio_datapath(), fir_datapath(), tiny_datapath()):
            CoreSpec(dp.name, dp, ControllerSpec())  # must not raise

    def test_unfed_port_is_rejected(self):
        dp = Datapath("bad")
        dp.add_opu("alu", OpuKind.ALU, [Operation("add", arity=2)])
        with pytest.raises(ArchitectureError, match="neither fed"):
            CoreSpec("bad", dp, ControllerSpec())

    def test_busless_producer_is_rejected(self):
        dp = Datapath("bad")
        alu = dp.add_opu("alu", OpuKind.ALU, [Operation("add", arity=2)])
        rf0 = dp.add_register_file("rf0", 2)
        rf1 = dp.add_register_file("rf1", 2)
        dp.connect_port(alu, 0, rf0)
        dp.connect_port(alu, 1, rf1)
        with pytest.raises(ArchitectureError, match="drives no bus"):
            CoreSpec("bad", dp, ControllerSpec())

    def test_empty_datapath_is_rejected(self):
        with pytest.raises(ArchitectureError, match="no OPUs"):
            CoreSpec("empty", Datapath("empty"), ControllerSpec())

    def test_dangling_bus_warns(self):
        dp, alu, rf0, rf1, bus = build_minimal()
        prg = dp.add_opu("prg", OpuKind.CONST, [Operation("const", arity=1)])
        dp.make_immediate_port(prg, 0)
        dp.attach_bus(prg)  # never routed anywhere
        dead = [f for f in datapath_findings(dp) if f.code == "arch.dead-bus"]
        assert dead and not any(f.is_error for f in dead)
        assert "reaches no" in dead[0].message
        CoreSpec("mini", dp, ControllerSpec())  # a warning never raises


class TestOperation:
    def test_latency_must_be_positive(self):
        with pytest.raises(ArchitectureError, match="latency"):
            Operation("x", latency=0)

    def test_initiation_interval_bounds(self):
        with pytest.raises(ArchitectureError, match="initiation interval"):
            Operation("x", latency=2, initiation_interval=3)

    def test_pipelined_operation_accepted(self):
        op = Operation("mult", latency=2, initiation_interval=1)
        assert op.latency == 2

    def test_negative_arity_rejected(self):
        with pytest.raises(ArchitectureError, match="arity"):
            Operation("x", arity=-1)


class TestControllerSpec:
    def test_conditionals_need_flags(self):
        with pytest.raises(ArchitectureError, match="flag"):
            ControllerSpec(supports_conditionals=True, n_flags=0)

    def test_stripped_removes_conditionals(self):
        spec = ControllerSpec(n_flags=2, supports_conditionals=True)
        stripped = spec.stripped()
        assert not stripped.supports_conditionals
        assert stripped.n_flags == 0
        assert stripped.stack_depth == spec.stack_depth

    def test_allowed_ops_without_loops(self):
        from repro.arch import CtrlOp
        spec = ControllerSpec(supports_loops=False)
        ops = spec.allowed_ops()
        assert CtrlOp.LOOP not in ops
        assert CtrlOp.JUMP in ops
        assert CtrlOp.IDLE in ops

    def test_address_bits(self):
        assert ControllerSpec(program_size=64).address_bits == 6
        assert ControllerSpec(program_size=65).address_bits == 7
