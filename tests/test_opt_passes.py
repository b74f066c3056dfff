"""Unit tests for the machine-independent DFG optimizer (repro.opt).

One test class per pass, plus the pass manager / report machinery and
the cached consumer index the passes (and the RT generator) share.
Every structural check is paired with a bit-exact reference-interpreter
comparison: a pass that rewrites the graph must never change a single
output sample.
"""

import random
from dataclasses import replace

import pytest

from repro import Q15, FixedFormat, Toolchain, run_reference, tiny_core
from repro.arch import ControllerSpec, CoreSpec, Datapath, Operation, OpuKind
from repro.arch.library import ClassDef
from repro.arch.opu import standard_shift_operations
from repro.lang import DfgBuilder
from repro.lang.dfg import Node, NodeKind
from repro.opt import (
    AlgebraicSimplifyPass,
    ConstantFoldingPass,
    CsePass,
    DcePass,
    OptimizationError,
    OptReport,
    PassContext,
    PassManager,
    StrengthReductionPass,
    optimize,
)
from repro.pipeline import dfg_fingerprint
from repro.report import optimization_report

from stream_helpers import random_streams

Q8_8 = FixedFormat(width=16, frac_bits=8)


def assert_same_streams(original, optimized, fmt=Q15, n=8, seed=0):
    stimulus = random_streams(original, n=n, seed=seed)
    assert (run_reference(original, stimulus, fmt=fmt)
            == run_reference(optimized, stimulus, fmt=fmt))


def op_names(dfg):
    return [n.name for n in dfg.nodes if n.kind is NodeKind.OP]


def shift_core() -> CoreSpec:
    """A multiplier-less core whose ALU has a step shifter (asr1..asr4):
    power-of-two multiplies compile only through strength reduction."""
    dp = Datapath("shifty")
    alu = dp.add_opu("alu", OpuKind.ALU, [
        Operation("add", arity=2, commutative=True),
        Operation("pass", arity=1),
    ] + standard_shift_operations(4))
    prg = dp.add_opu("prg_c", OpuKind.CONST, [Operation("const", arity=1)])
    ipb = dp.add_opu("ipb", OpuKind.INPUT, [Operation("read", arity=0)])
    dp.add_opu("opb", OpuKind.OUTPUT, [Operation("write", arity=1)])
    rf_p0 = dp.add_register_file("rf_alu_p0", 4)
    rf_p1 = dp.add_register_file("rf_alu_p1", 4)
    rf_opb = dp.add_register_file("rf_opb", 2)
    dp.connect_port(alu, 0, rf_p0)
    dp.connect_port(alu, 1, rf_p1)
    dp.make_immediate_port(prg, 0)
    dp.connect_port("opb", 0, rf_opb)
    bus_alu = dp.attach_bus(alu)
    bus_prg = dp.attach_bus(prg)
    bus_ipb = dp.attach_bus(ipb)
    dp.route_bus(bus_ipb, rf_p0)
    dp.route_bus(bus_alu, rf_p0)
    dp.route_bus(bus_prg, rf_p1)
    dp.route_bus(bus_alu, rf_p1)
    dp.route_bus(bus_alu, rf_opb)
    dp.route_bus(bus_ipb, rf_opb)
    usages = tuple(["add", "pass"] + [f"asr{k}" for k in range(1, 5)])
    return CoreSpec(
        name="shifty",
        datapath=dp,
        controller=ControllerSpec(stack_depth=2, n_flags=0,
                                  supports_conditionals=False,
                                  supports_loops=True, program_size=64),
        class_defs=[
            ClassDef("A", "ipb", ("read",)),
            ClassDef("B", "opb", ("write",)),
            ClassDef("Y", "alu", usages),
            ClassDef("M", "prg_c", ("const",)),
        ],
        instruction_types=[frozenset({"A", "Y", "M"}),
                           frozenset({"B", "Y", "M"})],
    )


class TestConstantFolding:
    def run_pass(self, dfg, fmt=Q15):
        return ConstantFoldingPass().run(dfg, PassContext(fmt=fmt))

    def test_folds_param_add(self):
        b = DfgBuilder("fold")
        s = b.op("add", b.param("p", 0.25), b.param("q", 0.5))
        b.output("y", b.op("add", s, b.input("x")))
        dfg = b.build()
        folded, stats = self.run_pass(dfg)
        assert stats.detail == {"folds": 1}
        # The folded constant quantizes exactly to 0.75.
        values = {Q15.from_float(v) for v in folded.params.values()}
        assert Q15.from_float(0.75) in values
        assert_same_streams(dfg, folded)

    def test_folds_whole_constant_subtree_in_one_sweep(self):
        b = DfgBuilder("tree")
        s = b.op("add", b.param("p", 0.1), b.param("q", 0.2))
        t = b.op("mult", s, b.param("r", 0.5))
        b.output("y", b.op("add", t, b.input("x")))
        folded, stats = self.run_pass(b.build())
        assert stats.detail == {"folds": 2}

    def test_clipping_op_saturates_at_the_rail(self):
        b = DfgBuilder("clip")
        s = b.op("add_clip", b.param("p", 0.9), b.param("q", 0.9))
        b.output("y", b.op("add", s, b.input("x")))
        dfg = b.build()
        folded, _ = self.run_pass(dfg)
        node = next(n for n in folded.nodes
                    if n.kind is NodeKind.PARAM
                    and Q15.from_float(folded.params[n.name]) == Q15.max_value)
        assert node is not None
        assert_same_streams(dfg, folded)

    def test_wrapping_op_wraps_like_hardware(self):
        # 0.9 + 0.9 through the plain adder wraps negative; folding on
        # floats would have produced +1.8 and a clipped constant.
        b = DfgBuilder("wrap")
        s = b.op("add", b.param("p", 0.9), b.param("q", 0.9))
        b.output("y", b.op("add", s, b.input("x")))
        dfg = b.build()
        folded, _ = self.run_pass(dfg)
        expected = Q15.add(Q15.from_float(0.9), Q15.from_float(0.9))
        assert expected < 0
        assert any(Q15.from_float(v) == expected
                   for v in folded.params.values())
        assert_same_streams(dfg, folded)

    def test_folded_constant_reuses_matching_coefficient(self):
        b = DfgBuilder("pool")
        s = b.op("add", b.param("p", 0.25), b.param("q", 0.25))
        b.output("y", b.op("mult", b.param("half", 0.5),
                           b.op("add", s, b.input("x"))))
        folded, _ = self.run_pass(b.build())
        # 0.25 + 0.25 == the existing 'half' coefficient: no new entry.
        assert set(folded.params) == {"p", "q", "half"}

    def test_unknown_asu_operation_left_alone(self):
        b = DfgBuilder("asu")
        s = b.op("warp9", b.param("p", 0.25), b.param("q", 0.5))
        b.output("y", b.op("add", s, b.input("x")))
        folded, stats = self.run_pass(b.build())
        assert not stats.changed
        assert "warp9" in op_names(folded)


class TestAlgebraicSimplify:
    def simplify(self, dfg, fmt=Q15):
        simplified, stats = AlgebraicSimplifyPass().run(
            dfg, PassContext(fmt=fmt))
        cleaned, _ = DcePass().run(simplified, PassContext(fmt=fmt))
        return cleaned, stats

    def test_add_zero_forwards_operand(self):
        b = DfgBuilder("addz")
        b.output("y", b.op("add", b.input("x"), b.param("z", 0.0)))
        dfg = b.build()
        cleaned, stats = self.simplify(dfg)
        assert stats.detail == {"add_zero": 1}
        assert op_names(cleaned) == []
        assert_same_streams(dfg, cleaned)

    def test_add_clip_zero_and_sub_zero(self):
        b = DfgBuilder("zeros")
        z = b.param("z", 0.0)
        x = b.input("x")
        b.output("a", b.op("add_clip", z, x))
        b.output("s", b.op("sub", x, z))
        dfg = b.build()
        cleaned, stats = self.simplify(dfg)
        assert op_names(cleaned) == []
        assert stats.detail == {"add_zero": 1, "sub_zero": 1}
        assert_same_streams(dfg, cleaned)

    def test_pass_chain_collapses(self):
        b = DfgBuilder("passes")
        x = b.input("x")
        b.output("y", b.op("pass_clip", b.op("pass", b.op("pass", x))))
        dfg = b.build()
        cleaned, stats = self.simplify(dfg)
        assert stats.detail == {"pass_collapsed": 3}
        assert op_names(cleaned) == []
        assert_same_streams(dfg, cleaned)

    def test_mult_by_exact_one_forwards(self):
        # 1.0 is representable in Q8.8 (scale 256), not in Q15.
        b = DfgBuilder("one")
        b.output("y", b.op("mult", b.param("one", 1.0), b.input("x")))
        dfg = b.build()
        cleaned, stats = self.simplify(dfg, fmt=Q8_8)
        assert stats.detail == {"mult_one": 1}
        assert op_names(cleaned) == []
        assert_same_streams(dfg, cleaned, fmt=Q8_8)

    def test_mult_by_one_does_not_fire_in_q15(self):
        # from_float(1.0) clips to 0.999969...: not the identity.
        b = DfgBuilder("notone")
        b.output("y", b.op("mult", b.param("one", 1.0), b.input("x")))
        cleaned, stats = self.simplify(b.build(), fmt=Q15)
        assert not stats.changed
        assert op_names(cleaned) == ["mult"]

    def test_mult_by_zero_becomes_constant(self):
        b = DfgBuilder("multz")
        m = b.op("mult", b.input("x"), b.param("z", 0.0))
        b.output("y", b.op("add", m, b.input("x2")))
        dfg = b.build()
        cleaned, stats = self.simplify(dfg)
        assert stats.detail == {"zeros": 1, "add_zero": 1}
        assert op_names(cleaned) == []
        assert_same_streams(dfg, cleaned)

    def test_sub_of_itself_becomes_zero(self):
        b = DfgBuilder("subself")
        x = b.input("x")
        b.output("y", b.op("add", b.op("sub", x, x), b.input("x2")))
        dfg = b.build()
        cleaned, stats = self.simplify(dfg)
        assert stats.detail == {"zeros": 1, "add_zero": 1}
        assert_same_streams(dfg, cleaned)


class TestCse:
    def run_cse(self, dfg):
        merged, stats = CsePass().run(dfg, PassContext())
        cleaned, _ = DcePass().run(merged, PassContext())
        return cleaned, stats

    def test_duplicate_delays_merge(self):
        b = DfgBuilder("delays")
        s = b.state("s", depth=2)
        b.write(s, b.input("x"))
        a = b.op("mult", b.param("p", 0.5), b.delay(s, 2))
        c = b.op("mult", b.param("q", 0.25), b.delay(s, 2))
        b.output("y", b.op("add", a, c))
        dfg = b.build()
        cleaned, stats = self.run_cse(dfg)
        assert stats.detail == {"delay_merged": 1}
        delays = [n for n in cleaned.nodes if n.kind is NodeKind.DELAY]
        assert len(delays) == 1
        assert_same_streams(dfg, cleaned)

    def test_different_delay_distances_kept(self):
        b = DfgBuilder("distances")
        s = b.state("s", depth=2)
        b.write(s, b.input("x"))
        b.output("y", b.op("add", b.delay(s, 1), b.delay(s, 2)))
        cleaned, stats = self.run_cse(b.build())
        assert not stats.changed

    def test_common_op_merges(self):
        b = DfgBuilder("ops")
        x, p = b.input("x"), b.param("p", 0.5)
        a = b.op("mult", p, x)
        c = b.op("mult", p, x)
        b.output("y", b.op("add", a, c))
        dfg = b.build()
        cleaned, stats = self.run_cse(dfg)
        assert stats.detail == {"op_merged": 1}
        assert op_names(cleaned).count("mult") == 1
        assert_same_streams(dfg, cleaned)

    def test_commutative_operands_merge_order_insensitively(self):
        b = DfgBuilder("comm")
        x, p = b.input("x"), b.param("p", 0.5)
        b.output("y", b.op("add", b.op("mult", p, x), b.op("mult", x, p)))
        cleaned, stats = self.run_cse(b.build())
        assert stats.detail == {"op_merged": 1}

    def test_noncommutative_operands_not_swapped(self):
        b = DfgBuilder("sub")
        x, x2 = b.input("x"), b.input("x2")
        b.output("y", b.op("add", b.op("sub", x, x2), b.op("sub", x2, x)))
        cleaned, stats = self.run_cse(b.build())
        assert not stats.changed

    def test_params_merge_by_quantized_value(self):
        b = DfgBuilder("pool")
        a = b.op("mult", b.param("p", 0.5), b.input("x"))
        c = b.op("mult", b.param("q", 0.5), b.input("x2"))
        b.output("y", b.op("add", a, c))
        dfg = b.build()
        cleaned, stats = self.run_cse(dfg)
        assert stats.detail == {"param_merged": 1}
        assert len(cleaned.params) == 1
        assert_same_streams(dfg, cleaned)

    def test_input_reads_never_merge(self):
        b = DfgBuilder("io")
        b.output("y", b.op("add", b.input("x"), b.input("x2")))
        cleaned, stats = self.run_cse(b.build())
        assert not stats.changed
        assert len([n for n in cleaned.nodes
                    if n.kind is NodeKind.INPUT]) == 2


class TestDce:
    def run_dce(self, dfg):
        return DcePass().run(dfg, PassContext())

    def test_dead_op_chain_removed(self):
        b = DfgBuilder("dead")
        x = b.input("x")
        b.op("mult", b.param("p", 0.5), x)          # never consumed
        b.output("y", b.op("pass", x))
        dfg = b.build()
        cleaned, stats = self.run_dce(dfg)
        assert stats.removed == 2
        assert op_names(cleaned) == ["pass"]
        assert "p" not in cleaned.params
        assert_same_streams(dfg, cleaned)

    def test_unread_state_write_removed(self):
        b = DfgBuilder("unread")
        s = b.state("s", depth=1)
        x = b.input("x")
        b.write(s, b.op("mult", b.param("p", 0.5), x))
        b.output("y", b.op("pass", x))
        dfg = b.build()
        cleaned, stats = self.run_dce(dfg)
        assert stats.removed == 3
        assert "s" not in cleaned.states
        assert_same_streams(dfg, cleaned)

    def test_dead_feedback_cycle_removed(self):
        # A state feeding only its own next value is unobservable.
        b = DfgBuilder("cycle")
        s = b.state("s", depth=1)
        b.write(s, b.op("mult", b.param("p", 0.5), b.delay(s, 1)))
        b.output("y", b.op("pass", b.input("x")))
        dfg = b.build()
        cleaned, stats = self.run_dce(dfg)
        assert stats.removed == 4
        assert "s" not in cleaned.states

    def test_live_state_kept_through_delay(self):
        b = DfgBuilder("live")
        s = b.state("s", depth=1)
        b.write(s, b.input("x"))
        b.output("y", b.delay(s, 1))
        cleaned, stats = self.run_dce(b.build())
        assert not stats.changed
        assert "s" in cleaned.states

    def test_port_declarations_survive_dead_input(self):
        # A dead INPUT node disappears but the port stays declared:
        # the run() interface must not change shape.
        b = DfgBuilder("ports")
        b.input("unused")
        b.output("y", b.op("pass", b.input("x")))
        cleaned, _ = self.run_dce(b.build())
        assert cleaned.inputs == ("unused", "x")
        assert all(n.name != "unused" for n in cleaned.nodes)

    def test_renumbered_ids_stay_dense_and_topological(self):
        b = DfgBuilder("dense")
        x = b.input("x")
        b.op("mult", b.param("p", 0.5), x)
        b.output("y", b.op("pass", x))
        cleaned, _ = self.run_dce(b.build())
        assert [n.id for n in cleaned.nodes] == list(range(len(cleaned.nodes)))
        cleaned.validate()


class TestStrengthReduction:
    def reduce(self, dfg, core):
        return StrengthReductionPass().run(
            dfg, PassContext(fmt=Q15, core=core))

    def build_mult(self, value, name="c"):
        b = DfgBuilder("sr")
        b.output("y", b.op("mult", b.param(name, value), b.input("x")))
        return b.build()

    def test_half_becomes_asr1(self):
        reduced, stats = self.reduce(self.build_mult(0.5), shift_core())
        assert stats.detail["mults_reduced"] == 1
        assert stats.detail["coefficients_freed"] == 1
        assert op_names(reduced) == ["asr1"]

    def test_sixteenth_becomes_asr4(self):
        reduced, _ = self.reduce(self.build_mult(0.0625), shift_core())
        assert op_names(reduced) == ["asr4"]

    def test_distance_beyond_the_shifter_not_reduced(self):
        # 2**-5 would need asr5; the core stops at asr4.
        reduced, stats = self.reduce(self.build_mult(0.03125), shift_core())
        assert not stats.changed

    def test_non_power_of_two_untouched(self):
        reduced, stats = self.reduce(self.build_mult(0.75), shift_core())
        assert not stats.changed
        assert op_names(reduced) == ["mult"]

    def test_negative_power_untouched(self):
        reduced, stats = self.reduce(self.build_mult(-0.5), shift_core())
        assert not stats.changed

    def test_core_without_shifter_is_inert(self):
        reduced, stats = self.reduce(self.build_mult(0.5), tiny_core())
        assert not stats.changed

    def test_shared_coefficient_not_counted_freed(self):
        b = DfgBuilder("shared")
        h = b.param("half", 0.5)
        m = b.op("mult", h, b.input("x"))
        b.output("y", b.op("add", m, h))
        reduced, stats = self.reduce(b.build(), shift_core())
        assert stats.detail["mults_reduced"] == 1
        assert "coefficients_freed" not in stats.detail

    def test_asr_semantics_match_the_multiply(self):
        rng = random.Random(4)
        half = Q15.from_float(0.5)
        for _ in range(200):
            a = rng.randint(Q15.min_value, Q15.max_value)
            assert Q15.asr(a, 1) == Q15.mult(a, half)
            assert Q15.apply("asr3", a) == Q15.wrap(a >> 3)

    def test_asr_dispatch_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="no fixed-point semantics"):
            Q15.apply("asr2", 1, 2)
        with pytest.raises(ValueError, match="no fixed-point semantics"):
            Q15.apply("asr2")

    def test_compiles_on_multiplier_less_core(self):
        # End to end: the shift core has no MULT OPU at all, so the
        # power-of-two multiply only compiles through the reduction.
        dfg = self.build_mult(0.25)
        compiled = Toolchain(shift_core(), cache=None, opt=2).compile(dfg)
        assert all(rt.operation != "mult" for rt in compiled.rt_program.rts)
        stimulus = random_streams(dfg, n=6, seed=2)
        assert compiled.run(stimulus) == run_reference(dfg, stimulus)


class TestPassManagerAndReport:
    def test_level_zero_is_identity(self):
        b = DfgBuilder("id")
        b.output("y", b.op("pass", b.input("x")))
        dfg = b.build()
        optimized, report = optimize(dfg, level=0)
        assert optimized is dfg
        assert report.level == 0
        assert report.iterations == 0
        assert not report.changed

    def test_unknown_level_rejected(self):
        b = DfgBuilder("bad")
        b.output("y", b.op("pass", b.input("x")))
        with pytest.raises(OptimizationError, match="unknown optimization"):
            optimize(b.build(), level=3)

    def test_o2_iterates_to_fixpoint(self):
        b = DfgBuilder("fix")
        s = b.op("add", b.param("p", 0.25), b.param("q", 0.5))
        b.output("y", b.op("add", s, b.input("x")))
        _, report = optimize(b.build(), level=2)
        # Sweep 1 rewrites, sweep 2 proves quiescence.
        assert report.iterations == 2

    def test_report_totals_and_summary(self):
        b = DfgBuilder("tot")
        x = b.input("x")
        b.output("y", b.op("pass", b.op("pass", x)))
        _, report = optimize(b.build(), level=1)
        totals = report.totals()
        assert totals["algebraic"] == 2
        assert totals["dce"] == 2
        assert "algebraic 2" in report.summary()
        assert report.nodes_removed == 2

    def test_optimization_report_renders(self):
        b = DfgBuilder("text")
        b.output("y", b.op("pass", b.input("x")))
        _, report = optimize(b.build(), level=2)
        text = optimization_report(report)
        assert "optimizer report (-O2" in text
        assert "algebraic" in text
        empty = optimization_report(OptReport(level=1, iterations=1))
        assert "(no rewrites)" in empty

    def test_compiled_program_carries_report_and_source(self):
        b = DfgBuilder("carry")
        b.output("y", b.op("pass", b.input("x")))
        dfg = b.build()
        compiled = Toolchain(tiny_core(), cache=None, opt=2).compile(dfg)
        assert compiled.source_dfg is dfg
        assert compiled.opt_report.level == 2
        assert compiled.opt_report.changed
        assert len(compiled.dfg.nodes) < len(dfg.nodes)


def random_shift_graph(rng: random.Random):
    """A random graph whose multiplies often take power-of-two
    coefficients, with a delay line for CSE to merge."""
    coefficients = [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.3, 0.0, -0.5]
    b = DfgBuilder("rand")
    state = b.state("s", 2)
    values = [b.input("x"), b.input("y")]
    for _ in range(rng.randint(1, 12)):
        kind = rng.choice(["mult", "mult", "add", "sub", "pass",
                           "add_clip", "param", "delay"])
        if kind == "param" or (kind == "mult" and rng.random() < 0.7):
            index = rng.randrange(len(coefficients))
            coefficient = b.param(f"k{index}", coefficients[index])
            if kind == "param":
                values.append(coefficient)
                continue
            values.append(b.op("mult", coefficient, rng.choice(values)))
        elif kind == "delay":
            values.append(b.delay(state, rng.randint(1, 2)))
        elif kind == "pass":
            values.append(b.op(kind, rng.choice(values)))
        else:
            values.append(b.op(kind, rng.choice(values), rng.choice(values)))
    b.write(state, rng.choice(values))
    b.output("o", values[-1])
    return b.build()


def test_o2_matches_the_fused_pipeline():
    # Before -O2 was built from the explorer's two halves, it was one
    # fused list iterated to a fixpoint; that list is the reference.
    core = shift_core()
    reductions = 0
    for seed in range(300):
        dfg = random_shift_graph(random.Random(seed))
        fused, _ = PassManager(
            [ConstantFoldingPass(), AlgebraicSimplifyPass(), CsePass(),
             StrengthReductionPass(), DcePass()], iterate=True,
        ).run(dfg, core=core)
        optimized, report = optimize(dfg, core, level=2)
        assert dfg_fingerprint(optimized) == dfg_fingerprint(fused), seed
        reductions += bool(report.totals().get("strength"))
    assert reductions >= 50


def test_o2_report_merges_both_halves():
    b = DfgBuilder("halves")
    b.output("y", b.op("mult", b.param("h", 0.5), b.input("x")))
    optimized, report = optimize(b.build(), shift_core(), level=2)
    assert op_names(optimized) == ["asr1"]
    names = [stats.name for stats in report.passes]
    # -O1's passes to a fixpoint (one quiet sweep), then strength
    # reduction, CSE and DCE to a fixpoint (a rewriting sweep and a
    # quiet one).
    assert names == ["fold", "algebraic", "cse", "dce",
                     "strength", "cse", "dce", "strength", "cse", "dce"]
    assert report.iterations == 3
    assert report.nodes_before == 4 and report.nodes_after == 3


class TestSharedNodes:
    """A pass hands the nodes it leaves alone to the graph it returns."""

    def test_unchanged_nodes_are_shared(self):
        b = DfgBuilder("share")
        x = b.input("x")
        kept = b.op("add", x, x)
        b.output("y", b.op("add", kept, b.op("pass", x)))
        dfg = b.build()
        simplified, stats = AlgebraicSimplifyPass().run(dfg, PassContext())
        assert stats.changed
        assert simplified.nodes[0] is dfg.nodes[0]
        assert simplified.nodes[1] is dfg.nodes[1]
        # The final add read the collapsed pass: rewired, so new.
        assert simplified.nodes[3] is not dfg.nodes[3]
        assert simplified.nodes[3].args == (1, 0)

    def test_dce_renumbers_only_after_the_first_removal(self):
        b = DfgBuilder("suffix")
        x = b.input("x")
        live = b.op("pass", x)
        b.op("add", x, x)                       # dead
        b.output("y", b.op("pass", live))
        dfg = b.build()
        pruned, stats = DcePass().run(dfg, PassContext())
        assert stats.removed == 1
        assert pruned.nodes[0] is dfg.nodes[0]
        assert pruned.nodes[1] is dfg.nodes[1]
        assert [n.id for n in pruned.nodes] == [0, 1, 2, 3]
        assert pruned.nodes[3].args == (2,)

    def test_nodes_are_frozen(self):
        from dataclasses import FrozenInstanceError

        b = DfgBuilder("frozen")
        b.output("y", b.op("pass", b.input("x")))
        with pytest.raises(FrozenInstanceError):
            b.build().nodes[0].args = ()


class TestConsumerIndex:
    def build(self):
        b = DfgBuilder("index")
        x = b.input("x")
        p = b.param("p", 0.5)
        m = b.op("mult", p, x)
        b.output("y", b.op("add", m, m))
        return b.build()

    def test_matches_brute_force(self):
        dfg = self.build()
        index = dfg.consumer_index()
        for node in dfg.nodes:
            brute = [n for n in dfg.nodes if node.id in n.args]
            assert list(index[node.id]) == brute
            assert dfg.consumers(node.id) == brute

    def test_duplicate_operand_listed_once(self):
        dfg = self.build()
        mult = next(n for n in dfg.nodes if n.name == "mult")
        readers = dfg.consumer_index()[mult.id]
        assert len(readers) == 1
        assert readers[0].name == "add"

    def test_cache_is_reused(self):
        dfg = self.build()
        assert dfg.consumer_index() is dfg.consumer_index()

    def test_appended_copy_gets_its_own_index(self):
        dfg = self.build()
        first = dfg.consumer_index()
        y2 = Node(id=len(dfg.nodes), kind=NodeKind.OUTPUT, name="y2",
                  args=(0,))
        copy = replace(dfg, outputs=(*dfg.outputs, "y2"),
                       nodes=(*dfg.nodes, y2))
        second = copy.consumer_index()
        assert second is not first
        assert any(n.name == "y2" for n in second[0])
        assert dfg.consumer_index() is first
        assert not any(n.name == "y2" for n in first[0])

    def test_replaced_node_copy_gets_its_own_index(self):
        dfg = self.build()
        first = dfg.consumer_index()
        add = dfg.nodes[-2]
        copy = replace(dfg, nodes=(*dfg.nodes[:-2],
                                   replace(add, args=(0, 0)), dfg.nodes[-1]))
        assert [n.name for n in copy.consumer_index()[0]] == ["mult", "add"]
        assert [n.name for n in first[0]] == ["mult"]
