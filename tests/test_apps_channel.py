"""Tests for the DECT/GSM channel front-end workload."""

import math

import pytest

from repro import Q15, Toolchain, audio_core, fir_core, run_reference
from repro.apps import channel_frontend_application
from repro.arch import Allocation, intermediate_architecture
from repro.core import ConflictGraph, InstructionSet, closure, compatible_pairs


def tone(n, amplitude=0.4, period=8.0, offset=0.1):
    return [Q15.from_float(offset + amplitude * math.sin(2 * math.pi * i / period))
            for i in range(n)]


class TestChannelFrontend:
    def test_builds_and_validates(self):
        dfg = channel_frontend_application()
        assert dfg.inputs == ("rf_in",)
        assert set(dfg.outputs) == {"sym", "corr", "rssi"}
        assert set(dfg.states) == {"dc", "mfline", "symline", "energy"}

    def test_audio_core_rejects_the_dect_domain(self):
        # The audio core's ALU has no 'sub' (exactly the paper's 13
        # classes) — a DECT front-end needs its own in-house core,
        # which is the paper's whole premise.
        from repro.errors import BindingError

        with pytest.raises(BindingError, match="'sub'"):
            Toolchain(audio_core(), cache=None) \
                .compile(channel_frontend_application())

    def test_compiles_on_fir_core_bit_exact(self):
        dfg = channel_frontend_application()
        compiled = Toolchain(fir_core(), cache=None).compile(dfg)
        stimulus = {"rf_in": tone(24)}
        assert compiled.run(stimulus) == run_reference(dfg, stimulus)

    def test_dc_offset_is_tracked_out(self):
        # With a pure DC input, the symbol output must decay towards 0.
        dfg = channel_frontend_application()
        n = 400
        stimulus = {"rf_in": [Q15.from_float(0.25)] * n}
        outputs = run_reference(dfg, stimulus)
        head = sum(abs(v) for v in outputs["sym"][8:40])
        tail = sum(abs(v) for v in outputs["sym"][-32:])
        assert tail < head / 2

    def test_rssi_rises_with_signal(self):
        dfg = channel_frontend_application()
        quiet = run_reference(dfg, {"rf_in": [0] * 64})
        loud = run_reference(dfg, {"rf_in": tone(64, amplitude=0.7, offset=0.0)})
        assert max(loud["rssi"]) > max(quiet["rssi"])

    def test_exploration_finds_a_dect_core(self):
        # Phase-1 usage: the front-end as a representative application.
        dfg = channel_frontend_application()
        core = intermediate_architecture([dfg], Allocation(), name="dect")
        compiled = Toolchain(core, cache=None).compile(dfg)
        stimulus = {"rf_in": tone(16)}
        assert compiled.run(stimulus) == run_reference(dfg, stimulus)


class TestConflictGraphInvariance:
    """Rules 3-4 never change pairwise compatibility, so the conflict
    graph from *desired* types must equal the one from the closure."""

    @pytest.mark.parametrize("desired", [
        [frozenset("ST"), frozenset("SUV"), frozenset("XY")],
        [frozenset("AB")],
        [],
        [frozenset("ABCD")],
    ])
    def test_from_types_equals_from_closure(self, desired):
        classes = sorted({c for t in desired for c in t} | {"Z"})
        direct = ConflictGraph.from_instruction_set(
            InstructionSet.from_desired(classes, desired)
        )
        closed = ConflictGraph.from_instruction_set(
            InstructionSet(classes, closure(classes, desired))
        )
        assert direct == closed

    def test_pairs_match_definition(self):
        desired = [frozenset("PQR")]
        pairs = compatible_pairs(desired)
        graph = ConflictGraph.from_instruction_set(
            InstructionSet.from_desired(["P", "Q", "R", "S"], desired))
        for pair in pairs:
            a, b = sorted(pair)
            assert not graph.has_edge(a, b)
        assert graph.has_edge("P", "S")
