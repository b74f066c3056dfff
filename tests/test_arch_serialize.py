"""Tests for core (de)serialization: a core travels as one JSON artifact."""

import json

import pytest

from repro import Q15, Toolchain, run_reference
from repro.apps import adaptive_core
from repro.arch import (
    ControllerSpec,
    CoreSpec,
    audio_core,
    core_from_dict,
    core_to_dict,
    dump_core,
    fir_core,
    load_core,
    tiny_core,
)
from repro.errors import ArchitectureError
from repro.lang import DfgBuilder

ALL_CORES = [audio_core, fir_core, tiny_core, adaptive_core]


class TestRoundtrip:
    @pytest.mark.parametrize("factory", ALL_CORES)
    def test_dict_roundtrip_is_stable(self, factory):
        core = factory()
        once = core_to_dict(core)
        again = core_to_dict(core_from_dict(once))
        assert once == again

    @pytest.mark.parametrize("factory", ALL_CORES)
    def test_loaded_core_is_valid(self, factory):
        loaded = load_core(dump_core(factory()))
        CoreSpec(loaded.name, loaded.datapath, ControllerSpec())  # no raise

    def test_json_is_actually_json(self):
        payload = json.loads(dump_core(tiny_core()))
        assert payload["name"] == "tiny"
        assert payload["format_version"] == 1

    def test_mux_input_order_survives(self):
        original = audio_core()
        loaded = load_core(dump_core(original))
        for name, mux in original.datapath.muxes.items():
            loaded_mux = loaded.datapath.muxes[name]
            assert [b.name for b in mux.inputs] == \
                [b.name for b in loaded_mux.inputs]

    def test_instruction_set_data_survives(self):
        loaded = load_core(dump_core(audio_core()))
        assert len(loaded.class_defs) == 9
        assert frozenset({"A", "D", "X", "G", "Y", "L", "M"}) in \
            loaded.instruction_types

    def test_compilation_on_loaded_core_is_identical(self):
        b = DfgBuilder("x")
        k = b.param("k", 0.5)
        s = b.state("s", depth=1)
        i = b.input("i")
        b.write(s, i)
        b.output("o", b.op("add_clip", b.op("mult", k, b.delay(s, 1)), i))
        dfg = b.build()

        original = Toolchain(fir_core(), cache=None).compile(dfg)
        loaded = Toolchain(load_core(dump_core(fir_core())), cache=None) \
            .compile(dfg)
        assert original.n_cycles == loaded.n_cycles
        assert original.binary.words == loaded.binary.words

        stimulus = {"i": [Q15.from_float(v) for v in (0.5, -0.25, 0.125)]}
        assert loaded.run(stimulus) == run_reference(dfg, stimulus)

    def test_unsupported_version_rejected(self):
        payload = core_to_dict(tiny_core())
        payload["format_version"] = 99
        with pytest.raises(ArchitectureError, match="version"):
            core_from_dict(payload)
