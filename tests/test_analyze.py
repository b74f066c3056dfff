"""Tests for the static-analysis package (repro.analyze).

Two angles:

* **Adversarial** — hand-corrupt one artifact of a known-good compile
  per invariant class and assert the exact diagnostic code.  A verifier
  that only ever sees healthy artifacts proves nothing.
* **Green-path** — every builtin application at every optimizer level
  must compile under ``verify="strict"`` and come out finding-free;
  the ``verify=`` knob must not disturb cache fingerprints.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Telemetry
from repro.analyze import (
    CHECK_CODES,
    Finding,
    Severity,
    VerificationError,
    enforce,
    error,
    lint_program,
    verify_allocation,
    verify_dfg,
    verify_schedule,
    verify_state,
    warning,
)
from repro.apps import (
    audio_application,
    channel_frontend_application,
    fir_application,
    lms_application,
    stress_application,
)
from repro.arch import audio_core, datapath_findings, fir_datapath
from repro.errors import OptionsError
from repro.options import SEMANTIC_FIELDS, CompileOptions
from repro.sched.regalloc import compute_intervals
from repro.sim.batch import SEM_ROM_READ, decode_program
from repro.toolchain import Toolchain

#: Builtin application -> its natural core (the pairing the app suites
#: compile against).
APPLICATIONS = {
    "audio": (audio_application, "audio"),
    "fir": (lambda: fir_application([0.05 * (k + 1) for k in range(4)]),
            "fir"),
    "lms": (lambda: lms_application(n_taps=2), "adaptive"),
    "stress": (lambda: stress_application(6), "audio"),
    "channel": (channel_frontend_application, "fir"),
}


@pytest.fixture(scope="module")
def audio_state():
    """One healthy audio compile whose artifacts the corruption tests
    copy and damage."""
    toolchain = Toolchain("audio", cache=None)
    return toolchain.run_pipeline(audio_application())


def codes(findings) -> set[str]:
    return {f.code for f in findings}


class TestFindingSchema:
    def test_render_and_dict_round_trip(self):
        finding = error("mc.oob", "index 9 of an 8-word memory",
                        "word 3", "a corrupted field")
        assert finding.is_error
        assert finding.render() == ("error: mc.oob [word 3]: index 9 of "
                                    "an 8-word memory "
                                    "(hint: a corrupted field)")
        payload = finding.to_dict()
        assert payload["severity"] == "error"
        assert payload["code"] == "mc.oob"
        assert payload["location"] == "word 3"

    def test_warning_is_not_an_error(self):
        finding = warning("mc.unreachable", "word 7 is dead")
        assert not finding.is_error
        assert finding.severity is Severity.WARNING
        assert finding.render().startswith("warning: mc.unreachable")

    def test_enforce_raises_on_errors_with_findings_attached(self):
        findings = [warning("mc.dead-write", "w"),
                    error("mc.oob", "boom")]
        with pytest.raises(VerificationError) as exc:
            enforce(findings, "after stage 'assemble'")
        assert "mc.oob" in str(exc.value)
        assert findings[1] in exc.value.findings

    def test_enforce_tolerates_warnings(self):
        enforce([warning("mc.unreachable", "w")], "ctx")
        enforce([], "ctx")

    def test_every_code_is_registered(self):
        # Constructors refuse unknown codes, so one representative is
        # enough to prove the registry gate is live.
        with pytest.raises(ValueError, match="unknown check code"):
            error("mc.not-a-code", "nope")
        for code in CHECK_CODES:
            prefix = code.split(".", 1)[0]
            assert prefix in {"dfg", "rt", "sched", "regalloc", "arch", "mc"}


class TestAdversarialCorruption:
    """Six artifact classes, one hand-planted defect each."""

    def test_dfg_edge_cycle(self, audio_state):
        dfg = audio_state.artifacts["dfg"]
        op = next(n for n in dfg.nodes if n.kind.name == "OP")
        nodes = list(dfg.nodes)
        nodes[op.id] = dataclasses.replace(op, args=(op.id,) + op.args[1:])
        dfg = dataclasses.replace(dfg, nodes=nodes)
        assert "dfg.edge-cycle" in codes(verify_dfg(dfg))

    def test_schedule_double_booked_opu(self, audio_state):
        art = audio_state.artifacts
        schedule = art["schedule"]
        by_resource: dict[str, list] = {}
        for rt, cycle in schedule.cycle_of.items():
            for use in rt.uses:
                by_resource.setdefault(use.resource, []).append((rt, use))
        pair = next(
            (first[0], second[0])
            for users in by_resource.values()
            for i, first in enumerate(users)
            for second in users[i + 1:]
            if first[0] is not second[0] and first[1].usage != second[1].usage)
        cycle_of = dict(schedule.cycle_of)
        cycle_of[pair[1]] = cycle_of[pair[0]]
        corrupted = dataclasses.replace(schedule, cycle_of=cycle_of)
        found = verify_schedule(art["program"], corrupted,
                                art["dependence_graph"])
        assert "sched.double-booking" in codes(found)

    def test_allocation_overlapping_live_ranges(self, audio_state):
        art = audio_state.artifacts
        program, schedule = art["program"], art["schedule"]
        allocation = art["allocation"]
        intervals = compute_intervals(program, schedule)
        rf_name, first, second = next(
            (rf, a, b)
            for rf, file_intervals in intervals.items()
            for a in file_intervals
            for b in file_intervals
            if a is not b
            and b.birth < a.death and a.birth < b.death
            and allocation.register_of.get((rf, a.value)) is not None
            and allocation.register_of.get((rf, b.value)) is not None
            and allocation.register_of[(rf, a.value)]
            != allocation.register_of[(rf, b.value)])
        register_of = dict(allocation.register_of)
        register_of[(rf_name, second.value)] = \
            register_of[(rf_name, first.value)]
        corrupted = dataclasses.replace(allocation, register_of=register_of)
        found = verify_allocation(program, schedule, corrupted)
        assert "regalloc.overlap" in codes(found)

    def test_image_clobbered_in_flight_destination(self, audio_state):
        binary = audio_state.artifacts["binary"]
        fmt = binary.format
        victim = next(rf for rf in
                      binary.core.datapath.register_files.values()
                      if rf.writers)
        fields = fmt.decode(binary.words[0])
        fields[f"{victim.name}.wr_en"] = 1
        words = list(binary.words)
        words[0] = fmt.encode(fields)
        corrupted = dataclasses.replace(binary, words=words)
        assert "mc.bus-hazard" in codes(lint_program(corrupted))

    def test_image_oob_rom_index(self):
        # rf_scale=3 gives rf_rom_addr 12 registers behind a 4-bit
        # address field, so index 15 encodes but is out of bounds.
        core = audio_core(rf_scale=3)
        state = Toolchain(core, cache=None).run_pipeline(audio_application())
        binary = state.artifacts["binary"]
        plan = decode_program(binary)
        rom_word = next(word.index for word in plan.words
                        for op in word.ops if op.sem == SEM_ROM_READ)
        fmt = binary.format
        fields = fmt.decode(binary.words[rom_word])
        fields["rom.p0.addr"] = 15
        words = list(binary.words)
        words[rom_word] = fmt.encode(fields)
        corrupted = dataclasses.replace(binary, words=words)
        oob = [f for f in lint_program(corrupted) if f.code == "mc.oob"]
        assert oob and "rf_rom_addr[15]" in oob[0].message

    def test_image_unreachable_word(self, audio_state):
        from repro.arch.controller import CtrlOp
        from repro.encode.fields import CTRL_OPCODES

        # An inert word (word 0's empty body, ctrl CONT) appended past
        # the closing jump decodes fine but can never execute.
        binary = audio_state.artifacts["binary"]
        fmt = binary.format
        fields = fmt.decode(binary.words[0])
        fields["ctrl.op"] = CTRL_OPCODES[CtrlOp.CONT]
        corrupted = dataclasses.replace(
            binary, words=list(binary.words) + [fmt.encode(fields)])
        unreachable = [f for f in lint_program(corrupted)
                       if f.code == "mc.unreachable"]
        assert unreachable
        assert not unreachable[0].is_error

    def test_clean_artifacts_produce_no_findings(self, audio_state):
        assert verify_state(audio_state) == []


class TestStrictPipeline:
    """verify="strict" holds on every builtin app at every level."""

    @pytest.mark.parametrize("app_name", sorted(APPLICATIONS))
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_builtin_app_is_finding_free(self, app_name, level):
        factory, core = APPLICATIONS[app_name]
        toolchain = Toolchain(core, cache=None, opt=level, verify="strict")
        state = toolchain.run_pipeline(factory())
        assert verify_state(state) == []

    def test_boundary_counters(self):
        for level_name, expected in (("strict", 6), ("boundaries", 5)):
            obs = Telemetry()
            toolchain = Toolchain("audio", cache=None, verify=level_name,
                                  telemetry=obs)
            toolchain.run_pipeline(audio_application())
            assert obs.counters["verify.checks"] == expected
            assert obs.counters.get("verify.findings", 0) == 0

    def test_off_runs_no_checks(self):
        obs = Telemetry()
        toolchain = Toolchain("audio", cache=None, telemetry=obs)
        toolchain.run_pipeline(audio_application())
        assert "verify.checks" not in obs.counters

    def test_verify_does_not_change_fingerprints(self):
        assert "verify" not in SEMANTIC_FIELDS
        assert (CompileOptions().fingerprint()
                == CompileOptions(verify="strict").fingerprint())

    def test_unknown_verify_level_is_rejected(self):
        with pytest.raises(OptionsError, match="verify"):
            CompileOptions(verify="paranoid")


class TestDatapathFindings:
    def test_healthy_datapath_has_no_errors(self):
        findings = datapath_findings(fir_datapath())
        assert all(not f.is_error for f in findings)
        assert all(isinstance(f, Finding) and f.code.startswith("arch.")
                   for f in findings)
