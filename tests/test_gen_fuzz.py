"""Tests for the differential fuzz harness (repro.gen.fuzz + shrink).

The harness cannot be trusted on green runs alone, so the suite plants
an artificial defect (``inject="mult"`` corrupts the compiled image on
graphs containing a ``mult``) and proves the full chain — detection,
seed replay, greedy shrinking — end to end.  With the lint oracle on
(the default) the planted defect must be caught *without simulating*;
with ``lint=False`` the legacy decoded-engine perturbation covers the
differential path.
"""

from __future__ import annotations

import pytest

from repro import Telemetry, use_telemetry
from repro.errors import ReproError
from repro.gen import (
    FuzzConfig,
    FuzzReport,
    GenSpec,
    available_engines,
    fuzz,
    generate_dfg,
    run_case,
    shrink_dfg,
)
from repro.lang.dfg import NodeKind
from repro.lang.parser import parse_source

#: Keep planted-defect campaigns cheap: small graphs, few shrink steps.
SMALL = GenSpec(max_ops=8)


class TestRunCase:
    def test_clean_case_is_ok_on_every_engine(self):
        dfg = generate_dfg(SMALL, 1, core="fir")
        result = run_case(dfg, "fir", stimulus_seed=1)
        assert result.status == "ok"
        assert result.levels_compiled

    def test_unroutable_graph_is_infeasible(self):
        # audio has no 'sub' OPU: a sub-only graph cannot route there.
        spec = GenSpec(ops=(("sub", 2),), constant_density=0.0,
                       mult_coefficient_bias=0.0)
        dfg = generate_dfg(spec, 0)
        result = run_case(dfg, "audio", stimulus_seed=0)
        assert result.status == "infeasible"
        assert not result.levels_compiled

    def test_engine_subset_is_honored(self):
        dfg = generate_dfg(SMALL, 2, core="fir")
        result = run_case(dfg, "fir", engines=("decoded",), stimulus_seed=2)
        assert result.status == "ok"

    def test_injected_defect_names_the_decoded_engine(self):
        spec = GenSpec(ops=(("mult", 2),), min_ops=1, max_ops=2)
        dfg = generate_dfg(spec, 0, core="fir")
        result = run_case(dfg, "fir", stimulus_seed=0, inject="mult",
                          lint=False)
        assert result.status == "mismatch"
        assert "decoded" in result.detail

    def test_inject_without_the_op_is_harmless(self):
        spec = GenSpec(ops=(("add", 2),), constant_density=0.0,
                       mult_coefficient_bias=0.0)
        dfg = generate_dfg(spec, 0, core="fir")
        assert run_case(dfg, "fir", stimulus_seed=0,
                        inject="mult").status == "ok"


class TestFuzzCampaign:
    def test_clean_campaign_reports_shape(self):
        report = fuzz(FuzzConfig(core="fir", seed=0, count=6, spec=SMALL))
        assert isinstance(report, FuzzReport)
        assert report.ok
        assert report.n_cases == 6
        assert report.n_ok + report.n_infeasible == 6
        payload = report.to_dict()
        assert payload["core"] == "fir"
        assert payload["n_failures"] == 0
        assert payload["levels"] == [0, 1, 2]
        assert set(payload["engines"]) == set(available_engines())
        assert payload["spec"]["max_ops"] == SMALL.max_ops

    def test_level_gap_is_counted_not_failed(self):
        # fir seed 22 compiles at -O0 only: a level gap, still ok.
        report = fuzz(FuzzConfig(core="fir", seed=22, count=1))
        assert (report.n_ok, report.n_level_gaps) == (1, 1)
        assert report.ok
        assert report.to_dict()["n_level_gaps"] == 1

    def test_no_gap_without_a_higher_level_requested(self):
        report = fuzz(FuzzConfig(core="fir", seed=22, count=1, levels=(0,)))
        assert (report.n_ok, report.n_level_gaps) == (1, 0)

    def test_campaign_needs_a_budget(self):
        with pytest.raises(ReproError, match="count or a time budget"):
            fuzz(FuzzConfig(count=None, time_budget=None))

    def test_time_budget_runs_at_least_one_case(self):
        report = fuzz(FuzzConfig(core="fir", count=None, time_budget=1e-6,
                                 spec=SMALL))
        assert report.n_cases == 1

    def test_telemetry_counts_cases(self):
        obs = Telemetry()
        with use_telemetry(obs):
            fuzz(FuzzConfig(core="fir", seed=0, count=3, spec=SMALL))
        assert obs.counters.get("fuzz.cases") == 3

    def test_progress_callback_sees_every_case(self):
        seen = []
        fuzz(FuzzConfig(core="fir", seed=5, count=4, spec=SMALL),
             progress=seen.append)
        assert [record["done"] for record in seen] == [1, 2, 3, 4]
        assert [record["seed"] for record in seen] == [5, 6, 7, 8]


class TestInjectedFailure:
    CONFIG = FuzzConfig(core="fir", seed=0, count=6, spec=SMALL,
                        inject="mult", shrink_attempts=80, lint=False)

    def test_detected_shrunk_and_replayable(self):
        report = fuzz(self.CONFIG)
        assert not report.ok
        failure = report.failures[0]
        assert failure.status == "mismatch"
        assert "decoded" in failure.detail

        # Shrinking kept the graph failing, smaller, and well-formed:
        # the minimal graph must still contain the trigger operation.
        assert failure.shrunk_nodes <= failure.n_nodes
        shrunk = parse_source(failure.shrunk_source)
        shrunk.validate()
        assert any(node.kind is NodeKind.OP and node.name == "mult"
                   for node in shrunk.nodes)

        # Replay contract: a count=1 campaign at the case seed
        # reproduces the identical finding.
        replay = fuzz(FuzzConfig(core="fir", seed=failure.seed, count=1,
                                 spec=SMALL, inject="mult",
                                 shrink_attempts=80, lint=False))
        assert len(replay.failures) == 1
        assert replay.failures[0].detail == failure.detail
        assert replay.failures[0].shrunk_source == failure.shrunk_source

    def test_campaign_is_deterministic(self):
        first, second = fuzz(self.CONFIG), fuzz(self.CONFIG)
        assert ([f.to_dict() for f in first.failures]
                == [f.to_dict() for f in second.failures])

    def test_no_shrink_leaves_failures_unminimized(self):
        report = fuzz(FuzzConfig(core="fir", seed=0, count=6, spec=SMALL,
                                 inject="mult", shrink=False, lint=False))
        assert not report.ok
        assert all(f.shrunk_source is None for f in report.failures)


class TestLintOracle:
    """The simulation-free third oracle (``repro.analyze.lint_program``)."""

    def test_planted_defect_caught_without_simulation(self):
        spec = GenSpec(ops=(("mult", 2),), min_ops=1, max_ops=2)
        dfg = generate_dfg(spec, 0, core="fir")
        result = run_case(dfg, "fir", stimulus_seed=0, inject="mult")
        assert result.status == "lint"
        assert result.failed
        assert "without simulation" in result.detail
        assert "mc.bus-hazard" in result.detail

    def test_lint_campaign_flags_planted_defects(self):
        report = fuzz(FuzzConfig(core="fir", seed=0, count=6, spec=SMALL,
                                 inject="mult", shrink=False))
        assert not report.ok
        assert report.failures
        assert all(f.status == "lint" for f in report.failures)

    def test_clean_campaign_with_lint_oracle_is_green(self):
        report = fuzz(FuzzConfig(core="fir", seed=11, count=6, spec=SMALL))
        assert report.ok

    def test_lint_false_restores_differential_only_harness(self):
        spec = GenSpec(ops=(("mult", 2),), min_ops=1, max_ops=2)
        dfg = generate_dfg(spec, 0, core="fir")
        result = run_case(dfg, "fir", stimulus_seed=0, inject="mult",
                          lint=False)
        assert result.status == "mismatch"


class TestShrinker:
    def test_shrinks_to_a_minimal_failing_graph(self):
        dfg = generate_dfg(GenSpec(min_ops=10, max_ops=14), 3, core="fir")

        def still_fails(candidate):
            return any(node.kind is NodeKind.OP and node.name == "mult"
                       for node in candidate.nodes)

        if not still_fails(dfg):
            pytest.skip("seed 3 grew no mult; adjust the seed")
        shrunk = shrink_dfg(dfg, still_fails)
        shrunk.validate()
        assert len(shrunk.nodes) < len(dfg.nodes)
        assert still_fails(shrunk)

    def test_never_accepts_a_passing_candidate(self):
        dfg = generate_dfg(GenSpec(), 4, core="fir")
        shrunk = shrink_dfg(dfg, lambda candidate: False)
        assert shrunk is dfg

    def test_attempt_budget_is_respected(self):
        dfg = generate_dfg(GenSpec(min_ops=12, max_ops=14), 6, core="fir")
        calls = []

        def predicate(candidate):
            calls.append(candidate)
            return True

        shrink_dfg(dfg, predicate, max_attempts=3)
        assert len(calls) <= 3
