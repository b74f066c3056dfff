"""Error-path audit for :func:`repro.arch.simulate_points`.

The happy path is covered by the explore tests; this module pins the
contract on the ways a candidate can fail: infeasible exploration
points (carried failures), per-point compile errors, and simulation
errors, each of which fails only its own candidate rather than the
whole sweep.  Candidates that differ only in ROM length must each run
on their own batch.
"""

from __future__ import annotations

import importlib

import pytest

from repro import CompileOptions, run_reference, simulate_points
from repro.apps import fir_application
from repro.arch import Allocation, ExplorationPoint, SweepSpec, explore
from repro.errors import ReproError
from repro.lang import parse_source
from repro.sim import NUMPY_AVAILABLE, PlanError
from repro.sim import batch as batch_module
from stream_helpers import random_streams

# The package re-exports the explore *function* under the same name as
# its defining module; reach the module itself for monkeypatching.
explore_module = importlib.import_module("repro.arch.explore")

GAIN = """
app gain;
param g = 0.5;
input i; output o;
loop { o = mlt(g, i); }
"""

OPTIONS = CompileOptions(disk_cache=False)

BATCH_ENGINES = ["auto"] + (["numpy"] if NUMPY_AVAILABLE else [])


@pytest.fixture(scope="module")
def gain_dfg():
    return parse_source(GAIN)


@pytest.fixture(scope="module")
def gain_points(gain_dfg):
    points = explore([gain_dfg], [Allocation(), Allocation(n_alu=2)],
                     options=OPTIONS)
    assert all(point.feasible for point in points)
    return points


def lanes_for(dfg, n_lanes=3, n_frames=5):
    return [random_streams(dfg, n=n_frames, seed=70 + lane)
            for lane in range(n_lanes)]


class TestHappyPaths:
    def test_list_stimuli_match_reference(self, gain_dfg, gain_points):
        lanes = lanes_for(gain_dfg)
        results = simulate_points(gain_dfg, gain_points, lanes,
                                  options=OPTIONS, n_frames=5)
        assert [r.ok for r in results] == [True, True]
        expected = [run_reference(gain_dfg, lane, 5) for lane in lanes]
        for result in results:
            assert result.outputs == expected

    def test_dict_stimulus_equals_single_lane_list(self, gain_dfg,
                                                   gain_points):
        shared = random_streams(gain_dfg, n=5, seed=3)
        via_dict = simulate_points(gain_dfg, gain_points, shared,
                                   options=OPTIONS, n_frames=5)
        via_list = simulate_points(gain_dfg, gain_points, [shared],
                                   options=OPTIONS, n_frames=5)
        assert [r.outputs for r in via_dict] == [r.outputs for r in via_list]


class TestInfeasiblePoints:
    def test_carried_failures_short_circuit(self, gain_dfg, gain_points):
        bad = ExplorationPoint(
            allocation=Allocation(), schedule_lengths={}, n_opus=0,
            failures={"gain": "rf_alu_p0 overflows", "other": "no route"})
        results = simulate_points(gain_dfg, [bad],
                                  lanes_for(gain_dfg), options=OPTIONS)
        assert len(results) == 1
        assert not results[0].ok
        assert results[0].outputs == []
        # Deterministic, sorted, app-labelled summary of every failure.
        assert results[0].failure == \
            "gain: rf_alu_p0 overflows; other: no route"

    def test_mixed_feasible_and_infeasible_keep_order(self, gain_dfg,
                                                      gain_points):
        bad = ExplorationPoint(
            allocation=Allocation(), schedule_lengths={}, n_opus=0,
            failures={"gain": "infeasible"})
        results = simulate_points(
            gain_dfg, [gain_points[0], bad, gain_points[1]],
            lanes_for(gain_dfg), options=OPTIONS, n_frames=5)
        assert [r.ok for r in results] == [True, False, True]
        assert results[0].outputs == results[2].outputs


class TestCompileFailures:
    def test_one_bad_candidate_does_not_sink_the_rest(
            self, gain_dfg, gain_points, monkeypatch):
        real = explore_module.intermediate_architecture
        poison = gain_points[1].allocation

        def flaky(dfgs, allocation=None, **kwargs):
            if allocation == poison:
                raise ReproError("synthetic core-synthesis failure")
            return real(dfgs, allocation, **kwargs)

        monkeypatch.setattr(explore_module,
                            "intermediate_architecture", flaky)
        results = simulate_points(gain_dfg, gain_points,
                                  lanes_for(gain_dfg), options=OPTIONS,
                                  n_frames=5)
        assert results[0].ok
        assert not results[1].ok
        assert "synthetic core-synthesis failure" in results[1].failure
        assert results[1].outputs == []


class TestRomSizeSweep:
    """A ``rom_sizes`` axis gives candidates with the same program and
    ROMs of different lengths; each must run on its own batch."""

    ROM_SIZES = (16, 24, 32, 48, 64, 96, 128, 256)

    @pytest.fixture(scope="class")
    def fir_sweep(self):
        dfg = fir_application([0.1, 0.2, 0.3, 0.1])
        spec = SweepSpec(rom_sizes=self.ROM_SIZES)
        points = explore([dfg], spec.allocations(), options=OPTIONS)
        assert all(point.feasible for point in points)
        return dfg, points

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_dict_stimulus_matches_reference(self, fir_sweep, engine):
        dfg, points = fir_sweep
        shared = random_streams(dfg, n=6, seed=18)
        results = simulate_points(dfg, points, shared, options=OPTIONS,
                                  n_frames=6, engine=engine)
        assert len(results) == len(self.ROM_SIZES)
        expected = [run_reference(dfg, shared, 6)]
        for result in results:
            assert result.ok, result.failure
            assert result.outputs == expected


class TestSimulationFailures:
    """A simulation error is the failing candidate's alone."""

    def poison_second_candidate(self, monkeypatch, error):
        real = batch_module.run_batch
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(batch_module, "run_batch", flaky)
        return calls

    def test_plan_error_fails_only_its_candidate(self, gain_dfg,
                                                 gain_points, monkeypatch):
        calls = self.poison_second_candidate(
            monkeypatch, PlanError("undecodable image"))
        shared = random_streams(gain_dfg, n=5, seed=9)
        points = [gain_points[0], gain_points[1], gain_points[0]]
        results = simulate_points(gain_dfg, points, shared,
                                  options=OPTIONS, n_frames=5)
        assert calls["n"] == 3
        assert [r.ok for r in results] == [True, False, True]
        assert "PlanError: undecodable image" in results[1].failure
        assert results[1].outputs == []
        expected = [run_reference(gain_dfg, shared, 5)]
        assert results[0].outputs == results[2].outputs == expected

    def test_list_stimuli_error_fails_only_its_candidate(self, gain_dfg,
                                                         gain_points,
                                                         monkeypatch):
        calls = self.poison_second_candidate(
            monkeypatch, ReproError("mid-batch failure"))
        lanes = lanes_for(gain_dfg)
        points = [gain_points[0], gain_points[1], gain_points[0]]
        results = simulate_points(gain_dfg, points, lanes,
                                  options=OPTIONS, n_frames=5)
        assert calls["n"] == 3
        assert [r.ok for r in results] == [True, False, True]
        assert "mid-batch failure" in results[1].failure
        assert results[1].outputs == []
        expected = [run_reference(gain_dfg, lane, 5) for lane in lanes]
        assert results[0].outputs == results[2].outputs == expected

    def test_persistent_error_is_recorded_not_raised(self, gain_dfg,
                                                     gain_points,
                                                     monkeypatch):
        def always(*args, **kwargs):
            raise ReproError("engine is on fire")

        monkeypatch.setattr(batch_module, "run_batch", always)
        results = simulate_points(gain_dfg, gain_points,
                                  lanes_for(gain_dfg), options=OPTIONS,
                                  n_frames=5)
        assert [r.ok for r in results] == [False, False]
        for result in results:
            assert "engine is on fire" in result.failure
