"""Tests for ``tools/check_profile_regression.py`` — the CI guard
comparing per-stage compile-profile shares against the committed
baseline."""

import importlib.util
import json
from pathlib import Path


TOOL = (Path(__file__).resolve().parent.parent
        / "tools" / "check_profile_regression.py")
BASELINE = (Path(__file__).resolve().parent.parent
            / "benchmarks" / "compile_profile_baseline.json")

spec = importlib.util.spec_from_file_location("check_profile_regression",
                                              TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def regime(**p50s):
    """A profile regime dict from stage -> p50 seconds."""
    total = sum(p50s.values())
    out = {stage: {"n": 5, "p50": p50, "p95": p50, "mean": p50}
           for stage, p50 in p50s.items()}
    out["total"] = {"n": 5, "p50": total, "p95": total, "mean": total}
    return out


def record(warm_scale=0.1, cached_scale=1.2, **p50s):
    """A profile record whose warm and cached-cold regimes are
    ``warm_scale`` and ``cached_scale`` times the cold one, stage by
    stage (same shares)."""
    warm = {stage: p50 * warm_scale for stage, p50 in p50s.items()}
    cached = {stage: p50 * cached_scale for stage, p50 in p50s.items()}
    return {"application": "x", "core": "audio", "runs": 5,
            "stages": [s for s in p50s],
            "cold": regime(**p50s), "cached_cold": regime(**cached),
            "warm": regime(**warm)}


class TestShares:
    def test_shares_normalize_by_total(self):
        shares = tool.shares(regime(a=0.010, b=0.030))
        assert shares == {"a": 0.25, "b": 0.75}
        assert "total" not in shares

    def test_zero_total_yields_nothing(self):
        assert tool.shares(regime(a=0.0)) == {}


class TestCheckRegime:
    def test_within_ratio_passes(self):
        problems, notes = [], []
        tool.check_regime("cold", regime(a=0.010, b=0.010),
                          regime(a=0.012, b=0.008),
                          3.0, 0.002, problems, notes)
        assert problems == [] and notes == []

    def test_share_growth_beyond_ratio_fails(self):
        problems, notes = [], []
        # a: 10% of total -> 50% of total = 5x share growth.
        tool.check_regime("cold", regime(a=0.050, b=0.050),
                          regime(a=0.010, b=0.090),
                          3.0, 0.002, problems, notes)
        assert len(problems) == 1
        assert "'a'" in problems[0] and "cold" in problems[0]

    def test_sub_floor_stages_never_fail(self):
        problems, notes = [], []
        # Same 5x share growth, but at 0.1 ms absolute: noise.
        tool.check_regime("cold", regime(a=0.0001, b=0.0001),
                          regime(a=0.00002, b=0.00018),
                          3.0, 0.002, problems, notes)
        assert problems == []

    def test_new_stage_is_a_note_not_a_failure(self):
        problems, notes = [], []
        tool.check_regime("cold", regime(a=0.010, new=0.010),
                          regime(a=0.010),
                          3.0, 0.002, problems, notes)
        assert problems == []
        assert len(notes) == 1 and "'new'" in notes[0]


class TestWarmRatio:
    def test_ratio_at_the_limit_passes(self):
        problems = []
        tool.check_warm_ratio(record(warm_scale=0.25, a=0.010), 0.25,
                              problems)
        assert problems == []

    def test_ratio_above_the_limit_fails(self):
        problems = []
        tool.check_warm_ratio(record(warm_scale=5.8, a=0.010), 0.25,
                              problems)
        assert len(problems) == 1
        assert "5.80x" in problems[0] and "limit 0.25x" in problems[0]

    def test_zero_cold_total_is_skipped(self):
        problems = []
        tool.check_warm_ratio(record(a=0.0), 0.25, problems)
        assert problems == []


class TestCachedColdRatio:
    def test_ratio_within_the_limit_passes(self):
        problems = []
        tool.check_cached_cold_ratio(record(cached_scale=1.44, a=0.010),
                                     1.8, problems)
        assert problems == []

    def test_the_single_snapshot_ratio_fails(self):
        """2.15x is what pickling every stage's cumulative state cost
        the audio application."""
        problems = []
        tool.check_cached_cold_ratio(record(cached_scale=2.15, a=0.010),
                                     tool.MAX_CACHED_COLD_RATIO, problems)
        assert len(problems) == 1
        assert "2.15x" in problems[0] and "limit 1.65x" in problems[0]

    def test_the_per_stage_entry_ratio_fails(self):
        """1.74x is what one envelope per stage cost the compile_mix
        applications before each key run stored one pack."""
        problems = []
        tool.check_cached_cold_ratio(record(cached_scale=1.74, a=0.010),
                                     tool.MAX_CACHED_COLD_RATIO, problems)
        assert len(problems) == 1

    def test_zero_cold_total_is_skipped(self):
        problems = []
        tool.check_cached_cold_ratio(record(a=0.0), 1.8, problems)
        assert problems == []


class TestMain:
    def write(self, tmp_path, name, rec):
        path = tmp_path / name
        path.write_text(json.dumps(rec))
        return str(path)

    def test_identical_profiles_pass(self, tmp_path, capsys):
        current = self.write(tmp_path, "current.json",
                             record(a=0.010, b=0.020))
        base = self.write(tmp_path, "base.json", record(a=0.010, b=0.020))
        assert tool.main(["prog", current, "--baseline", base]) == 0
        assert "profile shares ok" in capsys.readouterr().out

    def test_regression_fails_with_report(self, tmp_path, capsys):
        current = self.write(tmp_path, "current.json",
                             record(a=0.090, b=0.010))
        base = self.write(tmp_path, "base.json", record(a=0.010, b=0.090))
        assert tool.main(["prog", current, "--baseline", base]) == 1
        out = capsys.readouterr().out
        assert "regression" in out and "'a'" in out

    def test_warm_slower_than_a_quarter_of_cold_fails(self, tmp_path,
                                                      capsys):
        # Identical shares, so only the regime ratio can fail.
        current = self.write(tmp_path, "current.json",
                             record(warm_scale=0.3, a=0.010, b=0.020))
        base = self.write(tmp_path, "base.json", record(a=0.010, b=0.020))
        assert tool.main(["prog", current, "--baseline", base]) == 1
        out = capsys.readouterr().out
        assert "warm total p50" in out and "0.30x" in out

    def test_slow_first_cached_compile_fails(self, tmp_path, capsys):
        current = self.write(tmp_path, "current.json",
                             record(cached_scale=2.15, a=0.010, b=0.020))
        base = self.write(tmp_path, "base.json", record(a=0.010, b=0.020))
        assert tool.main(["prog", current, "--baseline", base]) == 1
        out = capsys.readouterr().out
        assert "cached-cold total p50" in out and "2.15x" in out

    def test_committed_baseline_is_a_valid_record(self):
        """The baseline CI compares against must itself be a complete
        profile record for the audio application."""
        from repro.pipeline import STAGE_NAMES

        rec = json.loads(BASELINE.read_text())
        assert rec["core"] == "audio"
        assert rec["stages"] == list(STAGE_NAMES)
        for reg in ("cold", "cached_cold", "warm"):
            assert set(rec[reg]) == set(STAGE_NAMES) | {"total"}
            assert rec[reg]["total"]["p50"] > 0