"""The pinned-corpus property suite (repro.gen.corpus).

The acceptance bar for the generator/fuzz subsystem: a pinned corpus of
``REPRO_CORPUS_COUNT`` (default 200) generated applications compiles at
every optimizer level — under ``verify="strict"``, so every stage
verifier and the machine-code lint run on every compile — and passes
differential simulation on every available engine with zero mismatches.
The count is env-overridable so local iteration can shrink it without
touching the test.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.gen import CORPUS_REPORT_VERSION, GenSpec, run_corpus

CORPUS_COUNT = int(os.environ.get("REPRO_CORPUS_COUNT", "200"))


@pytest.fixture(scope="module")
def corpus_report():
    return run_corpus(CORPUS_COUNT, seed=0, core="fir",
                      n_frames=6, n_lanes=3, verify="strict")


class TestPinnedCorpus:
    def test_zero_mismatches_across_levels_and_engines(self, corpus_report):
        assert corpus_report.ok, corpus_report.failures
        assert corpus_report.mismatches == 0
        assert corpus_report.count == CORPUS_COUNT

    def test_every_level_compiled_the_whole_corpus(self, corpus_report):
        assert set(corpus_report.compile_stats) == {0, 1, 2}
        for stats in corpus_report.compile_stats.values():
            assert stats["seconds"] > 0
            assert stats["cycles_total"] > 0

    def test_every_engine_simulated_every_lane_frame(self, corpus_report):
        expected = CORPUS_COUNT * 3 * 6
        for engine, stats in corpus_report.sim_stats.items():
            assert stats["lane_frames"] == expected, engine

    def test_report_serializes(self, corpus_report, tmp_path):
        path = corpus_report.write(tmp_path / "BENCH_corpus.json")
        payload = json.loads(path.read_text())
        assert payload["version"] == CORPUS_REPORT_VERSION
        assert payload["core"] == "fir"
        assert payload["mismatches"] == 0
        assert set(payload["compile"]) == {"O0", "O1", "O2"}
        assert payload["attempts"] >= payload["count"]
        assert payload["spec"]["max_ops"] == GenSpec().max_ops


class TestSmallCorpus:
    def test_audio_core_corpus_is_clean(self):
        report = run_corpus(10, seed=0, core="audio",
                            n_frames=4, n_lanes=2)
        assert report.ok, report.failures

    def test_engine_subset(self):
        report = run_corpus(5, seed=0, core="fir", engines=("decoded",),
                            n_frames=4, n_lanes=2)
        assert report.ok
        assert set(report.sim_stats) == {"decoded"}
