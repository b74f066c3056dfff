"""Tests for ``repro.obs``: spans, counters, events, traces, profiles.

Everything here drives the instrumentation the way callers do — via
the :class:`Toolchain` facade and the CLI — and asserts on the
recorded telemetry, not on implementation internals.
"""

import json
import threading

import pytest

from repro import (
    CompileOptions,
    Telemetry,
    Toolchain,
    use_telemetry,
)
from repro.apps import fir_application
from repro.arch import Allocation
from repro.cli import main
from repro.obs import (
    COUNTERS,
    NULL_SPAN,
    chrome_trace,
    current_telemetry,
    profile_compile,
    render_profile,
    set_telemetry,
    write_chrome_trace,
    write_profile,
)
from repro.obs.profile import percentile
from repro.pipeline import STAGE_NAMES, DiskCache, StageCache
from repro.report import timeline

GAIN = """
app gain;
param g = 0.5;
input i; output o;
loop { o = mlt(g, i); }
"""


@pytest.fixture(autouse=True)
def _null_registry():
    """Every test starts and ends with the process-wide null default."""
    set_telemetry(None)
    yield
    set_telemetry(None)


def compile_with(obs, **toolchain_kwargs):
    toolchain = Toolchain("audio", CompileOptions(disk_cache=False),
                          telemetry=obs, **toolchain_kwargs)
    toolchain.compile(GAIN)
    return toolchain


class TestSpanTree:
    def test_compile_records_one_span_per_stage(self):
        obs = Telemetry()
        compile_with(obs)
        (root,) = obs.roots
        assert root.name == "compile"
        assert root.tags["core"] == "audio"
        names = [child.name for child in root.children]
        assert names == [f"stage:{s}" for s in STAGE_NAMES]
        for child in root.children:
            assert child.tags["cache_source"] == "executed"
            assert len(child.tags["fingerprint"]) == 16
            assert child.duration > 0.0

    def test_stage_spans_account_for_the_compile(self):
        """The stage slots cover lookup + restore/execute + store: the
        children's total duration is close to the root's."""
        obs = Telemetry()
        compile_with(obs)
        (root,) = obs.roots
        covered = sum(child.duration for child in root.children)
        assert covered >= 0.8 * root.duration

    def test_batch_second_app_restores_from_memory(self):
        obs = Telemetry()
        toolchain = Toolchain("audio", CompileOptions(disk_cache=False),
                              telemetry=obs)
        result = toolchain.compile_many([GAIN, GAIN])
        assert [e.error for e in result.entries] == [None, None]
        (batch,) = obs.roots
        assert batch.name == "batch"
        assert batch.tags["applications"] == 2
        first, second = batch.children
        assert first.name == second.name == "compile"
        assert all(c.tags["cache_source"] == "executed"
                   for c in first.children)
        assert all(c.tags["cache_source"] == "memory"
                   for c in second.children)
        # Identical source, identical chained fingerprints.
        assert [c.tags["fingerprint"] for c in first.children] == \
            [c.tags["fingerprint"] for c in second.children]

    def test_uncached_toolchain_still_records_stage_spans(self):
        obs = Telemetry()
        compile_with(obs, cache=None)
        (root,) = obs.roots
        assert [c.name for c in root.children] == \
            [f"stage:{s}" for s in STAGE_NAMES]
        assert all(c.tags["cache_source"] == "executed"
                   for c in root.children)

    def test_run_nests_simulate_under_run(self):
        obs = Telemetry()
        toolchain = Toolchain("audio", CompileOptions(disk_cache=False),
                              telemetry=obs)
        toolchain.run(GAIN, {"i": [100, 200]})
        (root,) = obs.roots
        assert root.name == "run"
        assert [c.name for c in root.children] == ["compile", "simulate"]

    def test_spans_nest_per_thread(self):
        """Concurrent threads each build their own well-formed tree."""
        obs = Telemetry()

        def one_tree(tag):
            with obs.span("outer", tag=tag):
                with obs.span("inner", tag=tag):
                    pass

        threads = [threading.Thread(target=one_tree, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(obs.roots) == 4
        for root in obs.roots:
            (inner,) = root.children
            assert inner.tags["tag"] == root.tags["tag"]

    def test_span_walk_and_to_dict(self):
        obs = Telemetry()
        with obs.span("a"):
            with obs.span("b"):
                pass
        (a,) = obs.roots
        assert [s.name for s in a.walk()] == ["a", "b"]
        rendered = a.to_dict()
        assert rendered["name"] == "a"
        assert rendered["children"][0]["name"] == "b"
        assert rendered["duration"] >= rendered["children"][0]["duration"]


class TestDisabledIsFree:
    def test_default_registry_is_disabled(self):
        obs = current_telemetry()
        assert not obs.enabled

    def test_disabled_span_is_the_shared_null_span(self):
        obs = Telemetry(enabled=False)
        assert obs.span("anything", tag=1) is NULL_SPAN
        assert obs.span("other") is NULL_SPAN  # no per-call allocation

    def test_disabled_registry_records_nothing(self):
        obs = Telemetry(enabled=False)
        with obs.span("x"):
            obs.count("stagecache.hit")
            obs.gauge("g", 1.0)
            obs.event("e", field=1)
        assert not obs.roots and not obs.counters
        assert not obs.gauges and not obs.events

    def test_compile_under_null_registry_leaves_no_trace(self):
        before = current_telemetry().to_dict()
        Toolchain("audio", CompileOptions(disk_cache=False)).compile(GAIN)
        assert current_telemetry().to_dict() == before
        assert before == {"spans": [], "counters": {}, "gauges": {},
                          "events": []}


class TestCounters:
    def test_every_emitted_counter_is_canonical(self):
        """A compile through both cache tiers only emits counters
        declared in ``COUNTERS`` (what the docs table is checked
        against)."""
        obs = Telemetry()
        compile_with(obs)
        compile_with(obs)
        assert set(obs.counters) <= set(COUNTERS)

    def test_stagecache_hit_miss_store(self):
        obs = Telemetry()
        toolchain = Toolchain("audio", CompileOptions(disk_cache=False),
                              telemetry=obs)
        toolchain.compile(GAIN)
        n = len(STAGE_NAMES)
        assert obs.counters["stagecache.miss"] == n
        assert obs.counters["stagecache.store"] == n
        assert "stagecache.hit" not in obs.counters
        toolchain.compile(GAIN)
        assert obs.counters["stagecache.hit"] == n
        assert "stagecache.disk_hit" not in obs.counters

    def test_disk_tier_counters(self, tmp_path):
        obs = Telemetry()
        with use_telemetry(obs):
            store = StageCache(disk=DiskCache(tmp_path))
            Toolchain("audio", CompileOptions(), cache=store).compile(GAIN)
            # A fresh memory tier over the same directory: every stage
            # restores from disk, reading three entries (parse,
            # optimize and the deepest snapshot).
            fresh = StageCache(disk=DiskCache(tmp_path))
            Toolchain("audio", CompileOptions(), cache=fresh).compile(GAIN)
        n = len(STAGE_NAMES)
        assert obs.counters["diskcache.store"] == n
        assert obs.counters["diskcache.hit"] == 3
        assert obs.counters["stagecache.disk_hit"] == n
        assert obs.counters["stagecache.hit"] == n

    def test_subsystem_counters_present(self):
        obs = Telemetry()
        compile_with(obs)
        for name in ("sched.list.attempts", "sched.regalloc.intervals",
                     "rtgen.values_routed"):
            assert obs.counters[name] >= 1, name


class TestDiskCacheWriteError:
    def test_write_errors_count_but_event_fires_once(self, tmp_path,
                                                     monkeypatch):
        cache = DiskCache(tmp_path)
        monkeypatch.setattr("repro.pipeline.diskcache.serialize",
                            lambda *a, **k: (_ for _ in ()).throw(
                                OSError("disk full")))
        obs = Telemetry()
        with use_telemetry(obs):
            cache.put("k1", {"a": 1})
            cache.put("k2", {"a": 2})
        assert cache.stats.write_errors == 2
        assert obs.counters["diskcache.write_error"] == 2
        warnings = [e for e in obs.events
                    if e["name"] == "diskcache.write_error"]
        assert len(warnings) == 1  # one structured warning, not a flood
        assert warnings[0]["level"] == "warning"
        assert "disk full" in warnings[0]["error"]

    def test_write_error_never_raises(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        monkeypatch.setattr("repro.pipeline.diskcache.serialize",
                            lambda *a, **k: (_ for _ in ()).throw(
                                OSError("nope")))
        cache.put("k", {"a": 1})  # degraded, silent under null registry


class TestEventsAndCallbacks:
    def test_on_event_sees_records_as_they_land(self):
        obs = Telemetry()
        seen = []
        obs.on_event(seen.append)
        obs.event("ping", value=1)
        obs.event("pong", value=2)
        assert [e["name"] for e in seen] == ["ping", "pong"]
        assert seen[0]["value"] == 1
        assert seen == obs.events

    def test_explore_progress_callback_and_counters(self):
        obs = Telemetry()
        toolchain = Toolchain("audio", CompileOptions(disk_cache=False),
                              cache=None, telemetry=obs)
        fir4 = fir_application([0.1, 0.2, 0.3, 0.4], name="fir4")
        candidates = [Allocation(n_mult=m, n_alu=1, n_ram=1)
                      for m in (1, 2)]
        records = []
        points = toolchain.explore([fir4], candidates,
                                   progress=records.append)
        assert len(points) == 2
        assert [r["done"] for r in records] == [1, 2]
        assert all(r["total"] == 2 for r in records)
        assert all(r["cached"] is False for r in records)
        assert obs.counters["explore.candidates"] == 2
        assert len([e for e in obs.events
                    if e["name"] == "explore.candidate"]) == 2
        (root,) = obs.roots
        assert root.name == "explore"

    def test_explore_pool_workers_report_their_counters(self):
        fir4 = fir_application([0.1, 0.2, 0.3, 0.4], name="fir4")
        candidates = [Allocation(n_mult=m, n_alu=a, n_ram=1)
                      for m in (1, 2) for a in (1, 2)]
        counters = {}
        for jobs in (1, 2):
            obs = Telemetry()
            toolchain = Toolchain("audio", CompileOptions(disk_cache=False),
                                  cache=None, telemetry=obs)
            toolchain.explore([fir4], candidates, jobs=jobs)
            counters[jobs] = obs.counters
        for name in ("sched.list.attempts", "rtgen.values_routed"):
            assert counters[1][name] > 0
            assert counters[2][name] == counters[1][name], name


class TestExports:
    def test_telemetry_to_dict_roundtrips_through_json(self):
        obs = Telemetry()
        compile_with(obs)
        record = json.loads(json.dumps(obs.to_dict()))
        assert [s["name"] for s in record["spans"]] == ["compile"]
        assert record["counters"]["stagecache.miss"] == len(STAGE_NAMES)

    def test_timeline_renders_spans_and_counters(self):
        obs = Telemetry()
        compile_with(obs)
        text = timeline(obs)
        for stage in STAGE_NAMES:
            assert f"stage:{stage}" in text
        assert "cache_source=executed" in text
        assert "counters" in text
        assert "stagecache.miss" in text

    def test_chrome_trace_covers_every_stage(self):
        obs = Telemetry()
        compile_with(obs)
        trace = chrome_trace(obs)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {f"stage:{s}" for s in STAGE_NAMES} <= names
        assert "compile" in names
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
        (instant,) = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "counters"
        assert instant["args"]["stagecache.miss"] == len(STAGE_NAMES)

    def test_write_chrome_trace(self, tmp_path):
        obs = Telemetry()
        compile_with(obs)
        path = write_chrome_trace(obs, tmp_path / "trace.json")
        trace = json.loads(path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert trace["traceEvents"]


class TestProfile:
    def test_percentile(self):
        assert percentile([1.0], 95) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0

    def test_profile_compile_shape(self):
        record = profile_compile(GAIN, core="audio", runs=2)
        assert record["core"] == "audio"
        assert record["runs"] == 2
        assert record["stages"] == list(STAGE_NAMES)
        assert record["options"]["disk_cache"] is False  # forced off
        for regime in ("cold", "cached_cold", "warm"):
            summary = record[regime]
            assert set(summary) == set(STAGE_NAMES) | {"total"}
            for stats in summary.values():
                assert stats["n"] == 2
                assert 0 <= stats["p50"] <= stats["p95"]

    def test_render_and_write_profile(self, tmp_path):
        record = profile_compile(GAIN, core="audio", runs=1)
        table = render_profile(record)
        assert "cold" in table and "warm" in table
        for stage in STAGE_NAMES:
            assert stage in table
        path = write_profile(record, tmp_path / "profile.json")
        assert json.loads(path.read_text())["stages"] == list(STAGE_NAMES)

    def test_profile_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            profile_compile(GAIN, runs=0)


class TestCliObservability:
    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "gain.dsp"
        path.write_text(GAIN)
        return str(path)

    def test_compile_trace_writes_valid_chrome_trace(self, source_file,
                                                     tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["compile", source_file, "--core", "audio",
                     "--no-disk-cache", "--trace", str(out)]) == 0
        trace = json.loads(out.read_text())
        stage_events = [e for e in trace["traceEvents"]
                        if e.get("ph") == "X"
                        and e["name"].startswith("stage:")]
        assert len(stage_events) >= 8
        assert str(out) in capsys.readouterr().err

    def test_compile_timings_prints_timeline_to_stderr(self, source_file,
                                                       capsys):
        assert main(["compile", source_file, "--core", "audio",
                     "--no-disk-cache", "--timings"]) == 0
        err = capsys.readouterr().err
        assert "stage:schedule" in err
        assert "counters" in err

    def test_cache_summary_line_matches_counters(self, source_file,
                                                 tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["compile", source_file, "--core", "audio",
                "--cache-dir", cache]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0  # fresh process-like rerun: all disk hits
        out = capsys.readouterr().out
        assert "8/8 stages cached (8 disk)" in out

    def test_profile_subcommand(self, tmp_path, capsys):
        out = tmp_path / "BENCH_compile_profile.json"
        assert main(["profile", "--app", "fir", "-n", "1",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "cold" in stdout and "warm" in stdout
        record = json.loads(out.read_text())
        assert record["runs"] == 1
        assert set(record["cold"]) == set(STAGE_NAMES) | {"total"}

    def test_profile_rejects_bad_runs(self, capsys):
        assert main(["profile", "--app", "fir", "-n", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_explore_progress_flag(self, source_file, capsys):
        assert main(["explore", source_file, "--mults", "1",
                     "--alus", "1,2", "--rams", "1", "--no-disk-cache",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[1/" in captured.err and "]" in captured.err
