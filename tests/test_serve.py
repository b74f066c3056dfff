"""Tests for the compile service (repro.serve).

Integration tests run a real CompileServer on an ephemeral port with a
thread executor and a ``memory:`` cache backend, so the whole HTTP
round trip — submit, poll, stream, stats — happens in-process with no
disk and no spawned interpreters.  The acceptance checks from the
serving design live here: an HTTP compile is bit-identical to a local
``Toolchain.compile``, and a re-submission is served entirely from the
shared cache backend (zero executed stages, proven through the
``stagecache.*`` counters the stats endpoint aggregates).
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import CompileOptions, Toolchain, audio_core, fir_core
from repro.arch import register_core, unregister_core
from repro.errors import ReproError
from repro.options import OPTIONS_SCHEMA_VERSION
from repro.pipeline import artifacts
from repro.pipeline.backend import _MEMORY_BACKENDS, open_backend
from repro.serve import (
    ProtocolError,
    ServeClient,
    ServeClientError,
    ServerConfig,
    WIRE_VERSION,
    execute_compile_job,
    parse_compile_request,
    run_worker,
    start_in_thread,
    workers,
)
from repro.serve.protocol import job_payload

SOURCE = """
app served;
param k = 0.5;
input i; output o;
state s(1);
loop {
  s = i;
  m := mlt(k, s@1);
  o = add_clip(m, i);
}
"""

SOURCE_B = SOURCE.replace("0.5", "0.25").replace("app served",
                                                 "app served_b")

BAD_SOURCE = "app broken; loop { o = add(x, y); }"


def fresh_memory(name: str) -> str:
    """A guaranteed-empty named memory backend spec (this process's
    workers forget what they kept, the memory tiers included)."""
    _MEMORY_BACKENDS.pop(name, None)
    workers._STATE.clear()
    return f"memory:{name}"


@pytest.fixture(scope="module")
def server():
    """One pool-mode server shared by the read-only round-trip tests."""
    config = ServerConfig(workers=2, executor="thread",
                          cache=fresh_memory("t-serve"),
                          rate_limit=None, job_timeout=60.0)
    with start_in_thread(config) as handle:
        yield handle


class TestProtocol:
    def test_rejects_unknown_wire_version(self):
        with pytest.raises(ProtocolError, match="wire_version 99"):
            parse_compile_request({"wire_version": 99, "source": SOURCE,
                                   "core": "audio"})

    def test_missing_stamp_reads_as_current(self):
        parsed = parse_compile_request({"source": SOURCE, "core": "audio"})
        assert parsed["core"] == "audio"

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_compile_request([1, 2])

    def test_rejects_empty_source(self):
        with pytest.raises(ProtocolError, match="source"):
            parse_compile_request({"source": "  ", "core": "audio"})

    def test_rejects_oversized_source(self):
        with pytest.raises(ProtocolError, match="byte limit"):
            parse_compile_request({"source": "x" * 100, "core": "audio"},
                                  max_source_bytes=10)

    def test_rejects_unknown_core(self):
        with pytest.raises(ProtocolError, match="unknown core"):
            parse_compile_request({"source": SOURCE, "core": "nonesuch"})

    def test_rejects_core_outside_allowlist(self):
        with pytest.raises(ProtocolError, match="unknown core"):
            parse_compile_request({"source": SOURCE, "core": "audio"},
                                  allowed_cores=frozenset({"fir"}))

    def test_rejects_bad_options(self):
        with pytest.raises(ProtocolError, match="bad options"):
            parse_compile_request({"source": SOURCE, "core": "audio",
                                   "options": {"opt": 7}})

    def test_rejects_skewed_options_schema(self):
        with pytest.raises(ProtocolError, match="schema_version"):
            parse_compile_request({
                "source": SOURCE, "core": "audio",
                "options": {"schema_version": OPTIONS_SCHEMA_VERSION + 1}})

    def test_options_validated_into_typed_object(self):
        parsed = parse_compile_request({
            "source": SOURCE, "core": "audio",
            "options": {"budget": 64, "opt": 2}})
        assert parsed["options"] == CompileOptions(budget=64, opt=2)


class TestExecuteCompileJob:
    def test_success_report(self):
        payload = job_payload(SOURCE, "audio", CompileOptions(budget=64),
                              None, "served")
        report = execute_compile_job(payload)
        assert report["ok"] is True
        assert report["result"]["n_cycles"] >= 1
        assert report["result"]["program"]["words"]
        assert report["counters"]  # the worker ships its telemetry home
        assert report["seconds"] > 0

    def test_failure_report_is_structured(self):
        payload = job_payload(BAD_SOURCE, "audio", CompileOptions(),
                              None, None)
        report = execute_compile_job(payload)
        assert report["ok"] is False
        assert report["error"]
        assert report["error_type"]

    def test_bit_identical_to_local_toolchain(self):
        options = CompileOptions(budget=64, disk_cache=False)
        report = execute_compile_job(
            job_payload(SOURCE, "audio", options, None, None))
        local = Toolchain(audio_core(), options, cache=None).compile(SOURCE)
        assert report["result"]["program"]["words"] == \
            [hex(word) for word in local.binary.words]


def seeded_sources(count: int) -> list[str]:
    """``count`` distinct applications (no two share a stage key)."""
    return [SOURCE.replace("0.5", f"0.{k + 1:03d}")
            .replace("app served", f"app served_{k}") for k in range(count)]


class TestWorkerState:
    """A worker keeps each core's binding and each backend spec's
    memory tier across jobs; every job still reports its own
    counters."""

    def run(self, source: str, core: str = "audio", **options):
        report = execute_compile_job(job_payload(
            source, core, CompileOptions(**options), None, None))
        assert report["ok"], report.get("error")
        return report

    def test_two_jobs_on_one_core_bind_it_once(self, monkeypatch):
        calls = []
        fingerprint = artifacts.core_fingerprint

        def counted(core):
            calls.append(core.name)
            return fingerprint(core)

        monkeypatch.setattr(artifacts, "core_fingerprint", counted)
        spec = fresh_memory("t-bind")
        self.run(SOURCE, cache_dir=spec)
        self.run(SOURCE_B, cache_dir=spec, budget=64)
        assert calls == ["audio"]

    def test_reregistered_core_compiles_against_the_new_core(self):
        spec = fresh_memory("t-rereg")
        register_core("t-swapped", fir_core)
        try:
            first = self.run(SOURCE, "t-swapped", cache_dir=spec)
            register_core("t-swapped", audio_core, replace=True)
            second = self.run(SOURCE, "t-swapped", cache_dir=spec)
        finally:
            unregister_core("t-swapped")
        for report, core in ((first, fir_core()), (second, audio_core())):
            local = Toolchain(core, cache=None).compile(SOURCE)
            assert report["result"]["program"]["words"] == \
                [hex(word) for word in local.binary.words]
        # Only parse and optimize, which never read the core, are shared.
        assert second["result"]["cache"] == {
            "executed": 6, "memory": 2, "disk": 0}

    def test_seed_variant_restores_its_prefix_from_memory(self):
        spec = fresh_memory("t-seed")
        self.run(SOURCE, cache_dir=spec)
        variant = self.run(SOURCE, cache_dir=spec, seed=7)
        # parse ... impose are shared; schedule keys on the seed.
        assert variant["result"]["cache"] == {
            "executed": 3, "memory": 5, "disk": 0}

    def test_report_carries_only_its_own_counters(self):
        spec = fresh_memory("t-own")
        first = self.run(SOURCE, cache_dir=spec)["counters"]
        again = self.run(SOURCE, cache_dir=spec)["counters"]
        assert first["stagecache.miss"] == 8
        assert "stagecache.hit" not in first
        assert again["stagecache.hit"] == 8
        assert "stagecache.miss" not in again
        assert "stagecache.store" not in again

    def test_concurrent_thread_jobs_report_their_own_counters(self):
        payloads = [job_payload(source, "audio",
                                CompileOptions(disk_cache=False), None, None)
                    for source in seeded_sources(40)]
        # A process's first 19 compiles of these sources pickle 14
        # bytes fewer each than later ones, so the sequential run that
        # sets the expected counters is the second.
        sequential = []
        for _ in range(2):
            workers._STATE.clear()
            sequential = [execute_compile_job(p) for p in payloads]
        workers._STATE.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                concurrent = list(pool.map(execute_compile_job, payloads,
                                           timeout=120))
        finally:
            sys.setswitchinterval(interval)
            workers._STATE.clear()
        for alone, together in zip(sequential, concurrent):
            assert together["ok"] and alone["ok"]
            assert together["counters"] == alone["counters"]
            assert together["result"]["program"] == \
                alone["result"]["program"]


class TestRoundTrip:
    def test_health(self, server):
        health = ServeClient(server.url).health()
        assert health["ok"] is True
        assert health["mode"] == "pool"
        assert "audio" in health["cores"]
        assert health["wire_version"] == WIRE_VERSION

    def test_http_compile_bit_identical_to_local(self, server):
        client = ServeClient(server.url)
        job = client.submit(SOURCE, "audio",
                            options=CompileOptions(budget=64),
                            name="served")
        assert job["state"] in ("queued", "running")
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "done"
        local = Toolchain(audio_core(), budget=64, cache=None) \
            .compile(SOURCE)
        assert final["result"]["program"]["words"] == \
            [hex(word) for word in local.binary.words]
        assert final["result"]["n_cycles"] == local.n_cycles

    def test_resubmission_executes_zero_stages(self, server):
        client = ServeClient(server.url)
        first = client.wait(
            client.submit(SOURCE_B, "audio")["id"], timeout=60)
        assert first["state"] == "done"
        before = client.stats()["counters"]
        second = client.wait(
            client.submit(SOURCE_B, "audio")["id"], timeout=60)
        assert second["state"] == "done"
        # Every stage restored from the shared backend...
        assert second["result"]["cache"]["executed"] == 0
        # ...and the server-side counter aggregation agrees: the
        # second run added 8 stagecache hits and zero misses.
        after = client.stats()["counters"]
        assert after.get("stagecache.miss", 0) == \
            before.get("stagecache.miss", 0)
        assert after.get("stagecache.hit", 0) >= \
            before.get("stagecache.hit", 0) + 8
        # Both compiles produced the same binary.
        assert second["result"]["program"]["words"] == \
            first["result"]["program"]["words"]

    def test_compile_error_is_a_failed_job_not_a_500(self, server):
        client = ServeClient(server.url)
        final = client.wait(
            client.submit(BAD_SOURCE, "audio")["id"], timeout=60)
        assert final["state"] == "failed"
        assert final["error"]

    def test_batch_submission(self, server):
        client = ServeClient(server.url)
        jobs = client.submit_batch([
            {"source": SOURCE, "core": "audio", "name": "a"},
            {"source": SOURCE_B, "core": "audio", "name": "b"},
        ])
        assert len(jobs) == 2
        for job in jobs:
            assert client.wait(job["id"], timeout=60)["state"] == "done"

    def test_batch_is_validated_atomically(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeClientError, match="unknown core"):
            client.submit_batch([
                {"source": SOURCE, "core": "audio"},
                {"source": SOURCE, "core": "nonesuch"},
            ])

    def test_events_stream_ends_at_terminal_state(self, server):
        client = ServeClient(server.url)
        job = client.submit(SOURCE, "audio")
        states = [event["state"]
                  for event in client.events(job["id"], timeout=60)]
        assert states[-1] == "done"

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServeClientError) as info:
            ServeClient(server.url).job("j-999999")
        assert info.value.status == 404

    def test_malformed_body_is_400(self, server):
        with pytest.raises(ServeClientError) as info:
            ServeClient(server.url).request("POST", "/v1/jobs",
                                            {"source": 42, "core": "audio"})
        assert info.value.status == 400

    def test_unknown_wire_version_is_400(self, server):
        with pytest.raises(ServeClientError) as info:
            ServeClient(server.url).request(
                "POST", "/v1/jobs",
                {"wire_version": 99, "source": SOURCE, "core": "audio"})
        assert info.value.status == 400
        assert "wire_version 99" in str(info.value)

    def test_cache_stats_and_gc_endpoints(self, server):
        client = ServeClient(server.url)
        client.wait(client.submit(SOURCE, "audio")["id"], timeout=60)
        stats = client.cache_stats()["cache"]
        assert stats["backend"] == "MemoryBackend"
        assert stats["entries"] >= 3  # the job's packs
        # min_age far in the future: nothing old enough → nothing
        # evicted, in-flight artifacts are safe.
        kept = client.cache_gc(max_bytes=0, min_age=3600)
        assert kept["removed"] == 0
        assert kept["cache"]["entries"] == stats["entries"]

    def test_admin_gc_counts_removed_entries(self):
        spec = fresh_memory("t-gc")
        backend = open_backend(spec)
        for key in ("a", "b"):
            backend.put(key, {"x": key})
        config = ServerConfig(workers=0, cache=spec, rate_limit=None)
        with start_in_thread(config) as handle:
            client = ServeClient(handle.url)
            assert client.cache_gc(max_bytes=0)["removed"] == 2
            assert client.stats()["counters"]["cache.gc_removed"] == 2

    def test_uncached_server_writes_no_cache(self, tmp_path, monkeypatch):
        """``repro serve --no-cache`` (``cache=None``): no job opens a
        persistent tier, whatever placement its request carries."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        memory = fresh_memory("t-uncached")
        placements = [{"cache_dir": str(tmp_path / "asked")}, None,
                      {"cache_dir": memory}]
        config = ServerConfig(workers=1, executor="thread", cache=None,
                              rate_limit=None)
        with start_in_thread(config) as handle:
            client = ServeClient(handle.url)
            jobs = [client.submit(SOURCE, "audio", options)
                    for options in placements]
            finals = [client.wait(job["id"], timeout=60) for job in jobs]
        assert [final["state"] for final in finals] == ["done"] * 3
        assert not (tmp_path / "asked").exists()
        assert not (tmp_path / "env").exists()
        assert "t-uncached" not in _MEMORY_BACKENDS

    def test_rejections_are_counted(self, server):
        client = ServeClient(server.url)
        before = client.stats()["counters"].get("serve.rejections", 0)
        with pytest.raises(ServeClientError):
            client.submit("", "audio")
        after = client.stats()["counters"].get("serve.rejections", 0)
        assert after == before + 1


class TestLatencyStats:
    def test_stats_report_latency_percentiles_per_terminal_state(self):
        config = ServerConfig(workers=2, executor="thread",
                              cache=fresh_memory("t-latency"))
        with start_in_thread(config) as handle:
            client = ServeClient(handle.url)
            jobs = [client.submit(source, "audio")
                    for source in (SOURCE, SOURCE_B, SOURCE, BAD_SOURCE)]
            finals = [client.wait(job["id"], timeout=60) for job in jobs]
            latency = client.stats()["latency"]
        assert set(latency) == {"done", "failed", "timeout", "cancelled"}
        assert latency["done"]["jobs"] == 3
        assert latency["failed"]["jobs"] == 1
        assert latency["timeout"] == {"jobs": 0, "queue_wait_ms": None,
                                      "worker_ms": None, "total_ms": None}
        done = latency["done"]
        for name in ("queue_wait_ms", "worker_ms", "total_ms"):
            assert 0 <= done[name]["p50"] <= done[name]["p90"]
        slowest = max(final["finished"] - final["submitted"]
                      for final in finals if final["state"] == "done")
        assert done["total_ms"]["p90"] <= 1e3 * slowest + 1e-3
        assert done["worker_ms"]["p50"] <= done["total_ms"]["p90"]


class TestLimits:
    def test_queue_bound_yields_503(self):
        config = ServerConfig(workers=0, max_queue=2,
                              cache=fresh_memory("t-queue"))
        with start_in_thread(config) as handle:
            client = ServeClient(handle.url)
            client.submit(SOURCE, "audio")
            client.submit(SOURCE, "audio")
            with pytest.raises(ServeClientError) as info:
                client.submit(SOURCE, "audio")
            assert info.value.status == 503

    def test_rate_limit_yields_429(self):
        config = ServerConfig(workers=0, rate_limit=0.001, rate_burst=2,
                              cache=fresh_memory("t-rate"))
        with start_in_thread(config) as handle:
            client = ServeClient(handle.url)
            client.submit(SOURCE, "audio")
            client.submit(SOURCE, "audio")
            with pytest.raises(ServeClientError) as info:
                client.submit(SOURCE, "audio")
            assert info.value.status == 429
            # Polling is not rate limited — only submissions.
            assert client.stats()["counters"]["serve.rejections"] >= 1

    def test_job_timeout_reports_timeout_state(self):
        config = ServerConfig(workers=1, executor="thread",
                              job_timeout=0.000001,
                              cache=fresh_memory("t-timeout"))
        with start_in_thread(config) as handle:
            client = ServeClient(handle.url)
            job = client.submit(SOURCE, "audio")
            final = client.wait(job["id"], timeout=60)
            assert final["state"] == "timeout"
            assert client.stats()["counters"]["serve.timeouts"] == 1


class TestPullMode:
    def test_worker_claims_compiles_and_reports(self):
        config = ServerConfig(workers=0, cache=fresh_memory("t-pull"))
        with start_in_thread(config) as handle:
            client = ServeClient(handle.url)
            assert client.health()["mode"] == "pull"
            job = client.submit(SOURCE, "audio")
            completed = run_worker(handle.url, name="t-worker",
                                   poll=0.05, max_jobs=1)
            assert completed == 1
            final = client.wait(job["id"], timeout=30)
            assert final["state"] == "done"
            counters = client.stats()["counters"]
            assert counters["serve.claims"] == 1
            assert counters["serve.jobs_completed"] == 1
            # The remote worker's telemetry reached the server too.
            assert counters.get("stagecache.miss", 0) > 0

    def test_empty_queue_claim_is_none(self):
        config = ServerConfig(workers=0, cache=fresh_memory("t-empty"))
        with start_in_thread(config) as handle:
            assert ServeClient(handle.url).claim("t-worker") is None

    def test_stale_completion_is_refused(self):
        config = ServerConfig(workers=0, cache=fresh_memory("t-stale"))
        with start_in_thread(config) as handle:
            client = ServeClient(handle.url)
            job = client.submit(SOURCE, "audio")
            claimed = client.claim("real-worker")
            assert claimed["id"] == job["id"]
            with pytest.raises(ServeClientError) as info:
                client.complete(job["id"], "impostor",
                                {"ok": True, "result": {}})
            assert info.value.status == 404

    def test_expired_lease_requeues(self):
        config = ServerConfig(workers=0, lease_seconds=0.01,
                              cache=fresh_memory("t-lease"))
        with start_in_thread(config) as handle:
            client = ServeClient(handle.url)
            job = client.submit(SOURCE, "audio")
            assert client.claim("dead-worker")["id"] == job["id"]
            time.sleep(0.05)
            # The next claim reaps the expired lease and re-claims.
            again = client.claim("live-worker")
            assert again is not None and again["id"] == job["id"]

    def test_worker_shares_artifacts_through_the_cache(self):
        spec = fresh_memory("t-share")
        config = ServerConfig(workers=0, cache=spec)
        with start_in_thread(config) as handle:
            client = ServeClient(handle.url)
            client.submit(SOURCE, "audio")
            run_worker(handle.url, name="w", poll=0.05, max_jobs=1)
            backend = open_backend(spec)
            assert backend.keys()  # stage snapshots were published
            job2 = client.submit(SOURCE, "audio")
            # A worker that kept nothing (another process) restores
            # every stage from the shared backend.
            workers._STATE.clear()
            run_worker(handle.url, name="w", poll=0.05, max_jobs=1)
            final = client.wait(job2["id"], timeout=30)
            assert final["result"]["cache"] == {
                "executed": 0, "memory": 0, "disk": 8}


class TestServeClient:
    def test_unreachable_server_raises_repro_error(self):
        client = ServeClient("http://127.0.0.1:1", timeout=0.2)
        with pytest.raises(ReproError):
            client.health()

    def test_https_is_refused(self):
        with pytest.raises(ServeClientError, match="http"):
            ServeClient("https://example.com")


class TestConcurrentSubmissions:
    def test_parallel_clients_all_complete(self):
        config = ServerConfig(workers=2, executor="thread",
                              cache=fresh_memory("t-parallel"))
        with start_in_thread(config) as handle:
            results = []
            lock = threading.Lock()

            def one(tag: int) -> None:
                client = ServeClient(handle.url)
                job = client.submit(SOURCE, "audio", name=f"p{tag}")
                final = client.wait(job["id"], timeout=60)
                with lock:
                    results.append(final)

            threads = [threading.Thread(target=one, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert len(results) == 6
            assert all(final["state"] == "done" for final in results)
            words = {tuple(final["result"]["program"]["words"])
                     for final in results}
            assert len(words) == 1  # all bit-identical
