"""Workload ``serve_jobs``: an open loop against a ``repro serve`` process.

The server runs in pool mode with the process executor, ``nproc - 1``
workers (at least one) and a disk backend in a fresh directory of the
run's scratch area.  The seed draws generated applications (compile-
filtered on the ``fir`` core while the inputs are made; that local
compile is also the oracle) and the job list: jobs are due at a fixed
rate, below the service's closed-loop capacity, and about a third of
them re-submit a source sent at least a second earlier.  One thread
submits each job when it is due; a second waits for results in order,
so the client never holds more than two connections.  Each job is
timed from when it was due to when the server finished it; how late
the generator itself ran is reported separately (``gen.late_ms_p99``).
Capacity is the worker count over the mean service time of the jobs.

Oracle: every job ends ``done`` with a microcode image bit-identical
to the local compile of the same source and options.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from calibrate import combined_slowdown, slowdown_note, slowdowns
from common import (
    ROOT,
    SCRATCH,
    BenchmarkError,
    latency,
    median,
    own_peak_rss_mb,
    percentile,
    stratified_spec,
    tree_peak_rss_mb,
)
from tracer import layer_metrics

WORKERS = max(1, (os.cpu_count() or 2) - 1)
#: The fixed rate (jobs/s) of the measured phase.
RATE = 5.0
RESUBMIT_SHARE = 1 / 3
#: Rates the traced run steps through for ``serve.jobs_per_s_max``, and
#: the p99 latency limit a rate must keep.
LADDER = (10.0, 20.0, 30.0, 40.0)
LADDER_SECONDS = 2.0
P99_LIMIT_MS = 250.0
_URL = re.compile(r"repro serve: (http://[\d.]+:\d+) ")


class Server:
    """One ``repro serve`` subprocess with its own cache directory."""

    def __init__(self, traced: bool = False):
        SCRATCH.mkdir(exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-", dir=SCRATCH)
        command = [sys.executable, str(ROOT / "perfbench" / "serve_main.py")]
        if traced:
            command.append("--traced")
        command += ["serve", "--port", "0", "--workers", str(WORKERS),
                    "--executor", "process", "--cache", self.cache_dir]
        self.process = subprocess.Popen(
            command, cwd=ROOT, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        self.lines: list[str] = []
        self.url = ""
        #: The priming job, once :func:`setup_probe` has run it.
        self.primed: dict = {}
        self._announced = threading.Event()
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()
        if not self._announced.wait(60) or not self.url:
            self.stop()
            raise BenchmarkError(f"server did not announce its URL: "
                                 f"{''.join(self.lines)[-2000:]}")

    def _read(self) -> None:
        """Keep the server's stderr drained; note its URL, and wake the
        constructor when the URL appears or the stream ends."""
        for line in self.process.stderr:
            self.lines.append(line)
            match = _URL.search(line)
            if match and not self.url:
                self.url = match.group(1)
                self._announced.set()
        self._announced.set()

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGINT the server, then make sure its whole process group
        (the pool workers too) is gone before returning."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._drain.join(timeout=5)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def make_sources(seed: int, count: int) -> list[tuple[str, list[str]]]:
    """``count`` generated sources that compile on the fir core, each
    with the hex words of its local compile (the oracle)."""
    from repro import Toolchain, generate_dfg
    from repro.errors import ReproError
    from repro.lang.emit import emit_source

    rng = random.Random(seed)
    toolchain = Toolchain("fir", cache=None)
    sources = []
    for _ in range(50 * count):
        if len(sources) == count:
            return sources
        case = rng.randrange(1 << 30)
        source = emit_source(generate_dfg(stratified_spec(len(sources)),
                                          case, name=f"gen_{case}"))
        try:
            compiled = toolchain.compile(source)
        except ReproError:
            continue
        sources.append((source, [hex(w) for w in compiled.binary.words]))
    raise BenchmarkError(f"only {len(sources)} of {count} generated sources "
                         f"compile on the fir core")


def job_plan(seed: int, rate: float, count: int) -> list[int]:
    """Which source each job sends: fresh sources in order, with about a
    third re-submitting one due at least a second earlier."""
    rng = random.Random(seed ^ 0xC0FFEE)
    plan: list[int] = []
    fresh = 0
    for index in range(count):
        if index >= rate and rng.random() < RESUBMIT_SHARE:
            plan.append(plan[rng.randrange(index - int(rate) + 1)])
        else:
            plan.append(fresh)
            fresh += 1
    return plan


def open_loop(url: str, sources, plan: list[int], rate: float) -> list[dict]:
    """Send ``plan`` at ``rate`` jobs/s; return one record per job with
    its due time, send lateness, repeat flag and finished job rendering."""
    from repro.serve import ServeClient

    client, collector = ServeClient(url), ServeClient(url)
    records: list[dict] = []
    submitted: list[dict] = []
    ready = threading.Condition()
    seen: set[int] = set()
    sending = [True]

    def collect() -> None:
        for index in range(len(plan)):
            with ready:
                ready.wait_for(lambda: len(submitted) > index
                               or not sending[0])
                if len(submitted) <= index:
                    return
                record = submitted[index]
            if "id" in record:
                record["job"] = collector.wait(record["id"], timeout=120)
            records.append(record)

    thread = threading.Thread(target=collect)
    thread.start()
    try:
        wall0, start = time.time(), time.perf_counter()
        for index, source_index in enumerate(plan):
            due = index / rate
            pause = start + due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            record = {"due": wall0 + due, "source": source_index,
                      "repeat": source_index in seen,
                      "late_ms": (time.perf_counter() - start - due) * 1e3}
            seen.add(source_index)
            try:
                record["id"] = client.submit(sources[source_index][0],
                                             "fir")["id"]
            except Exception as exc:  # noqa: BLE001 - a refused job fails
                record["error"] = str(exc)
            with ready:
                submitted.append(record)
                ready.notify()
    finally:
        with ready:
            sending[0] = False
            ready.notify()
        thread.join(timeout=300)
    if thread.is_alive() or len(records) != len(plan):
        raise BenchmarkError("result collection did not finish")
    return records


def check(records: list[dict], sources) -> int:
    """Jobs that failed, were refused or returned a wrong binary."""
    wrong = 0
    for record in records:
        job = record.get("job")
        if job is None or job["state"] != "done" or \
                job["result"]["program"]["words"] != \
                sources[record["source"]][1]:
            wrong += 1
    return wrong


def latency_ms(record: dict) -> float:
    """From when the job was due to when the server finished it, less
    the calibration kernels the worker ran after the compile, if it did
    (``serve_main.py``)."""
    job = record["job"]
    calibration = sum(job["result"].get("perfbench_calibration_s",
                                        {}).values())
    return (job["finished"] - record["due"] - calibration) * 1e3


def priming_source() -> str:
    """The priming job: the builtin 8-tap FIR application as source."""
    from repro.apps import fir_application
    from repro.lang.emit import emit_source

    return emit_source(fir_application([0.05 * (k + 1) for k in range(8)],
                                       name="fir8"))


def prime(server: Server) -> dict:
    """Run the priming job; it must execute all eight stages against the
    empty backend (the isolation check)."""
    from repro.serve import ServeClient

    client = ServeClient(server.url)
    job = client.wait(client.submit(priming_source(), "fir")["id"],
                      timeout=120)
    if job["state"] != "done":
        raise BenchmarkError(f"priming job ended {job['state']}: "
                             f"{job.get('error')}")
    if job["result"]["cache"].get("executed") != 8:
        raise BenchmarkError(f"priming job hit a cache that should be "
                             f"empty: {job['result']['cache']}")
    return job


def prime_mismatch(job: dict) -> bool:
    """Whether the priming job's binary differs from a local compile of
    the same source and options (checked after the clock stops)."""
    from repro import Toolchain

    local = Toolchain("fir", cache=None).compile(priming_source())
    return job["result"]["program"]["words"] != \
        [hex(word) for word in local.binary.words]


def setup_probe(seed: int, smoke: bool) -> Server:
    """Set-up as a user pays it: start the server, wait for its health
    answer, run the priming job.  The caller stops the server after
    reading the clock."""
    from repro.serve import ServeClient

    server = Server()
    try:
        ServeClient(server.url).health()
        server.primed = prime(server)
    except BaseException:
        server.stop()
        raise
    return server


def run(seed: int, seconds: float, smoke: bool) -> dict:
    count = 24 if smoke else int(RATE * seconds)
    plan = job_plan(seed, RATE, count)
    sources = make_sources(seed, max(plan) + 1)
    server = setup_probe(seed, smoke)
    try:
        records = open_loop(server.url, sources, plan, RATE)
        server_rss = server.peak_rss_mb()
    finally:
        server.stop()
    failed = check(records, sources) + prime_mismatch(server.primed)
    done = [r for r in records if r.get("job", {}).get("state") == "done"]
    fresh = [latency_ms(r) for r in done if not r["repeat"]]
    repeat = [latency_ms(r) for r in done if r["repeat"]]
    if not fresh or not repeat:
        raise BenchmarkError("no completed fresh or repeated jobs to time")
    service_s = sum(r["job"]["seconds"] for r in done)
    # Jobs run in the server's worker processes, so their speed is
    # judged by the kernels the workers time after each compile.
    sampled = [r["job"]["result"]["perfbench_calibration_s"] for r in done
               if "perfbench_calibration_s" in r["job"]["result"]]
    kernels = slowdowns({name: [times[name] for times in sampled]
                         for name in ("cpu", "memory")})
    slowdown = combined_slowdown(kernels)
    metrics, note = latency(fresh, repeat, slowdown)
    metrics["throughput_per_s"] = WORKERS * len(done) / service_s * slowdown
    metrics["peak_rss_mb"] = own_peak_rss_mb() + server_rss
    late = [r["late_ms"] for r in records]
    return {
        "correct": failed == 0,
        "attempted": len(records) + 1,
        "failed": failed,
        "metrics": metrics,
        "notes": [f"# {len(fresh)} fresh and {len(repeat)} repeated jobs at "
                  f"{RATE:g}/s with {WORKERS} worker(s); generator lateness "
                  f"p99 {percentile(late, 99):.3f} ms",
                  slowdown_note(kernels, len(sampled)), note],
    }


def _phase(server: Server, sources, plan, rate) -> tuple[list, dict, dict]:
    """One open-loop phase; returns its records and the server's
    counters before and after."""
    from repro.serve import ServeClient

    client = ServeClient(server.url)
    before = client.stats()["counters"]
    records = open_loop(server.url, sources, plan, rate)
    return records, before, client.stats()["counters"]


def jobs_per_s_max(sources, smoke: bool) -> float:
    """The highest ladder rate whose jobs keep p99 latency under the
    limit, with the last job's queue wait under it too (no growing
    backlog); each rate runs on a fresh server."""
    best = 0.0
    for rate in LADDER[:1] if smoke else LADDER:
        count = 4 if smoke else int(rate * LADDER_SECONDS)
        plan = list(range(count))
        server = Server()
        try:
            records = open_loop(server.url, sources[:count], plan, rate)
        finally:
            server.stop()
        if check(records, sources[:count]):
            break
        latencies = [latency_ms(r) for r in records]
        last = records[-1]["job"]
        backlog_ms = (last["started"] - last["submitted"]) * 1e3
        if percentile(latencies, 99) > P99_LIMIT_MS or \
                backlog_ms > P99_LIMIT_MS:
            break
        best = rate
    return best


def run_traced(seed: int, smoke: bool) -> dict:
    count = 24 if smoke else int(RATE * 5)
    plan = job_plan(seed, RATE, count)
    sources = make_sources(seed, max(plan) + 1)
    phases = {}
    for traced in (False, True):
        server = Server(traced=traced)
        try:
            prime(server)
            phases[traced] = _phase(server, sources, plan, RATE)
        finally:
            server.stop()
    records, before, after = phases[True]
    failed = check(records, sources) + check(phases[False][0], sources)
    counters = {name: after.get(name, 0) - before.get(name, 0)
                for name in after}
    jobs = [r["job"] for r in records if r.get("job")]
    waits = [(j["started"] - j["submitted"]) * 1e3 for j in jobs]
    worker = [j["seconds"] * 1e3 for j in jobs]
    overhead = [latency_ms(r) - wait - work
                for r, wait, work in zip(records, waits, worker)]
    plain = median([latency_ms(r) for r in phases[False][0]])
    metrics = layer_metrics(counters)
    ladder_sources = make_sources(seed + 1, 4 if smoke else
                                  int(max(LADDER) * LADDER_SECONDS))
    metrics.update({
        "serve.queue_wait_ms_p50": median(waits),
        "serve.queue_wait_ms_p99": percentile(waits, 99),
        "serve.worker_ms": median(worker),
        "serve.overhead_ms": median(overhead),
        "serve.rejections": counters.get("serve.rejections", 0),
        "serve.timeouts": counters.get("serve.timeouts", 0),
        "serve.jobs_per_s_max": jobs_per_s_max(ladder_sources, smoke),
        "gen.late_ms_p99": percentile([r["late_ms"] for r in records], 99),
        "trace.overhead_ratio": median([latency_ms(r) for r in records])
        / plain,
        "sched_cycles_sum": sum(j["result"]["n_cycles"] for j in jobs),
        "code_words_sum": sum(len(j["result"]["program"]["words"])
                              for j in jobs),
    })
    return {"correct": failed == 0, "attempted": 2 * len(plan),
            "failed": failed, "metrics": metrics}
