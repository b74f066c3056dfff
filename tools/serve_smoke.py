#!/usr/bin/env python3
"""End-to-end smoke test for the compile server (docs/serving.md).

Starts a real ``repro serve`` subprocess on an ephemeral port, then
proves the four things that make the service trustworthy:

1. a compile submitted over HTTP returns a microcode image
   bit-identical to a local ``Toolchain.compile`` of the same source;
2. re-submitting the same job executes **zero** stages — the result is
   restored from the shared cache backend, observed both in the job's
   own cache accounting and in the server's aggregated
   ``stagecache.*`` counters;
3. ``repro cache stats`` / ``verify`` see a clean store and
   ``repro cache gc --min-age`` protects fresh (in-flight) entries
   while a plain bounded gc actually empties it;
4. the server shuts down cleanly on SIGINT.

Run locally with::

    PYTHONPATH=src python tools/serve_smoke.py

Exits 0 on success, 1 with a one-line reason on the first failure.
The server's cache directory is temporary and removed either way.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import CompileOptions, Toolchain, audio_core  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

SOURCE = """
app smoke;
param k = 0.5;
input i; output o;
state s(1);
loop {
  s = i;
  m := mlt(k, s@1);
  o = add_clip(m, i);
}
"""

#: Store entries one fresh compile publishes: one snapshot pack.
N_PACKS = 1
STARTUP_PATTERN = re.compile(r"repro serve: (http://[\d.]+:\d+) ")


def fail(reason: str) -> None:
    print(f"serve smoke: FAIL — {reason}", file=sys.stderr)
    sys.exit(1)


def step(message: str) -> None:
    print(f"serve smoke: {message}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    return env


def start_server(cache_dir: str):
    """Spawn ``repro serve --port 0`` and return (process, url)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--executor", "process", "--cache", cache_dir],
        stderr=subprocess.PIPE, text=True, env=child_env(),
    )
    lines: list[str] = []

    def drain() -> None:
        for line in process.stderr:
            lines.append(line)

    threading.Thread(target=drain, daemon=True).start()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        for line in lines:
            match = STARTUP_PATTERN.search(line)
            if match:
                return process, match.group(1)
        if process.poll() is not None:
            fail(f"server exited at startup: {''.join(lines).strip()}")
        time.sleep(0.05)
    process.kill()
    fail("server did not announce its URL within 30s")


def cache_cli(action: str, cache_dir: str, *extra: str) -> int:
    command = [sys.executable, "-m", "repro", "cache", action,
               "--cache-dir", cache_dir, *extra]
    return subprocess.run(command, env=child_env()).returncode


def main() -> None:
    cache_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    try:
        smoke(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def smoke(cache_dir: str) -> None:
    process, url = start_server(cache_dir)
    try:
        client = ServeClient(url)
        health = client.health()
        step(f"server up at {url} (version {health.get('version')})")

        # 1. HTTP compile, bit-identical to a local one.
        job = client.submit(SOURCE, "audio", options={"budget": 64},
                            name="smoke")
        first = client.wait(job["id"], timeout=120)
        if first["state"] != "done":
            fail(f"first job ended {first['state']}: {first.get('error')}")
        local = Toolchain(audio_core(), cache=None,
                          options=CompileOptions(budget=64)).compile(SOURCE)
        local_words = [hex(word) for word in local.binary.words]
        if first["result"]["program"]["words"] != local_words:
            fail("HTTP result is not bit-identical to the local compile")
        step("HTTP compile bit-identical to local Toolchain.compile")

        # 2. Re-submission restores everything from the shared backend.
        before = client.stats()["counters"].get("stagecache.miss", 0)
        second = client.wait(client.submit(SOURCE, "audio",
                                           options={"budget": 64},
                                           name="smoke-again")["id"],
                             timeout=120)
        if second["state"] != "done":
            fail(f"second job ended {second['state']}")
        cache_counts = second["result"]["cache"]
        if cache_counts["executed"] != 0:
            fail(f"re-submission executed stages: {cache_counts}")
        after = client.stats()["counters"].get("stagecache.miss", 0)
        if after != before:
            fail(f"re-submission missed the cache "
                 f"(stagecache.miss {before} -> {after})")
        if second["result"]["program"]["words"] != local_words:
            fail("re-submitted result is not bit-identical")
        step(f"re-submission executed zero stages ({cache_counts})")

        # The server-side view agrees.
        remote = client.cache_stats()["cache"]
        if remote["entries"] < N_PACKS:
            fail(f"server store holds {remote['entries']} entries, "
                 f"expected >= {N_PACKS}")
    finally:
        process.send_signal(signal.SIGINT)
        try:
            code = process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            fail("server ignored SIGINT")
    if code != 0:
        fail(f"server exited {code} on SIGINT")
    step("server shut down cleanly on SIGINT")

    # 3. Cache administration against the store the server filled.
    if cache_cli("stats", cache_dir) != 0:
        fail("repro cache stats exited non-zero")
    if cache_cli("verify", cache_dir) != 0:
        fail("repro cache verify found a dirty store")
    if cache_cli("gc", cache_dir, "--max-bytes", "0",
                 "--min-age", "3600") != 0:
        fail("repro cache gc (min-age) exited non-zero")
    from repro.pipeline import DiskCache
    if len(DiskCache(cache_dir).keys()) < N_PACKS:
        fail("gc --min-age evicted fresh (in-flight-age) entries")
    step("gc --min-age 3600 protected every fresh entry")
    if cache_cli("gc", cache_dir, "--max-bytes", "0") != 0:
        fail("repro cache gc exited non-zero")
    if DiskCache(cache_dir).keys():
        fail("gc --max-bytes 0 left entries behind")
    step("gc --max-bytes 0 emptied the store")

    print("serve smoke: OK")


if __name__ == "__main__":
    main()
