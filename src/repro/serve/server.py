"""The compile server: asyncio HTTP/JSON front-end over the Toolchain.

Standard library only, by design: one :func:`asyncio.start_server`
loop speaking just enough HTTP/1.1 (request line, headers,
``Content-Length`` bodies, ``Connection: close``) to serve JSON — no
web framework, same as the rest of this repo takes no dependencies.

Endpoints (all JSON; every response stamps ``wire_version``)::

    GET  /v1/health                    liveness + served cores + mode
    GET  /v1/stats                     queue/job/latency/counter/cache
                                       snapshot
    POST /v1/jobs                      submit one compile  → 202 + job
    POST /v1/batch                     submit many         → 202 + jobs
    GET  /v1/jobs/{id}[?wait=S]        job status (long-poll up to S)
    GET  /v1/jobs/{id}/result          result (202 while not terminal)
    GET  /v1/jobs/{id}/events          NDJSON job transitions (close-
                                       delimited stream)
    GET  /v1/cache/stats               cache-backend stats
    POST /v1/cache/gc                  bound the store (admin)
    POST /v1/work/claim                pull-mode: claim a queued job
    POST /v1/work/{id}/complete        pull-mode: report a claimed job

Load shedding happens at the door: a full pending queue is 503, a
rate-limited peer is 429 (token bucket per peer address, submissions
only — polling is free), a malformed payload is 400.  Each refusal
counts ``serve.rejections``; nothing half-validated reaches the queue.

Execution is either *pool mode* (``workers > 0``: a dispatcher feeds a
local :class:`~repro.serve.workers.WorkerPool`, per-job wall-clock
timeout via ``asyncio.wait_for``) or *pull mode* (``workers == 0``:
jobs wait for ``repro worker`` processes to claim them over HTTP,
leases re-queue work whose claimant died).  Either way the worker's
counter dict is merged into the server's
:class:`~repro.obs.Telemetry`, so ``GET /v1/stats`` shows aggregated
``stagecache.*`` / ``diskcache.*`` truth about cache behavior across
every job — that is how a client proves a re-submission executed zero
stages.

Cache placement is *server policy*: the configured backend spec
(``--cache``) overrides whatever placement the request's options
carry, so every job shares one artifact store and the admin endpoints
operate on the store jobs actually use.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qs, urlsplit

from ..obs import Telemetry
from ..pipeline.backend import backend_stats, open_backend
from .jobs import JobStore, QueueFullError, UnknownJobError
from .protocol import (
    DONE,
    FAILED,
    TIMEOUT,
    WIRE_VERSION,
    ProtocolError,
    check_wire_version,
    job_payload,
    parse_compile_request,
)
from .workers import WorkerPool

#: HTTP status reason phrases for the handful of codes we emit.
_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: Status codes that count as load-shedding rejections.
_REJECTIONS = frozenset({400, 404, 405, 413, 429, 503})


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can tune, with serving defaults."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 → ephemeral, read back from Server.port
    #: Local worker slots; 0 switches to pull mode (remote workers).
    workers: int = 2
    #: ``"process"`` or ``"thread"`` (see WorkerPool).
    executor: str = "process"
    #: Pending-queue bound; beyond it submissions get 503.
    max_queue: int = 64
    #: Terminal jobs retained for result polling.
    max_finished: int = 256
    #: Per-job wall-clock limit in pool mode; None disables.
    job_timeout: float | None = 120.0
    #: Submissions/second/peer (token bucket); None disables.
    rate_limit: float | None = None
    rate_burst: int = 10
    #: Cache-backend spec shared by every job (path | ``memory:<name>``);
    #: None leaves requests' own cache placement untouched.
    cache: str | None = None
    #: Restrict served cores to this subset of the registry.
    cores: frozenset[str] | None = None
    max_source_bytes: int = 1 << 20
    max_body_bytes: int = 4 << 20
    #: Pull-mode claim lease; an unreported job re-queues after this.
    lease_seconds: float = 300.0


class _TokenBucket:
    """Per-peer submission rate limiting (monotonic token bucket)."""

    def __init__(self, rate: float, burst: int):
        self.rate = rate
        self.burst = max(1, burst)
        self._buckets: dict[str, tuple[float, float]] = {}

    def allow(self, peer: str) -> bool:
        now = time.monotonic()
        tokens, last = self._buckets.get(peer, (float(self.burst), now))
        tokens = min(float(self.burst), tokens + (now - last) * self.rate)
        if tokens < 1.0:
            self._buckets[peer] = (tokens, now)
            return False
        self._buckets[peer] = (tokens - 1.0, now)
        return True


@dataclass
class _Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, list[str]]
    body: Any
    peer: str
    parts: list[str] = field(default_factory=list)


class CompileServer:
    """The asyncio compile service (see the module docstring)."""

    def __init__(self, config: ServerConfig | None = None,
                 telemetry: Telemetry | None = None):
        self.config = config or ServerConfig()
        #: Live by default — a server exists to be observed.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.store = JobStore(max_queue=self.config.max_queue,
                              max_finished=self.config.max_finished,
                              lease_seconds=self.config.lease_seconds)
        self.pool: WorkerPool | None = (
            WorkerPool(self.config.workers, self.config.executor)
            if self.config.workers > 0 else None)
        self.backend = (open_backend(self.config.cache)
                        if self.config.cache is not None else None)
        self._bucket = (_TokenBucket(self.config.rate_limit,
                                     self.config.rate_burst)
                        if self.config.rate_limit else None)
        self._server: asyncio.base_events.Server | None = None
        self._work = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()
        self._closing = False
        self.started = time.time()

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listening socket and start the background loops."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=self.config.max_body_bytes + 65536)
        if self.pool is not None:
            self._spawn(self._dispatch_loop())
        else:
            self._spawn(self._lease_loop())

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self.pool is not None:
            self.pool.shutdown()

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- execution: pool mode ------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Feed queued jobs to the local pool, ``workers`` at a time."""
        assert self.pool is not None
        slots = asyncio.Semaphore(self.pool.workers)
        while not self._closing:
            await slots.acquire()
            job = self.store.next_pending()
            while job is None:
                self._work.clear()
                await self._work.wait()
                if self._closing:
                    slots.release()
                    return
                job = self.store.next_pending()

            async def run_one(job=job):
                try:
                    await self._run_job(job)
                finally:
                    slots.release()

            self._spawn(run_one())

    async def _run_job(self, job) -> None:
        assert self.pool is not None
        self.store.mark_running(job)
        try:
            report = await asyncio.wait_for(
                self.pool.run(job.payload), self.config.job_timeout)
        except asyncio.TimeoutError:
            # The pool slot itself cannot be interrupted mid-compile;
            # the job is declared dead and the slot frees when the
            # underlying future resolves.
            self.telemetry.count("serve.timeouts")
            self.store.finish(job, TIMEOUT,
                              error=f"job exceeded the "
                                    f"{self.config.job_timeout}s limit")
            return
        except Exception as exc:  # noqa: BLE001 - pool death → job failure
            self.store.finish(job, FAILED, error=f"executor failure: {exc}")
            self.telemetry.count("serve.jobs_failed")
            return
        self._absorb_report(job, report)

    def _absorb_report(self, job, report: dict[str, Any]) -> None:
        """Fold a worker report into the store and the telemetry."""
        self._merge_counters(report.get("counters") or {})
        if report.get("ok"):
            self.store.finish(job, DONE, result=report.get("result"),
                              seconds=report.get("seconds"))
            self.telemetry.count("serve.jobs_completed")
        else:
            self.store.finish(job, FAILED,
                              error=report.get("error", "worker failure"),
                              seconds=report.get("seconds"))
            self.telemetry.count("serve.jobs_failed")

    def _merge_counters(self, counters: dict[str, Any]) -> None:
        for name, n in counters.items():
            if isinstance(n, int) and n > 0:
                self.telemetry.count(name, n)

    # -- execution: pull mode ------------------------------------------

    async def _lease_loop(self) -> None:
        """Re-queue claimed jobs whose worker went silent."""
        interval = max(1.0, self.config.lease_seconds / 4)
        while not self._closing:
            await asyncio.sleep(interval)
            self.store.reap_leases()

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader, writer)
            if request is None:
                return
            self.telemetry.count("serve.requests")
            await self._route(request, writer)
        except (ProtocolError, json.JSONDecodeError) as exc:
            await self._send(writer, 400, {"error": str(exc)})
        except QueueFullError as exc:
            await self._send(writer, 503, {"error": str(exc)})
        except UnknownJobError as exc:
            await self._send(writer, 404, {"error": str(exc)})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        except Exception as exc:  # noqa: BLE001 - a bad request must not kill the loop
            await self._send(writer, 500, {"error": f"internal error: {exc}"})
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> _Request | None:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("ascii").split()
        except ValueError:
            raise ProtocolError("malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_body_bytes:
            await self._send(writer, 413, {
                "error": f"body exceeds the "
                         f"{self.config.max_body_bytes}-byte limit"})
            return None
        body: Any = None
        if length:
            raw_body = await reader.readexactly(length)
            body = json.loads(raw_body.decode("utf-8"))
        split = urlsplit(target)
        peername = writer.get_extra_info("peername")
        peer = peername[0] if peername else "?"
        return _Request(method=method.upper(), path=split.path,
                        query=parse_qs(split.query), body=body, peer=peer)

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    obj: dict[str, Any]) -> None:
        if status in _REJECTIONS:
            self.telemetry.count("serve.rejections")
        obj.setdefault("wire_version", WIRE_VERSION)
        payload = json.dumps(obj).encode("utf-8")
        reason = _REASONS.get(status, "?")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        writer.write(head + payload)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(self, request: _Request,
                     writer: asyncio.StreamWriter) -> None:
        parts = [p for p in request.path.split("/") if p]
        request.parts = parts
        if len(parts) < 2 or parts[0] != "v1":
            raise UnknownJobError(f"no such endpoint {request.path!r}")
        method, head = request.method, parts[1]
        if head == "health" and method == "GET":
            await self._send(writer, 200, self._health())
        elif head == "stats" and method == "GET":
            await self._send(writer, 200, self._stats())
        elif head == "jobs" and method == "POST" and len(parts) == 2:
            await self._submit(request, writer)
        elif head == "batch" and method == "POST" and len(parts) == 2:
            await self._submit_batch(request, writer)
        elif head == "jobs" and method == "GET" and len(parts) == 3:
            await self._job_status(request, writer, parts[2])
        elif (head == "jobs" and method == "GET" and len(parts) == 4
                and parts[3] == "result"):
            job = self.store.get(parts[2])
            status = 200 if job.terminal else 202
            await self._send(writer, status, job.to_dict())
        elif (head == "jobs" and method == "GET" and len(parts) == 4
                and parts[3] == "events"):
            await self._stream_events(writer, parts[2])
        elif head == "cache" and len(parts) == 3 and parts[2] == "stats" \
                and method == "GET":
            await self._send(writer, 200, self._cache_stats())
        elif head == "cache" and len(parts) == 3 and parts[2] == "gc" \
                and method == "POST":
            await self._cache_gc(request, writer)
        elif head == "work" and len(parts) == 3 and parts[2] == "claim" \
                and method == "POST":
            await self._claim(request, writer)
        elif (head == "work" and method == "POST" and len(parts) == 4
                and parts[3] == "complete"):
            await self._complete(request, writer, parts[2])
        else:
            await self._send(writer, 405 if len(parts) >= 2 else 404,
                             {"error": f"cannot {method} {request.path}"})

    # -- handlers ------------------------------------------------------

    def _health(self) -> dict[str, Any]:
        from .. import __version__
        from ..arch.registry import list_cores
        served = frozenset(list_cores())
        if self.config.cores is not None:
            served &= self.config.cores
        return {
            "ok": True,
            "version": __version__,
            "mode": "pool" if self.pool is not None else "pull",
            "workers": self.config.workers,
            "cores": sorted(served),
            "uptime": time.time() - self.started,
        }

    def _stats(self) -> dict[str, Any]:
        return {
            "jobs": self.store.state_counts(),
            "queue_depth": len(self.store.pending),
            "latency": self.store.latency(),
            "counters": dict(self.telemetry.counters),
            "cache": self._cache_stats()["cache"],
        }

    def _cache_stats(self) -> dict[str, Any]:
        return {"cache": (backend_stats(self.backend)
                          if self.backend is not None else None)}

    def _accept(self, body: Any):
        """Validate one submission body into a queued Job."""
        parsed = parse_compile_request(
            body, allowed_cores=self.config.cores,
            max_source_bytes=self.config.max_source_bytes)
        options = parsed["options"]
        if self.config.cache is not None:
            # Cache placement is server policy (module docstring).
            options = options.replace(disk_cache=True,
                                      cache_dir=self.config.cache)
        payload = job_payload(parsed["source"], parsed["core"], options,
                              parsed["io_binding"], parsed["name"])
        job = self.store.submit(parsed["core"], parsed["name"], options,
                                payload)
        self.telemetry.count("serve.jobs")
        self._work.set()
        return job

    async def _submit(self, request: _Request,
                      writer: asyncio.StreamWriter) -> None:
        if self._bucket is not None and not self._bucket.allow(request.peer):
            await self._send(writer, 429, {"error": "rate limit exceeded"})
            return
        job = self._accept(request.body)
        await self._send(writer, 202, job.to_dict(include_result=False))

    async def _submit_batch(self, request: _Request,
                            writer: asyncio.StreamWriter) -> None:
        if self._bucket is not None and not self._bucket.allow(request.peer):
            await self._send(writer, 429, {"error": "rate limit exceeded"})
            return
        body = request.body
        if not isinstance(body, dict):
            raise ProtocolError("batch body must be a JSON object")
        check_wire_version(body)
        entries = body.get("jobs")
        if not isinstance(entries, list) or not entries:
            raise ProtocolError("'jobs' must be a non-empty array")
        if len(entries) > self.config.max_queue:
            raise QueueFullError(
                f"batch of {len(entries)} exceeds the queue bound "
                f"({self.config.max_queue})")
        # Validate the whole batch before queuing any of it: a batch
        # is accepted atomically or refused atomically.
        parsed = [parse_compile_request(
            entry, allowed_cores=self.config.cores,
            max_source_bytes=self.config.max_source_bytes)
            for entry in entries]
        if len(self.store.pending) + len(parsed) > self.config.max_queue:
            raise QueueFullError(
                f"queue full ({len(self.store.pending)} pending, "
                f"batch of {len(parsed)} refused)")
        jobs = [self._accept(entry) for entry in entries]
        await self._send(writer, 202, {
            "jobs": [job.to_dict(include_result=False) for job in jobs]})

    async def _job_status(self, request: _Request,
                          writer: asyncio.StreamWriter,
                          job_id: str) -> None:
        job = self.store.get(job_id)
        wait = request.query.get("wait")
        if wait and not job.terminal:
            try:
                deadline = min(60.0, float(wait[0]))
            except ValueError:
                raise ProtocolError("'wait' must be a number of "
                                    "seconds") from None
            end = time.monotonic() + deadline
            while not job.terminal:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    break
                await job.wait_change(remaining)
        await self._send(writer, 200, job.to_dict(include_result=False))

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             job_id: str) -> None:
        """NDJSON job transitions; the closed connection is the
        delimiter (stdlib-simple on both ends)."""
        job = self.store.get(job_id)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        while True:
            snapshot = job.to_dict(include_result=job.terminal)
            writer.write(json.dumps(snapshot).encode("utf-8") + b"\n")
            await writer.drain()
            if job.terminal:
                return
            await job.wait_change(timeout=15.0)

    async def _cache_gc(self, request: _Request,
                        writer: asyncio.StreamWriter) -> None:
        if self.backend is None:
            raise ProtocolError("this server has no cache backend "
                                "configured")
        body = request.body or {}
        check_wire_version(body)
        max_bytes = body.get("max_bytes")
        min_age = float(body.get("min_age", 0.0))
        with self.telemetry.span("serve.cache_gc"):
            removed = self.backend.gc(max_bytes, min_age=min_age)
        if removed:
            self.telemetry.count("cache.gc_removed", removed)
        await self._send(writer, 200, {
            "removed": removed, **self._cache_stats()})

    async def _claim(self, request: _Request,
                     writer: asyncio.StreamWriter) -> None:
        body = request.body or {}
        check_wire_version(body)
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker:
            raise ProtocolError("'worker' must name the claimant")
        self.store.reap_leases()
        job = self.store.claim(worker)
        if job is None:
            await self._send(writer, 200, {"job": None})
            return
        self.telemetry.count("serve.claims")
        await self._send(writer, 200, {
            "job": {"id": job.id, "payload": job.payload,
                    "lease_seconds": self.config.lease_seconds}})

    async def _complete(self, request: _Request,
                        writer: asyncio.StreamWriter,
                        job_id: str) -> None:
        body = request.body or {}
        check_wire_version(body)
        worker = body.get("worker")
        report = body.get("report")
        if not isinstance(worker, str) or not isinstance(report, dict):
            raise ProtocolError("'worker' and 'report' are required")
        job = self.store.get(job_id)
        self.store.complete(job_id, worker, report)
        self._merge_counters(report.get("counters") or {})
        self.telemetry.count("serve.jobs_completed" if job.state == DONE
                             else "serve.jobs_failed")
        await self._send(writer, 200, job.to_dict(include_result=False))


# ----------------------------------------------------------------------
# Embedding helpers (tests, the smoke job, notebooks)

class ServerHandle:
    """A server running on a background thread's event loop.

    ``with start_in_thread(config) as handle:`` gives synchronous
    code — tests, ``tools/serve_smoke.py`` — a live server plus its
    ``url``, torn down cleanly on exit.
    """

    def __init__(self, server: CompileServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def url(self) -> str:
        return f"http://{self.server.config.host}:{self.server.port}"

    def stop(self) -> None:
        future = asyncio.run_coroutine_threadsafe(self.server.close(),
                                                  self.loop)
        try:
            future.result(timeout=10)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=10)
            self.loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def start_in_thread(config: ServerConfig | None = None,
                    telemetry: Telemetry | None = None) -> ServerHandle:
    """Start a :class:`CompileServer` on a daemon thread; returns once
    the socket is bound (``handle.url`` is ready to hit)."""
    server = CompileServer(config, telemetry=telemetry)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=10):
        raise RuntimeError("compile server failed to start")
    return ServerHandle(server, loop, thread)
