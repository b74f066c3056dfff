"""Job execution for the compile server: the worker function + pools.

:func:`execute_compile_job` is the one function every execution style
runs — the server's local pools, and ``repro worker`` processes
pulling over HTTP.  It is module-level and takes/returns plain JSON
dicts so it crosses a :class:`~concurrent.futures.ProcessPoolExecutor`
boundary by pickle and an HTTP boundary by ``json`` with the same
shape.  It never raises: compile failures come back as structured
``{"ok": False, ...}`` reports, because a worker crash must fail one
job, not the pool.

A worker process keeps its toolchains for its whole life
(:class:`WorkerState`): each registered core is bound once, and each
backend spec has one :class:`~repro.pipeline.session.StageCache`,
whose memory tier serves every job and option set of this process
before the shared backend does.  A re-submission served by the same
worker is a memory hit; one served by another worker is a hit in the
shared backend, with the core already bound.

Observability crosses the process boundary by value: each job runs
under its own live :class:`~repro.obs.Telemetry` (scoped to the
calling thread, so concurrent thread-pool jobs never mix counters) and
ships the counter dict home in the report; the server merges it into
its own registry.  That is what lets ``GET /v1/stats`` answer "did
that second submission execute any stages?" (``stagecache.*``) even
when the compile happened in a child process.

:class:`WorkerPool` wraps the executor choice: ``"process"`` (the
default — compiles are CPU-bound and the scheduler holds the GIL) or
``"thread"`` (in-process; what the tests use so a ``memory:`` cache
backend and its counters stay visible to the asserting process).
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback
from concurrent.futures import Executor, ProcessPoolExecutor, \
    ThreadPoolExecutor
from typing import Any, Callable

from ..arch.library import CoreSpec
from ..arch.registry import registered_factory
from ..encode.image import program_to_dict
from ..errors import ReproError
from ..obs import Telemetry, use_telemetry
from ..options import CompileOptions
from ..pipeline.session import StageCache
from ..toolchain import Toolchain
from .protocol import WIRE_VERSION, check_wire_version


class WorkerState:
    """What one worker process keeps across its jobs.

    One toolchain per registered core holds the core's binding
    (:class:`~repro.pipeline.artifacts.BoundCore`); it is keyed by the
    name and its registered factory, so a re-registered name is bound
    afresh.  One :class:`StageCache` per backend spec holds the memory
    tier, bounded by its LRU.  A job's toolchain is a
    :meth:`~repro.toolchain.Toolchain.replace` variant of its core's,
    with the job's options and over its spec's cache, so jobs share
    both whatever their options (the stage keys cover the options).  A
    core given as a path is resolved per job.  The kept toolchains
    carry no telemetry: each job reports to the registry it runs
    under.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cores: dict[str, tuple[Callable[[], CoreSpec],
                                     Toolchain]] = {}
        self._caches: dict[tuple[bool, str | None], StageCache] = {}

    def toolchain(self, core: str, options: CompileOptions) -> Toolchain:
        """The toolchain one job on ``core`` under ``options`` runs."""
        placement = (options.disk_cache,
                     options.cache_dir if options.disk_cache else None)
        with self._lock:
            cache = self._caches.get(placement)
            if cache is None:
                cache = self._caches[placement] = StageCache.placed(options)
            factory = registered_factory(core)
            if factory is None:
                return Toolchain(core, options, cache=cache)
            kept = self._cores.get(core)
            if kept is None or kept[0] is not factory:
                kept = self._cores[core] = (factory,
                                            Toolchain(core, cache=None))
        return kept[1].replace(options=options, cache=cache)

    def clear(self) -> None:
        """Forget every kept binding and memory tier."""
        with self._lock:
            self._cores.clear()
            self._caches.clear()


#: This process's kept toolchains, shared by every job it runs.  A
#: pool process calls :func:`execute_compile_job` by import path with
#: nothing but the payload, so what it keeps lives at module level.
_STATE = WorkerState()


def execute_compile_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Compile one job payload (:func:`~repro.serve.protocol.job_payload`)
    to a completion report.

    The report always carries ``ok``, ``seconds`` and ``counters``;
    success adds ``result`` (``n_cycles``, ``cache`` counts, the
    microcode image dict, per-stage ``fingerprints``), failure adds
    ``error`` and ``error_type``.
    """
    telemetry = Telemetry()
    start = time.perf_counter()
    try:
        with use_telemetry(telemetry):
            check_wire_version(payload)
            options = CompileOptions.from_dict(payload["options"])
            if options.stop_after is not None:
                options = options.replace(stop_after=None)
            toolchain = _STATE.toolchain(payload["core"], options)
            state = toolchain.run_pipeline(
                payload["source"], io_binding=payload.get("io_binding"))
            compiled = state.as_compiled()
        return {
            "wire_version": WIRE_VERSION,
            "ok": True,
            "seconds": time.perf_counter() - start,
            "counters": dict(telemetry.counters),
            "result": {
                "name": payload.get("name"),
                "core": payload["core"],
                "n_cycles": compiled.n_cycles,
                "cache": state.cache_counts(),
                "fingerprints": dict(state.fingerprints),
                "program": program_to_dict(compiled.binary),
            },
        }
    except ReproError as exc:
        return {
            "wire_version": WIRE_VERSION,
            "ok": False,
            "seconds": time.perf_counter() - start,
            "counters": dict(telemetry.counters),
            "error": str(exc),
            "error_type": type(exc).__name__,
        }
    except Exception as exc:  # noqa: BLE001 - crash → report, not pool death
        return {
            "wire_version": WIRE_VERSION,
            "ok": False,
            "seconds": time.perf_counter() - start,
            "counters": dict(telemetry.counters),
            "error": f"internal error: {exc}",
            "error_type": type(exc).__name__,
            "traceback": traceback.format_exc(),
        }


class WorkerPool:
    """A bounded executor the server dispatches local jobs through."""

    def __init__(self, workers: int = 2, kind: str = "process"):
        if kind not in ("process", "thread"):
            raise ValueError(
                f"executor kind must be 'process' or 'thread', "
                f"got {kind!r}")
        self.workers = max(1, workers)
        self.kind = kind
        self._executor: Executor | None = None

    @property
    def executor(self) -> Executor:
        if self._executor is None:
            if self.kind == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-serve")
        return self._executor

    async def run(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Execute one job on the pool without blocking the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self.executor, execute_compile_job, payload)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
