"""Job execution for the compile server: the worker function + pools.

:func:`execute_compile_job` is the one function every execution style
runs — the server's local pools, and ``repro worker`` processes
pulling over HTTP.  It is module-level and takes/returns plain JSON
dicts so it crosses a :class:`~concurrent.futures.ProcessPoolExecutor`
boundary by pickle and an HTTP boundary by ``json`` with the same
shape.  It never raises: compile failures come back as structured
``{"ok": False, ...}`` reports, because a worker crash must fail one
job, not the pool.

Observability crosses the process boundary by value: the worker runs
under its own live :class:`~repro.obs.Telemetry` and ships the counter
dict home in the report; the server merges it into its own registry.
That is what lets ``GET /v1/stats`` answer "did that second submission
execute any stages?" (``stagecache.*``) even when the compile happened
in a child process.

:class:`WorkerPool` wraps the executor choice: ``"process"`` (the
default — compiles are CPU-bound and the scheduler holds the GIL) or
``"thread"`` (in-process; what the tests use so a ``memory:`` cache
backend and its counters stay visible to the asserting process).
"""

from __future__ import annotations

import asyncio
import time
import traceback
from concurrent.futures import Executor, ProcessPoolExecutor, \
    ThreadPoolExecutor
from typing import Any

from ..encode.image import program_to_dict
from ..errors import ReproError
from ..obs import Telemetry
from ..options import CompileOptions
from ..toolchain import Toolchain
from .protocol import WIRE_VERSION, check_wire_version


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
        check_wire_version(payload)
        options = CompileOptions.from_dict(payload["options"])
        if options.stop_after is not None:
            options = options.replace(stop_after=None)
        toolchain = Toolchain(payload["core"], options,
                              telemetry=telemetry)
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
