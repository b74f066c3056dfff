"""Job bookkeeping for the compile server: states, queue, claims.

One :class:`JobStore` lives inside the server's event loop, so it
needs no locks — every mutation happens on that loop.  What it does
need is *wakeups*: a status poll with ``wait=`` and the NDJSON event
stream both park on a job until something changes.  Each :class:`Job`
carries an :class:`asyncio.Event` that is pulsed (set, then replaced)
on every transition, so any number of waiters observe every change
without the store tracking them.

The pending queue is bounded (``max_queue``): a full queue refuses new
submissions with :class:`QueueFullError` — backpressure at the door,
translated to HTTP 503 by the server — rather than accepting work it
cannot start.  The same queue feeds both execution styles: the local
worker pools pop from it, and pull-mode remote workers (``repro
worker``) claim from it over ``/v1/work/claim`` with a lease that
re-queues the job if the claimant never reports back.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..errors import ReproError
from ..obs.profile import percentile
from ..options import CompileOptions
from .protocol import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    TIMEOUT,
    WIRE_VERSION,
)


class QueueFullError(ReproError):
    """The pending queue is at capacity; the submission was refused."""


class UnknownJobError(ReproError):
    """No job with the requested id exists on this server."""


@dataclass
class Job:
    """One submitted compilation, from request to terminal state."""

    id: str
    core: str
    name: str | None
    options: CompileOptions
    #: The JSON-able execution payload (:func:`protocol.job_payload`).
    payload: dict[str, Any]
    state: str = QUEUED
    submitted: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    #: Worker-reported compile wall-clock, not queue wait.
    seconds: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    #: Pull-mode claimant name, while claimed.
    worker: str | None = None
    #: Monotonic deadline after which a claimed job is re-queued.
    lease_deadline: float | None = None
    _change: asyncio.Event = field(default_factory=asyncio.Event,
                                   repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def pulse(self) -> None:
        """Wake every waiter; subsequent waits see a fresh event."""
        event, self._change = self._change, asyncio.Event()
        event.set()

    async def wait_change(self, timeout: float | None = None) -> bool:
        """Park until the next transition (or timeout).  Returns True
        if a change was observed."""
        if self.terminal:
            return True
        event = self._change
        try:
            await asyncio.wait_for(event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def to_dict(self, include_result: bool = True) -> dict[str, Any]:
        """The wire rendering (see :mod:`repro.serve.protocol`)."""
        rendered: dict[str, Any] = {
            "wire_version": WIRE_VERSION,
            "id": self.id,
            "name": self.name,
            "core": self.core,
            "state": self.state,
            "options": self.options.to_dict(),
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "seconds": self.seconds,
            "error": self.error,
        }
        rendered["result"] = self.result if include_result else None
        return rendered


class JobStore:
    """Every job this server has seen, plus the bounded pending queue."""

    def __init__(self, max_queue: int = 64, max_finished: int = 256,
                 lease_seconds: float = 300.0):
        self.max_queue = max_queue
        self.max_finished = max_finished
        self.lease_seconds = lease_seconds
        self.jobs: dict[str, Job] = {}
        self.pending: deque[Job] = deque()
        self._ids = itertools.count(1)
        #: Terminal job ids in finish order, for bounded retention.
        self._finished_order: deque[str] = deque()

    def __len__(self) -> int:
        return len(self.jobs)

    def submit(self, core: str, name: str | None,
               options: CompileOptions,
               payload: dict[str, Any]) -> Job:
        """Queue a validated request; raises :class:`QueueFullError`
        when the pending queue is at capacity."""
        if len(self.pending) >= self.max_queue:
            raise QueueFullError(
                f"queue full ({self.max_queue} jobs pending)")
        job = Job(id=f"j-{next(self._ids):06d}", core=core, name=name,
                  options=options, payload=payload)
        self.jobs[job.id] = job
        self.pending.append(job)
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job {job_id!r}") from None

    def next_pending(self) -> Job | None:
        """Pop the oldest queued job for local execution."""
        while self.pending:
            job = self.pending.popleft()
            if job.state == QUEUED:
                return job
        return None

    def mark_running(self, job: Job, worker: str | None = None) -> None:
        job.state = RUNNING
        job.started = time.time()
        job.worker = worker
        job.pulse()

    def finish(self, job: Job, state: str,
               result: dict[str, Any] | None = None,
               error: str | None = None,
               seconds: float | None = None) -> None:
        """Move a job to a terminal state and wake its waiters."""
        assert state in TERMINAL_STATES, state
        job.state = state
        job.finished = time.time()
        job.result = result
        job.error = error
        job.seconds = seconds
        job.lease_deadline = None
        job.pulse()
        self._finished_order.append(job.id)
        self._trim_finished()

    def _trim_finished(self) -> None:
        while len(self._finished_order) > self.max_finished:
            dropped = self._finished_order.popleft()
            self.jobs.pop(dropped, None)

    # -- pull mode (remote workers) ------------------------------------

    def claim(self, worker: str) -> Job | None:
        """Hand the oldest queued job to a remote worker under a lease."""
        job = self.next_pending()
        if job is None:
            return None
        self.mark_running(job, worker=worker)
        job.lease_deadline = time.monotonic() + self.lease_seconds
        return job

    def reap_leases(self) -> int:
        """Re-queue claimed jobs whose lease expired (worker died)."""
        now = time.monotonic()
        requeued = 0
        for job in self.jobs.values():
            if (job.state == RUNNING and job.lease_deadline is not None
                    and now > job.lease_deadline):
                job.state = QUEUED
                job.started = None
                job.worker = None
                job.lease_deadline = None
                self.pending.append(job)
                job.pulse()
                requeued += 1
        return requeued

    def complete(self, job_id: str, worker: str,
                 report: dict[str, Any]) -> Job:
        """Apply a pull-mode worker's completion report.

        Stale reports (the lease expired and the job was re-queued or
        re-claimed by someone else) are refused — exactly-once
        completion from the store's point of view.
        """
        job = self.get(job_id)
        if job.terminal:
            raise UnknownJobError(f"job {job_id!r} already finished")
        if job.worker != worker:
            raise UnknownJobError(
                f"job {job_id!r} is not claimed by {worker!r}")
        if report.get("ok"):
            self.finish(job, DONE, result=report.get("result"),
                        seconds=report.get("seconds"))
        else:
            self.finish(job, FAILED, error=report.get("error",
                                                      "worker failure"),
                        seconds=report.get("seconds"))
        return job

    # -- stats ---------------------------------------------------------

    def state_counts(self) -> dict[str, int]:
        counts = {state: 0 for state in
                  (QUEUED, RUNNING, DONE, FAILED, TIMEOUT, CANCELLED)}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def latency(self) -> dict[str, dict[str, Any]]:
        """Per terminal state, over the jobs the store retains: the job
        count and the p50/p90 milliseconds of the queue wait (``started
        - submitted``), of the worker-reported ``seconds`` and of the
        whole turnaround (``finished - submitted``).  A percentile is
        None when no job of the state has that time (a job cancelled
        while queued never started)."""
        samples = {state: {"queue_wait_ms": [], "worker_ms": [],
                           "total_ms": []}
                   for state in (DONE, FAILED, TIMEOUT, CANCELLED)}
        for job in self.jobs.values():
            if not job.terminal:
                continue
            times = samples[job.state]
            if job.started is not None:
                times["queue_wait_ms"].append(
                    1e3 * (job.started - job.submitted))
            if job.seconds is not None:
                times["worker_ms"].append(1e3 * job.seconds)
            times["total_ms"].append(1e3 * (job.finished - job.submitted))
        return {
            state: {"jobs": len(times["total_ms"]), **{
                name: ({"p50": round(percentile(values, 50), 3),
                        "p90": round(percentile(values, 90), 3)}
                       if values else None)
                for name, values in times.items()}}
            for state, times in samples.items()
        }
