"""The tracing/metrics core: spans, counters, events, the registry.

Design constraints, in order:

* **Zero dependencies.**  Standard library only; importable everywhere
  (the disk cache and the scheduler both report through here).
* **Free when off.**  The process-wide default registry is disabled:
  :meth:`Telemetry.span` then returns one shared no-op span (no
  allocation), and :meth:`Telemetry.count`/:meth:`Telemetry.event`
  return after a single attribute check.  Instrumentation can stay in
  the hot paths permanently.
* **Thread-correct.**  The span stack is thread-local (spans nest
  along each thread's own call stack); counters and event lists are
  lock-guarded.  The *current registry* is process-global — scoping it
  with :func:`use_telemetry` from concurrent threads is the one thing
  this module does not arbitrate.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Canonical counter names every instrumented layer emits, with their
#: meaning.  ``docs/observability.md`` documents this exact table and
#: ``tools/check_doc_links.py`` fails CI when the two drift apart.
COUNTERS: dict[str, str] = {
    "stagecache.hit": "stages restored from either memory tier or disk "
                      "(a restore covers its whole prefix)",
    "stagecache.disk_hit": "subset of stagecache.hit served by the "
                           "persistent disk tier",
    "stagecache.miss": "stages the cache did not cover, so they executed",
    "stagecache.store": "stage snapshots serialized into the memory tier",
    "stagecache.eviction": "memory-tier LRU evictions",
    "stagecache.restore": "stage snapshots deserialized (one per "
                          "resolved key run that hit)",
    "stagecache.bytes_pickled": "bytes the stage stores actually "
                                "pickled (each stage's frame: the "
                                "artifacts it changed)",
    "stagecache.bytes_stored": "bytes of the serialized stage snapshots "
                               "stored",
    "diskcache.hit": "on-disk entries read back successfully",
    "diskcache.miss": "on-disk lookups that found no usable entry",
    "diskcache.store": "on-disk entries published atomically",
    "diskcache.eviction": "on-disk entries deleted by the LRU size bound",
    "diskcache.corrupt": "on-disk entries dropped because they could "
                         "not be read back",
    "diskcache.version_skip": "intact on-disk entries skipped for "
                              "format/pipeline/schema skew",
    "diskcache.write_error": "on-disk stores abandoned (unwritable "
                             "directory, full disk)",
    "sched.list.attempts": "list-scheduler passes over the attempt "
                           "ladder (margins, restarts)",
    "sched.list.tightenings": "budget-minimization re-runs after a "
                              "feasible schedule was found",
    "sched.regalloc.intervals": "value lifetime intervals bound to "
                                "physical registers",
    "sched.regalloc.overflows": "register-file overflows (allocation "
                                "failures reported to the caller)",
    "rtgen.values_routed": "DFG values route-planned onto the datapath",
    "rtgen.copies_inserted": "copy RTs inserted to relay values the "
                             "producer cannot reach directly",
    "merge.rts_rewritten": "RTs rewritten while applying register-file/"
                           "bus merges",
    "explore.candidates": "design-space candidates actually evaluated "
                          "(memo misses)",
    "explore.cache_hits": "candidates served from the ExploreCache memo",
    "sim.cycles": "machine cycles executed, summed over every simulated "
                  "lane",
    "sim.frames": "sample frames consumed, summed over every simulated "
                  "lane",
    "sim.batch_width": "stimulus/candidate lanes entering the simulator "
                       "(1 per scalar run)",
    "verify.checks": "stage-boundary verifier passes run by the pipeline "
                     "(verify=boundaries/strict)",
    "verify.findings": "diagnostics produced by the stage verifiers and "
                       "the machine-code lint",
    "fuzz.cases": "generated applications exercised by the fuzz harness",
    "fuzz.failures": "fuzz cases that mismatched, crashed or failed lint",
    "cache.gc_removed": "backend entries deleted by an admin gc pass "
                        "(repro cache gc, POST /v1/cache/gc)",
    "cache.verify_failures": "backend entries dropped by an integrity "
                             "pass (corrupt or version-skewed)",
    "serve.requests": "HTTP requests handled by the compile server",
    "serve.jobs": "compile jobs accepted (submit and batch)",
    "serve.jobs_completed": "jobs that finished with a compiled artifact",
    "serve.jobs_failed": "jobs that finished with a compile error",
    "serve.timeouts": "jobs cancelled by the per-job wall-clock timeout",
    "serve.rejections": "requests refused before queuing (queue full, "
                        "rate limited, malformed, unknown core)",
    "serve.claims": "queued jobs handed to pull-mode remote workers",
}


class _NullSpan:
    """The shared do-nothing span the disabled registry hands out.

    One process-wide instance — entering it allocates nothing, which is
    what keeps instrumented hot paths free when telemetry is off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def tag(self, **tags: Any) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<null span>"


#: The one disabled-path span instance.
NULL_SPAN = _NullSpan()


class Span:
    """One timed interval in the span tree.

    Use as a context manager (via :meth:`Telemetry.span`): entering
    stamps the monotonic start and links the span under the thread's
    current parent; exiting stamps the duration.  ``tags`` is a plain
    dict — add to it mid-flight with :meth:`tag` (e.g. the cache source
    a stage was served from, known only after the lookup).
    """

    __slots__ = ("name", "tags", "start", "duration", "children",
                 "thread_id", "_telemetry")

    def __init__(self, name: str, tags: dict[str, Any],
                 telemetry: "Telemetry"):
        self.name = name
        self.tags = tags
        self.start = 0.0
        self.duration = 0.0
        self.children: list[Span] = []
        self.thread_id = 0
        self._telemetry = telemetry

    def tag(self, **tags: Any) -> None:
        """Attach (or overwrite) tags on an open or closed span."""
        self.tags.update(tags)

    def __enter__(self) -> "Span":
        self._telemetry._enter_span(self)
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._telemetry._exit_span(self)
        return False

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able rendering (children recursive)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "tags": dict(self.tags),
            "children": [child.to_dict() for child in self.children],
        }

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"{len(self.children)} children)")


class Telemetry:
    """One observability registry: a span tree, counters, gauges and an
    event stream.

    ``Telemetry()`` is enabled; ``Telemetry(enabled=False)`` is the
    null registry — every recording method returns after one attribute
    check, and :meth:`span` returns the shared :data:`NULL_SPAN`
    (nothing is allocated).  The process-wide default is a null
    registry; install a live one with :func:`set_telemetry` /
    :func:`use_telemetry`, or hand it to
    ``Toolchain(..., telemetry=obs)``.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Completed + in-flight top-level spans, in start order.
        self.roots: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.gauges: dict[str, float] = {}
        self.events: list[dict[str, Any]] = []
        self._callbacks: list[Callable[[dict[str, Any]], None]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Monotonic zero of this registry; span starts and event times
        #: are relative to it (what the Chrome trace uses as ts=0).
        self.epoch = time.perf_counter()

    @property
    def disabled(self) -> bool:
        """True for the null registry (nothing is recorded)."""
        return not self.enabled

    # -- spans ---------------------------------------------------------

    def span(self, name: str, **tags: Any):
        """A new child span of the thread's current span (a context
        manager).  On the disabled registry this is the shared no-op
        span — the call allocates nothing."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name, tags, self)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter_span(self, span: Span) -> None:
        span.start = time.perf_counter() - self.epoch
        span.thread_id = threading.get_ident()
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _exit_span(self, span: Span) -> None:
        span.duration = time.perf_counter() - self.epoch - span.start
        stack = self._stack()
        # Exiting out of order (a span closed from a different frame)
        # unwinds to the matching entry rather than corrupting nesting.
        while stack and stack.pop() is not span:
            pass

    @property
    def current_span(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def spans(self, name: str | None = None) -> list[Span]:
        """Every recorded span (depth-first over all roots), optionally
        filtered by exact name."""
        found: list[Span] = []
        for root in list(self.roots):
            for span in root.walk():
                if name is None or span.name == name:
                    found.append(span)
        return found

    # -- counters / gauges ---------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] += n

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value (no-op when
        disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = value

    # -- events --------------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        """Record a structured event and deliver it to every registered
        callback (no-op when disabled).

        The record carries ``name``, a monotonic ``time`` relative to
        the registry epoch, and the given fields verbatim.  Callback
        exceptions propagate — a progress callback is caller code.
        """
        if not self.enabled:
            return
        record = {"name": name,
                  "time": time.perf_counter() - self.epoch, **fields}
        with self._lock:
            self.events.append(record)
            callbacks = list(self._callbacks)
        for callback in callbacks:
            callback(record)

    def on_event(self, callback: Callable[[dict[str, Any]], None]):
        """Register a callback invoked with every event record (also a
        decorator).  Disabled registries accept but never call it."""
        with self._lock:
            self._callbacks.append(callback)
        return callback

    # -- export --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able rendering of everything recorded."""
        with self._lock:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            events = [dict(e) for e in self.events]
        return {
            "spans": [root.to_dict() for root in list(self.roots)],
            "counters": counters,
            "gauges": gauges,
            "events": events,
        }

    def clear(self) -> None:
        """Drop everything recorded (the registry stays installed)."""
        with self._lock:
            self.roots.clear()
            self.counters.clear()
            self.gauges.clear()
            self.events.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (f"Telemetry({state}, {len(self.roots)} roots, "
                f"{len(self.counters)} counters, "
                f"{len(self.events)} events)")


#: The null default: recording costs one attribute check, stores nothing.
_NULL = Telemetry(enabled=False)
_current: Telemetry = _NULL


def current_telemetry() -> Telemetry:
    """The process-wide registry instrumented code reports to."""
    return _current


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` as the process-wide registry (``None``
    restores the null default).  Returns the previous registry."""
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else _NULL
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry | None):
    """Scope the process-wide registry to a ``with`` block.

    The previous registry is restored on exit, so nested scopes (a
    toolchain verb inside a CLI command) compose.
    """
    previous = set_telemetry(telemetry)
    try:
        yield current_telemetry()
    finally:
        set_telemetry(previous)
