"""The traced run: timing wrappers around each layer's public functions.

:class:`LayerTracer` patches the functions the pipeline, explorer,
cache tiers and simulator call into, from the benchmark's own files,
and harvests the counters and ``stage:<name>`` spans ``repro.obs``
already records.  Each wrapper adds whole microseconds and a call
count to integer counters (``perfbench.<metric>.us`` /
``.calls``) of whatever :class:`~repro.obs.Telemetry` is current when
the call happens.  Integer counters are what a compile server's worker
processes ship home with every job, so the same wrappers, installed in
a server process before it forks its pool (``serve_main.py``), report
per-layer time through ``/v1/stats``.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable

from common import median
from metrics import PER_LAYER, STAGES

#: (module, attribute, metric): module-level functions, patched where
#: the caller looks them up.
_FUNCTIONS = (
    ("repro.pipeline.stages", "parse_source", "lang.parse_ms"),
    ("repro.pipeline.stages", "optimize", "opt.optimize_ms"),
    ("repro.pipeline.stages", "generate_rts", "rtgen.generate_ms"),
    ("repro.pipeline.stages", "impose_instruction_set", "core.impose_ms"),
    ("repro.pipeline.stages", "build_dependence_graph", "sched.depgraph_ms"),
    ("repro.pipeline.stages", "list_schedule", "sched.list_ms"),
    ("repro.pipeline.stages", "allocate_registers", "sched.regalloc_ms"),
    ("repro.pipeline.stages", "assemble", "encode.assemble_ms"),
    ("repro.arch.explore", "intermediate_architecture", "arch.synthesize_ms"),
    ("repro.arch.explore", "_evaluate_candidate", "arch.candidate_ms"),
    ("repro.sim.batch", "decode_program", "sim.decode_ms"),
)

#: (module, class, method, metric): methods patched on their class.
_METHODS = (
    ("repro.pipeline.session", "StageCache", "get_entry",
     "pipeline.lookup_ms"),
    ("repro.core.instruction_set", "InstructionSet", "violations",
     "core.violations_ms"),
    ("repro.pipeline.session", "StageCache", "put", "pipeline.store_ms"),
    ("repro.pipeline.backend", "MemoryBackend", "get", "backend.get_ms"),
    ("repro.pipeline.backend", "MemoryBackend", "put", "backend.put_ms"),
    ("repro.pipeline.diskcache", "DiskCache", "get", "backend.get_ms"),
    ("repro.pipeline.diskcache", "DiskCache", "put", "backend.put_ms"),
)

#: Counters ``repro.obs`` emits that are per-layer metrics verbatim.
_COUNTERS = ("rtgen.copies_inserted", "sched.list.attempts",
             "stagecache.hit", "stagecache.miss", "diskcache.hit",
             "diskcache.store", "explore.candidates", "sim.cycles",
             "sim.batch_width")


def _timed(metric: str, function: Callable,
           after: Callable[[Any, tuple, Any], None] | None = None):
    from repro.obs import current_telemetry

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed = time.perf_counter() - start
        obs = current_telemetry()
        obs.count(f"perfbench.{metric}.us", int(elapsed * 1e6))
        obs.count(f"perfbench.{metric}.calls")
        if after is not None:
            after(obs, args, result)
        return result

    return wrapper


def _closure_sizes(obs, args, result) -> None:
    obs.count("perfbench.core.rt_classes", len(args[0]))
    obs.count("perfbench.core.instruction_types", len(result.types))


class LayerTracer:
    """Install (and later remove) every layer wrapper."""

    def __init__(self):
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self) -> "LayerTracer":
        for module_name, attribute, metric in _FUNCTIONS:
            module = importlib.import_module(module_name)
            self._patch(module, attribute,
                        _timed(metric, getattr(module, attribute)))
        for module_name, class_name, method, metric in _METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._patch(owner, method, _timed(metric, getattr(owner, method)))
        from repro.core.instruction_set import InstructionSet

        closure = InstructionSet.__dict__["from_desired"].__func__
        self._patch(InstructionSet, "from_desired", staticmethod(
            _timed("core.closure_ms", closure, _closure_sizes)))
        return self

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def traced_rounds(one_round: Callable[[], Any], pairs: int):
    """Run ``one_round`` untraced and traced, alternately, ``pairs``
    times each.

    Returns the tracing overhead (median traced time over median
    untraced time), the :class:`~repro.obs.Telemetry` that recorded
    every traced round, the traced rounds' results and the median
    untraced round time in seconds.
    """
    from repro import Telemetry, set_telemetry

    obs = Telemetry()
    plain, traced, results = [], [], []
    for _ in range(pairs):
        start = time.perf_counter()
        one_round()
        plain.append(time.perf_counter() - start)
        previous = set_telemetry(obs)
        tracer = LayerTracer().install()
        try:
            start = time.perf_counter()
            results.append(one_round())
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
            set_telemetry(previous)
    return median(traced) / median(plain), obs, results, median(plain)


def layer_metrics(counters: dict[str, int], spans=(),
                  rounds: int = 1) -> dict[str, float]:
    """Every per-layer metric from a counter dict and the ``stage:*``
    spans of ``rounds`` identical traced rounds; layers the rounds never
    entered read 0.

    Times are mean milliseconds per call; counts are per round, which
    is a fixed amount of work, so they repeat exactly.
    """
    values = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        calls = counters.get(f"perfbench.{name}.calls", 0)
        if calls:
            values[name] = counters[f"perfbench.{name}.us"] / 1e3 / calls
    closures = counters.get("perfbench.core.closure_ms.calls", 0)
    if closures:
        for name in ("core.rt_classes", "core.instruction_types"):
            values[name] = counters.get(f"perfbench.{name}", 0) / closures
    for name in _COUNTERS:
        values[name] = counters.get(name, 0) / rounds
    lookups = values["stagecache.hit"] + values["stagecache.miss"]
    if lookups:
        values["pipeline.hit_ratio"] = values["stagecache.hit"] / lookups
    durations: dict[str, list[float]] = {}
    for span in spans:
        if not span.name.startswith("stage:"):
            continue
        kind = ("exec_ms" if span.tags.get("cache_source") == "executed"
                else "restore_ms")
        durations.setdefault(f"stage.{span.name[6:]}.{kind}", []).append(
            span.duration * 1e3)
    for stage in STAGES:
        for kind in ("exec_ms", "restore_ms"):
            samples = durations.get(f"stage.{stage}.{kind}")
            if samples:
                values[f"stage.{stage}.{kind}"] = sum(samples) / len(samples)
    return values
