"""The staged code generator: source → running microcode.

This is figure 1b end to end, with a machine-independent optimizer
layered in front, built as a *staged pipeline*:

0. **DFG optimization** (:mod:`repro.opt`) — constant folding, common
   subexpressions, algebraic identities, strength reduction and dead
   code removed from the data-flow graph (``-O0``/``-O1``/``-O2``,
   default ``-O1``).
1. **RT generation** (:mod:`repro.rtgen`) — lower the application's
   data-flow graph onto the core's datapath.
2. **RT modification** (:mod:`repro.core`) — merge register files and
   buses, then impose the instruction set by adding artificial conflict
   resources (sections 6.1-6.3).
3. **Scheduling & instruction encoding** (:mod:`repro.sched`,
   :mod:`repro.encode`) — pack RTs into VLIW instructions within the
   cycle budget, allocate registers, emit binary microcode.

Each phase is a first-class :class:`~repro.pipeline.stages.Stage`
consuming and producing typed artifacts with content fingerprints.
:class:`repro.toolchain.Toolchain` (the typed public facade, and the
only way to compile) drives the chain with per-stage caching, partial
compilation (``options.stop_after``) and resumption from a cached
prefix.

Caching is two-tiered: the in-process LRU :class:`StageCache` can be
layered over a persistent, content-addressed
:class:`~repro.pipeline.diskcache.DiskCache`, so a second process (or
a warm design-space sweep) restores stage artifacts from disk instead
of recomputing them.
:meth:`~repro.toolchain.Toolchain.compile_many` compiles a whole
application set through one shared cache.  See
``docs/architecture.md`` for the full walk-through.
"""

from __future__ import annotations

from .artifacts import (
    PIPELINE_VERSION,
    CompileRequest,
    CompileState,
    core_fingerprint,
    dfg_fingerprint,
    fingerprint,
)
from .backend import MemoryBackend, backend_stats, open_backend
from .diskcache import (
    CacheBackend,
    DiskCache,
    DiskCacheStats,
    VerifyReport,
    default_cache_dir,
)
from .program import CompiledProgram
from .session import (
    BatchEntry,
    BatchResult,
    CacheStats,
    ExploreCache,
    StageCache,
)
from .stages import PIPELINE_STAGES, STAGE_EXECUTIONS, STAGE_NAMES, Stage

__all__ = [
    "BatchEntry",
    "BatchResult",
    "CacheBackend",
    "CacheStats",
    "CompileRequest",
    "CompileState",
    "CompiledProgram",
    "DiskCache",
    "DiskCacheStats",
    "ExploreCache",
    "MemoryBackend",
    "VerifyReport",
    "backend_stats",
    "open_backend",
    "PIPELINE_STAGES",
    "PIPELINE_VERSION",
    "STAGE_EXECUTIONS",
    "STAGE_NAMES",
    "Stage",
    "StageCache",
    "core_fingerprint",
    "default_cache_dir",
    "dfg_fingerprint",
    "fingerprint",
]
