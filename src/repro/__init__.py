"""repro — reproduction of *Efficient Code Generation for In-House
DSP-Cores* (Strik, van Meerbergen, Timmer, Jess, Note; DATE 1995).

A retargetable code generator for small in-house VLIW DSP cores:
register-transfer-based compilation with static instruction-set
conflict modelling, plus every substrate the paper relies on (target
architecture model, application frontend, schedulers, instruction
encoding, cycle-accurate simulation) and the benchmark harness
regenerating the paper's evaluation.

Quick start::

    from repro import CompileOptions, Toolchain

    toolchain = Toolchain("audio", CompileOptions(budget=64, opt=2))
    program = toolchain.compile(source_text)
    outputs = program.run({"IN_L": samples_l, "IN_R": samples_r})

:class:`Toolchain` binds a target core (a registered name — see
:func:`repro.arch.registry.list_cores` / :func:`register_core` — a
``CoreSpec`` or a JSON core file), a validated
:class:`CompileOptions` and a two-tier stage cache, then exposes
``compile()``, ``compile_many()``, ``run()`` and ``explore()``.  It is
the only way to compile, and :class:`CompileOptions` fields the only
way to pass options: the pre-Toolchain entry points were removed in
2.0.0 (``docs/api.md`` keeps the migration table).

Observability: hand a :class:`Telemetry` to
``Toolchain(..., telemetry=obs)`` (or scope one with
:func:`use_telemetry`) and every verb records per-stage spans, cache
and subsystem counters, and progress events — see
``docs/observability.md``.

Static analysis: ``Toolchain(..., verify="strict")`` checks invariants
at every stage boundary (raising :class:`VerificationError` on the
first broken artifact), and :func:`lint_program` audits an encoded
image without simulating it — see ``docs/analysis.md``.
"""

from .analyze import (
    Finding,
    Severity,
    lint_program,
    verify_state,
)
from .apps import adaptive_core
from .arch import (
    Allocation,
    CandidateSimulation,
    CoreSpec,
    ExploreCache,
    RefinedSweep,
    SweepSpec,
    audio_core,
    explore,
    explore_refined,
    fir_core,
    get_core,
    intermediate_architecture,
    list_cores,
    pareto_front,
    register_core,
    resolve_core,
    simulate_points,
    tiny_core,
)
from .errors import OptionsError, ReproError, VerificationError
from .fixed import Q15, FixedFormat
from .gen import (
    CorpusReport,
    FuzzConfig,
    FuzzReport,
    GenSpec,
    fuzz,
    generate_corpus,
    generate_dfg,
    run_corpus,
    shrink_dfg,
)
from .lang import DfgBuilder, parse_source, run_reference
from .obs import (
    Telemetry,
    current_telemetry,
    profile_compile,
    set_telemetry,
    use_telemetry,
    write_chrome_trace,
)
from .opt import OptReport, PassManager, optimize
from .options import CompileOptions
from .pipeline import (
    BatchResult,
    CacheBackend,
    CompiledProgram,
    CompileState,
    DiskCache,
    MemoryBackend,
    StageCache,
    backend_stats,
    open_backend,
)
from .serve import (
    CompileServer,
    ServeClient,
    ServerConfig,
    run_worker,
    start_in_thread,
)
from .sim import run_batch, run_program, run_programs
from .toolchain import Toolchain

__version__ = "2.0.0"

__all__ = [
    "Allocation",
    "BatchResult",
    "CacheBackend",
    "CandidateSimulation",
    "CompileOptions",
    "CompileServer",
    "CompileState",
    "CompiledProgram",
    "CoreSpec",
    "CorpusReport",
    "DfgBuilder",
    "DiskCache",
    "ExploreCache",
    "Finding",
    "FixedFormat",
    "FuzzConfig",
    "FuzzReport",
    "GenSpec",
    "MemoryBackend",
    "OptReport",
    "OptionsError",
    "PassManager",
    "Q15",
    "RefinedSweep",
    "ReproError",
    "ServeClient",
    "ServerConfig",
    "Severity",
    "StageCache",
    "SweepSpec",
    "Telemetry",
    "Toolchain",
    "VerificationError",
    "adaptive_core",
    "audio_core",
    "backend_stats",
    "current_telemetry",
    "explore",
    "explore_refined",
    "fir_core",
    "fuzz",
    "generate_corpus",
    "generate_dfg",
    "get_core",
    "intermediate_architecture",
    "lint_program",
    "list_cores",
    "open_backend",
    "optimize",
    "pareto_front",
    "parse_source",
    "profile_compile",
    "register_core",
    "resolve_core",
    "run_batch",
    "run_corpus",
    "run_program",
    "run_programs",
    "run_reference",
    "run_worker",
    "set_telemetry",
    "shrink_dfg",
    "simulate_points",
    "start_in_thread",
    "tiny_core",
    "use_telemetry",
    "verify_state",
    "write_chrome_trace",
    "__version__",
]
