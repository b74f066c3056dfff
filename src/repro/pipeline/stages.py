"""First-class compilation stages.

The compiler, split along the paper's phase boundaries (figure 1b)
into eight composable stages::

    parse -> optimize -> rtgen -> merge -> impose -> schedule
          -> regalloc -> assemble

Each stage declares the artifacts it produces and a :meth:`Stage.key`
— the content fingerprint of everything that determines its output.
The :meth:`repro.toolchain.Toolchain.run_pipeline` driver runs the
chain, consults the cache keyed on these fingerprints, and can stop
after any stage (partial compilation) or resume from a cached prefix.

A hit at stage *k* certifies the entire prefix: parse, optimize and
rtgen key on the content they read, and every later stage is a
:class:`ChainedStage` whose key folds the key of the stage before it
into the request options it reads — no artifact — so the driver can
compute the whole tail of the chain up front.  Option
sensitivity is expressed through
:meth:`repro.options.CompileOptions.fingerprint` *subsets* — each
stage folds in the digest of exactly the option fields it reads, so a
changed budget invalidates scheduling but not the lowered prefix.
Where a stage's output is insensitive to part of the request, the key
omits it — e.g. the optimize stage keys on the core only at ``-O2``
(the sole level with a core-aware pass), so one optimized DFG is
shared across candidate cores during design-space exploration.

Every graph is validated once, where it is made: the builder checks a
parsed graph, the parse stage an outside one, and each optimizer half
the graph its passes produce.  The optimize and rtgen stages therefore
call the unchecked entry points of :mod:`repro.opt` and
:mod:`repro.rtgen` (whose public functions check the graph they are
handed), bound here under the public names so that a tracer patching
``stages.optimize`` or ``stages.generate_rts`` still times the stage.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from ..core.artificial import impose_instruction_set
from ..core.merge import apply_merges, merged_register_file_sizes
from ..encode.assembler import assemble
from ..lang.parser import parse_source
from ..obs import current_telemetry
from ..opt.manager import optimize_unchecked as optimize
from ..rtgen.generator import generate_rts_unchecked as generate_rts
from ..sched.dependence import build_dependence_graph
from ..sched.list_scheduler import list_schedule
from ..sched.regalloc import allocate_registers
from ..sched.schedule import Schedule
from .artifacts import (
    PIPELINE_VERSION,
    CompileRequest,
    CompileState,
    dfg_fingerprint,
    fingerprint,
    merges_key,
)


#: Process-wide tally of actual stage-body executions (cache restores
#: do not count).  The cross-process cache tests assert a warm compile
#: leaves every counter untouched.
STAGE_EXECUTIONS: Counter[str] = Counter()


class Stage:
    """One pipeline phase: a name, the artifacts it provides, a content
    key and a body operating on the shared :class:`CompileState`."""

    name: str = "?"
    provides: tuple[str, ...] = ()

    def key(self, state: CompileState) -> str:
        """Content fingerprint of everything that determines this
        stage's output on ``state`` (chained onto the upstream key)."""
        raise NotImplementedError

    def run(self, state: CompileState) -> None:
        """Produce this stage's artifacts into ``state.artifacts``."""
        raise NotImplementedError

    def execute(self, state: CompileState) -> None:
        """Run the stage body, counting the execution.

        The toolchain's driver calls this (never :meth:`run` directly) so
        :data:`STAGE_EXECUTIONS` stays an exact record of work done.
        When telemetry is live, the body runs inside a
        ``stage:<name>`` span tagged ``cache_source="executed"``.  A
        caching driver already has that span open (it covers the cache
        lookup too); execute then joins it — tagging instead of
        nesting a duplicate — while the uncached path opens its own.
        """
        STAGE_EXECUTIONS[self.name] += 1
        obs = current_telemetry()
        if not obs.enabled:
            self.run(state)
            return
        current = obs.current_span
        if current is not None and current.name == f"stage:{self.name}":
            current.tag(cache_source="executed")
            self.run(state)
            return
        key = state.fingerprints.get(self.name)
        with obs.span(f"stage:{self.name}", stage=self.name,
                      fingerprint=key[:16] if key else None,
                      cache_source="executed"):
            self.run(state)


class ChainedStage(Stage):
    """A stage keyed on the upstream stage's key plus request options.

    Its key reads no artifact, so a driver can compute it ahead of
    running the chain (:meth:`chain_key`) and probe the cache for the
    deepest stage already computed.
    """

    def key(self, state: CompileState) -> str:
        upstream = state.fingerprints.get(state.completed[-1], "") \
            if state.completed else ""
        return self.chain_key(upstream, state.request)

    def chain_key(self, upstream: str, request: CompileRequest) -> str:
        """This stage's key, given the key of the stage before it."""
        return fingerprint(self.name, PIPELINE_VERSION, upstream,
                           *self.key_parts(request))

    def key_parts(self, request: CompileRequest) -> tuple:
        """The request fields this stage's output depends on."""
        return ()


class ParseStage(Stage):
    """Source text → DFG (pass-through when handed a DFG directly)."""

    name = "parse"
    provides = ("source_dfg",)

    def key(self, state: CompileState) -> str:
        application = state.request.application
        if isinstance(application, str):
            return fingerprint(self.name, PIPELINE_VERSION, "text", application)
        return fingerprint(self.name, PIPELINE_VERSION, "dfg",
                           state.source_fp())

    def run(self, state: CompileState) -> None:
        application = state.request.application
        if isinstance(application, str):
            dfg = parse_source(application)     # the builder validates it
        else:
            application.validate()
            dfg = application
        state.artifacts["source_dfg"] = dfg


class OptimizeStage(Stage):
    """Machine-independent DFG optimization (:mod:`repro.opt`).

    Content-keyed on the *parsed graph*, not on the source text, so
    equivalent sources converge here.  The core enters the key only at
    ``-O2`` — the one level with a core-aware pass (strength reduction);
    below that, only the core's fixed-point format matters.
    """

    name = "optimize"
    provides = ("dfg", "opt_report")

    def key(self, state: CompileState) -> str:
        request = state.request
        core = request.core
        core_part = (state.core_fp() if request.options.opt >= 2
                     else ("fmt", core.data_width, core.frac_bits))
        return fingerprint(
            self.name, PIPELINE_VERSION,
            state.source_fp(),
            request.options.fingerprint("opt"), core_part,
        )

    def run(self, state: CompileState) -> None:
        request = state.request
        dfg, report = optimize(state.artifacts["source_dfg"],
                               core=request.core, level=request.options.opt)
        state.artifacts["dfg"] = dfg
        state.artifacts["opt_report"] = report


class RtGenStage(Stage):
    """Lower the (optimized) DFG onto the core's datapath (step 1)."""

    name = "rtgen"
    provides = ("base_program",)

    def key(self, state: CompileState) -> str:
        binding = state.request.io_binding
        return fingerprint(
            self.name, PIPELINE_VERSION,
            dfg_fingerprint(state.artifacts["dfg"]),
            state.core_fp(),
            sorted(binding.items()) if binding else None,
        )

    def run(self, state: CompileState) -> None:
        request = state.request
        bound = request.bound
        program = generate_rts(state.artifacts["dfg"], request.core,
                               request.io_binding, bound.routes)
        # Annotated here, while the RTs are this stage's own: impose
        # reads the classes and must not write into an earlier stage's
        # artifact.  RTs no class covers stay unannotated, so impose
        # still raises for them.
        table = bound.class_table
        for rt in program.rts:
            rt.rt_class = table.class_name(rt)
        state.artifacts["base_program"] = program


class MergeStage(ChainedStage):
    """Apply register-file/bus merges as RT modifications (step 2a).

    ``base_program`` (the unmerged lowering) is kept for binary
    generation on the physical core; ``program`` is what the scheduler
    sees.  Without merges the two are the same object.
    """

    name = "merge"
    provides = ("program", "base_rts", "capacities", "merged")

    def key_parts(self, request: CompileRequest) -> tuple:
        return (merges_key(request.merges),)

    def run(self, state: CompileState) -> None:
        merges = state.request.merges
        base = state.artifacts["base_program"]
        state.artifacts["base_rts"] = list(base.rts)
        merged = merges is not None and not merges.is_empty
        state.artifacts["merged"] = merged
        if merged:
            state.artifacts["capacities"] = \
                merged_register_file_sizes(base, merges)
            state.artifacts["program"] = apply_merges(base, merges)
        else:
            state.artifacts["capacities"] = None
            state.artifacts["program"] = base


class ImposeStage(ChainedStage):
    """Impose the instruction set via artificial resources (step 2b).

    ``program`` is replaced by a copy whose RTs carry the artificial
    resource uses; ``base_program`` stays the plain lowering.
    """

    name = "impose"
    provides = ("program", "conflict_model")

    def key_parts(self, request: CompileRequest) -> tuple:
        return (request.options.fingerprint("cover"),)

    def run(self, state: CompileState) -> None:
        request = state.request
        bound = request.bound
        program = state.artifacts["program"]
        model = impose_instruction_set(
            program.rts, bound.class_table, bound.instruction_set,
            cover_algorithm=request.options.cover,
        )
        state.artifacts["program"] = dataclasses.replace(program,
                                                         rts=model.rts)
        state.artifacts["conflict_model"] = model


class ScheduleStage(ChainedStage):
    """Pack RTs into VLIW instructions within the cycle budget."""

    name = "schedule"
    provides = ("dependence_graph", "schedule")

    def key_parts(self, request: CompileRequest) -> tuple:
        return (request.options.fingerprint("budget", "restarts", "seed"),)

    def run(self, state: CompileState) -> None:
        options = state.request.options
        graph = build_dependence_graph(state.artifacts["program"])
        schedule = list_schedule(graph, budget=options.budget,
                                 restarts=options.restarts,
                                 seed=options.seed)
        schedule.validate(graph)
        state.artifacts["dependence_graph"] = graph
        state.artifacts["schedule"] = schedule


class RegallocStage(ChainedStage):
    """Bind virtual values to physical registers along the schedule."""

    name = "regalloc"
    provides = ("allocation",)

    def run(self, state: CompileState) -> None:
        state.artifacts["allocation"] = allocate_registers(
            state.artifacts["program"], state.artifacts["schedule"],
            state.artifacts["capacities"],
        )


class AssembleStage(ChainedStage):
    """Emit binary microcode.

    For a merged core the schedule was computed against the *merged*
    resources; merging only restricts parallelism, so the cycles are
    transplanted onto the original RTs and encoding targets the
    physical (unmerged) datapath — exactly the monolith's behavior.
    """

    name = "assemble"
    provides = ("binary",)

    def key_parts(self, request: CompileRequest) -> tuple:
        return (request.options.fingerprint("mode", "repeat"),)

    def run(self, state: CompileState) -> None:
        options = state.request.options
        tables = state.request.bound.encoding
        a = state.artifacts
        schedule = a["schedule"]
        if a["merged"]:
            base_program = a["base_program"]
            encode_cycles = {
                base: schedule.cycle_of[scheduled]
                for base, scheduled in zip(a["base_rts"], a["program"].rts)
            }
            encode_schedule = Schedule(
                cycle_of=encode_cycles, length=schedule.length,
                budget=schedule.budget,
            )
            encode_allocation = allocate_registers(base_program,
                                                   encode_schedule)
            a["binary"] = assemble(base_program, encode_schedule,
                                   encode_allocation, mode=options.mode,
                                   repeat_count=options.repeat,
                                   tables=tables)
        else:
            a["binary"] = assemble(a["program"], schedule, a["allocation"],
                                   mode=options.mode,
                                   repeat_count=options.repeat,
                                   tables=tables)


#: The canonical stage chain, in execution order.
PIPELINE_STAGES: tuple[Stage, ...] = (
    ParseStage(),
    OptimizeStage(),
    RtGenStage(),
    MergeStage(),
    ImposeStage(),
    ScheduleStage(),
    RegallocStage(),
    AssembleStage(),
)

STAGE_NAMES: tuple[str, ...] = tuple(s.name for s in PIPELINE_STAGES)
