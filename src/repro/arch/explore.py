"""Phase-1 support: intermediate architectures and design-space
exploration (paper, sections 1 and 4).

"During phase 1 a representative set of applications within the target
application domain is implemented using existing ASIC synthesis tools
for the design space exploration.  Based on this quantitative feedback
a core architecture including the instruction set is defined."

and, on the compiler side (section 4): "The generated RTs can be
executed on an intermediate datapath which is equivalent to the
Piramid/Cathedral2 architecture."

:func:`intermediate_architecture` synthesises that starting point for a
set of applications: one or more OPUs per operation kind, one register
file per OPU input port, one bus per OPU and full fan-out (every bus
reaches every compatible operand file).  :func:`explore` sweeps
candidate allocations and reports the schedule length of each — the
quantitative feedback a core designer iterates on before freezing the
instruction set.

The design space is *multi-dimensional*: an :class:`Allocation` fixes
not just the OPU unit counts but the register-file capacity, the
data/coefficient memory sizes and a register-file merge variant, and a
:class:`SweepSpec` enumerates a candidate grid over all of those axes.
Because the full cross-product blows up combinatorially,
:func:`explore_refined` runs a **coarse-to-fine** sweep: a thinned grid
first, then only the fine-grid neighborhoods of the coarse Pareto
front.

The explorer is *optimizer-aware* and built on the staged pipeline:

* each application is machine-independently optimized **once per opt
  level** (the candidate cores are sized from the optimized graphs,
  not the source as written); only the core-aware specialization
  (``-O2`` strength reduction) re-runs per candidate;
* candidates fan out over a ``concurrent.futures`` worker pool
  (``jobs=``): the optimized application set ships to each worker
  exactly once (pool initializer), and each task carries only its
  allocation;
* infeasible candidates are not dropped: every
  :class:`ExplorationPoint` records per-application failure reasons;
* :func:`pareto_front` extracts the candidates worth a designer's
  attention (no other candidate is at least as good on every cost
  axis and better on one);
* repeated sweeps reuse an
  :class:`~repro.pipeline.session.ExploreCache` — a designer
  narrowing the ranges pays only for the new candidates — and the
  coarse and fine phases of a refined sweep share one cache.
"""

from __future__ import annotations

import concurrent.futures
import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING

from ..errors import ArchitectureError, ReproError
from ..lang.dfg import Dfg, NodeKind
from ..obs import Telemetry, current_telemetry, use_telemetry
from ..opt import specialize_for_core
from ..options import CompileOptions
from .controller import ControllerSpec
from .datapath import Datapath
from .library import ClassDef, CoreSpec
from .merge import MergeSpec
from .opu import Operation, OpuKind

if TYPE_CHECKING:
    from ..pipeline.session import ExploreCache

#: Operation sets per functional-unit kind the allocator can instantiate.
_ALU_OPS = ("add", "sub", "add_clip", "pass", "pass_clip")
_KNOWN_ALU = set(_ALU_OPS)

#: Pseudo-application key for failures of core synthesis itself.
ARCHITECTURE_FAILURE = "(architecture)"


# ---------------------------------------------------------------------------
# Merge variants: named datapath sharings a sweep can enumerate.
# ---------------------------------------------------------------------------

def _merge_none(core: CoreSpec) -> MergeSpec | None:
    return None


def _merge_operand_files(core: CoreSpec, kind: OpuKind) -> MergeSpec | None:
    """Share one operand file per OPU of ``kind`` (both input ports
    read it — for a multiplier that is data and coefficient)."""
    dp = core.datapath
    spec = MergeSpec()
    for opu in dp.opus.values():
        if opu.kind is kind:
            parts = [dp.port_register_file(opu, 0).name,
                     dp.port_register_file(opu, 1).name]
            spec.merge_register_files(f"m_{opu.name}", parts)
    return None if spec.is_empty else spec


#: Named merge variants a sweep can put on its ``merge_variants`` axis.
#: Each maps a synthesized intermediate core to a
#: :class:`~repro.arch.merge.MergeSpec` (or ``None`` when the variant
#: has nothing to merge on that core — it then degenerates to "none").
MERGE_VARIANTS = {
    "none": _merge_none,
    "alu-operands": partial(_merge_operand_files, kind=OpuKind.ALU),
    "mult-operands": partial(_merge_operand_files, kind=OpuKind.MULT),
}

#: Operation a variant needs on the application set to merge anything;
#: without it the variant degenerates to "none" (ALUs always exist, so
#: only the multiplier variant is conditional).
_VARIANT_REQUIRES = {"mult-operands": "mult"}


def _check_merge_variant(variant: str) -> None:
    if variant not in MERGE_VARIANTS:
        raise ArchitectureError(
            f"unknown merge variant {variant!r} "
            f"(known: {', '.join(sorted(MERGE_VARIANTS))})"
        )


def canonical_variant(variant: str, operations: set[str]) -> str:
    """The variant an application set actually experiences: ``none``
    when the named variant has nothing to merge (e.g. ``mult-operands``
    on a set without multiplies), so degenerate candidates share the
    plain candidate's cache entry instead of recompiling it."""
    required = _VARIANT_REQUIRES.get(variant)
    if required is not None and required not in operations:
        return "none"
    return variant


def _canonical_allocation(allocation: Allocation,
                          operations: set[str]) -> Allocation:
    """``allocation`` with its merge variant canonicalized
    (:func:`canonical_variant`): the candidate a sweep evaluates and
    keys it under."""
    variant = canonical_variant(allocation.merge_variant, operations)
    if variant == allocation.merge_variant:
        return allocation
    return replace(allocation, merge_variant=variant)


def merge_spec_for(variant: str, core: CoreSpec) -> MergeSpec | None:
    """The merge spec a named variant applies to ``core``."""
    _check_merge_variant(variant)
    return MERGE_VARIANTS[variant](core)


@dataclass(frozen=True)
class Allocation:
    """One design-space candidate: unit counts, storage sizes and the
    register-file merge variant of an intermediate architecture."""

    n_mult: int = 1
    n_alu: int = 1
    n_ram: int = 1
    rf_size: int = 16
    ram_size: int = 256
    rom_size: int = 128
    merge_variant: str = "none"

    def __post_init__(self) -> None:
        if min(self.n_mult, self.n_alu, self.n_ram) < 1:
            raise ArchitectureError("allocation needs at least one unit of each kind")
        if min(self.rf_size, self.ram_size, self.rom_size) < 1:
            raise ArchitectureError(
                f"allocation needs rf/ram/rom sizes >= 1, got "
                f"rf_size={self.rf_size}, ram_size={self.ram_size}, "
                f"rom_size={self.rom_size}"
            )
        _check_merge_variant(self.merge_variant)

    def astuple(self) -> tuple:
        return _field_values(type(self))(self)


@cache
def _field_values(cls) -> attrgetter:
    """A getter of every field of dataclass ``cls``, as a tuple in field
    order; read once per class (an allocation has more than one field,
    so the getter always returns a tuple)."""
    return attrgetter(*(f.name for f in fields(cls)))


#: ``SweepSpec`` axis name -> the :class:`Allocation` field it sweeps.
_SWEEP_AXES = (
    ("n_mults", "n_mult"),
    ("n_alus", "n_alu"),
    ("n_rams", "n_ram"),
    ("rf_sizes", "rf_size"),
    ("ram_sizes", "ram_size"),
    ("rom_sizes", "rom_size"),
)


@dataclass(frozen=True)
class SweepSpec:
    """A candidate grid over every architectural axis.

    Numeric axes are stored sorted and deduplicated; the merge-variant
    axis is categorical and keeps its given order.
    :meth:`allocations` enumerates the full cross-product in
    deterministic order; :meth:`coarse` thins every numeric axis to
    every other value (endpoints always kept) for the first phase of a
    coarse-to-fine sweep; :meth:`neighborhood` expands one grid point
    back to the fine values its coarse cell covers.
    """

    n_mults: tuple[int, ...] = (1,)
    n_alus: tuple[int, ...] = (1,)
    n_rams: tuple[int, ...] = (1,)
    rf_sizes: tuple[int, ...] = (16,)
    ram_sizes: tuple[int, ...] = (256,)
    rom_sizes: tuple[int, ...] = (128,)
    merge_variants: tuple[str, ...] = ("none",)

    def __post_init__(self) -> None:
        for name, _ in _SWEEP_AXES:
            values = tuple(sorted(set(getattr(self, name))))
            if not values:
                raise ArchitectureError(f"sweep axis {name} is empty")
            if values[0] < 1:
                raise ArchitectureError(
                    f"sweep axis {name} has values < 1: {values}"
                )
            object.__setattr__(self, name, values)
        variants = []
        for variant in self.merge_variants:
            _check_merge_variant(variant)
            if variant not in variants:
                variants.append(variant)
        if not variants:
            raise ArchitectureError("sweep axis merge_variants is empty")
        object.__setattr__(self, "merge_variants", tuple(variants))

    @property
    def size(self) -> int:
        """Number of grid points in the full cross-product."""
        total = len(self.merge_variants)
        for name, _ in _SWEEP_AXES:
            total *= len(getattr(self, name))
        return total

    def allocations(self) -> list[Allocation]:
        """Every grid point, in deterministic axis order."""
        axes = [getattr(self, name) for name, _ in _SWEEP_AXES]
        return [
            Allocation(*values, merge_variant=variant)
            for values in itertools.product(*axes)
            for variant in self.merge_variants
        ]

    def coarse(self) -> "SweepSpec":
        """The thinned grid of phase 1: every other value per numeric
        axis, endpoints always kept; merge variants (categorical, and
        few) are enumerated in full."""
        def thin(axis: tuple[int, ...]) -> tuple[int, ...]:
            if len(axis) <= 2:
                return axis
            kept = axis[::2]
            return kept if axis[-1] in kept else kept + (axis[-1],)

        return SweepSpec(
            **{name: thin(getattr(self, name)) for name, _ in _SWEEP_AXES},
            merge_variants=self.merge_variants,
        )

    def neighborhood(self, allocation: Allocation) -> list[Allocation]:
        """The fine-grid cell around one (coarse) grid point: per axis,
        the fine values strictly between the point's coarse neighbors,
        plus the point's own value.  The merge variant is held fixed —
        variants are fully enumerated in the coarse phase already."""
        coarse = self.coarse()
        windows = []
        for spec_name, alloc_name in _SWEEP_AXES:
            fine = getattr(self, spec_name)
            coarse_axis = getattr(coarse, spec_name)
            value = getattr(allocation, alloc_name)
            below = max((c for c in coarse_axis if c < value), default=value)
            above = min((c for c in coarse_axis if c > value), default=value)
            windows.append(tuple(
                w for w in fine if below < w < above or w == value
            ))
        return [
            Allocation(*values, merge_variant=allocation.merge_variant)
            for values in itertools.product(*windows)
        ]


def required_operations(dfgs: list[Dfg]) -> set[str]:
    """All dataflow operations the applications use."""
    operations: set[str] = set()
    for dfg in dfgs:
        for node in dfg.nodes:
            if node.kind is NodeKind.OP:
                operations.add(node.name)
    return operations


def intermediate_architecture(
    dfgs: list[Dfg],
    allocation: Allocation | None = None,
    name: str = "intermediate",
) -> CoreSpec:
    """Synthesize the Cathedral-2-like intermediate core for ``dfgs``.

    The result has distributed per-port register files, one bus per
    OPU, full fan-out, and a *fully parallel* instruction set (one
    maximal type containing every class): no instruction-set
    restrictions, which is exactly what step 1 of the compiler assumes.
    """
    allocation = allocation or Allocation()
    operations = required_operations(dfgs)
    unknown_alu = {
        op for op in operations if op not in _KNOWN_ALU and op != "mult"
    }
    if unknown_alu:
        raise ArchitectureError(
            f"no functional-unit template supports operations "
            f"{sorted(unknown_alu)}; extend the allocator with an ASU"
        )
    needs_mult = "mult" in operations
    needs_state = any(dfg.states for dfg in dfgs)
    needs_params = needs_mult or any(dfg.params for dfg in dfgs)
    n_inputs = max((len(dfg.inputs) for dfg in dfgs), default=0)
    n_outputs = max((len(dfg.outputs) for dfg in dfgs), default=1)

    dp = Datapath(name)
    alus = [
        dp.add_opu(f"alu_{i}" if allocation.n_alu > 1 else "alu", OpuKind.ALU, [
            Operation("add", arity=2, commutative=True),
            Operation("sub", arity=2),
            Operation("add_clip", arity=2, commutative=True),
            Operation("pass", arity=1),
            Operation("pass_clip", arity=1),
        ])
        for i in range(allocation.n_alu)
    ]
    mults = []
    if needs_mult:
        mults = [
            dp.add_opu(f"mult_{i}" if allocation.n_mult > 1 else "mult",
                       OpuKind.MULT,
                       [Operation("mult", arity=2, commutative=True)])
            for i in range(allocation.n_mult)
        ]
    rams = []
    acus = []
    if needs_state:
        rams = [
            dp.add_opu(f"ram_{i}" if allocation.n_ram > 1 else "ram",
                       OpuKind.RAM, [
                           Operation("read", arity=1, reads_memory=True),
                           Operation("write", arity=2, writes_memory=True),
                       ], memory_size=allocation.ram_size)
            for i in range(allocation.n_ram)
        ]
        # One address unit per data memory (X/Y dual-memory style).
        acus = [
            dp.add_opu(f"acu_{i}" if allocation.n_ram > 1 else "acu",
                       OpuKind.ACU, [Operation("addmod", arity=2)])
            for i in range(allocation.n_ram)
        ]
    rom = None
    if needs_params:
        rom = dp.add_opu("rom", OpuKind.ROM,
                         [Operation("const", arity=1, reads_memory=True)],
                         memory_size=allocation.rom_size)
    # The program-constant unit is unconditional: it drives ROM
    # addresses and supplies immediate constants, and the Cathedral-2
    # template always carries one.
    prg = dp.add_opu("prg_c", OpuKind.CONST, [Operation("const", arity=1)])
    ipb = dp.add_opu("ipb", OpuKind.INPUT, [Operation("read", arity=0)]) \
        if n_inputs else None
    opbs = [
        dp.add_opu(f"opb_{i}" if n_outputs > 1 else "opb", OpuKind.OUTPUT,
                   [Operation("write", arity=1)])
        for i in range(max(n_outputs, 1))
    ]

    # One register file per register-fed input port.
    def feed(opu, index):
        rf = dp.add_register_file(f"rf_{opu.name}_p{index}", allocation.rf_size)
        dp.connect_port(opu, index, rf)
        return rf

    operand_files = []   # files that receive routed data values
    for alu in alus:
        operand_files.append(feed(alu, 0))
        operand_files.append(feed(alu, 1))
    mult_data_files = []
    mult_coef_files = []
    for mult in mults:
        mult_data_files.append(feed(mult, 0))
        mult_coef_files.append(feed(mult, 1))
    ram_addr_files = []
    ram_data_files = []
    for ram in rams:
        ram_addr_files.append(feed(ram, 0))
        ram_data_files.append(feed(ram, 1))
    for acu in acus:
        feed(acu, 0)
        dp.make_immediate_port(acu, 1)
    rom_addr_file = feed(rom, 0) if rom is not None else None
    dp.make_immediate_port(prg, 0)
    opb_files = [feed(opb, 0) for opb in opbs]

    producers = [*alus, *mults, *rams]
    if ipb is not None:
        producers.append(ipb)
    buses = {opu.name: dp.attach_bus(opu) for opu in producers}
    for acu in acus:
        buses[acu.name] = dp.attach_bus(acu)
    if rom is not None:
        buses[rom.name] = dp.attach_bus(rom)
    buses[prg.name] = dp.attach_bus(prg)

    # Full fan-out: every data producer reaches every operand file.
    data_targets = (operand_files + mult_data_files + ram_data_files
                    + opb_files)
    for opu in producers:
        for rf in data_targets:
            dp.route_bus(buses[opu.name], rf)
    # Dedicated paths: coefficients, addresses, the frame pointer.
    if rom is not None:
        for rf in mult_coef_files:
            dp.route_bus(buses[rom.name], rf)
        dp.route_bus(buses[prg.name], rom_addr_file)
    elif mult_coef_files:
        for rf in mult_coef_files:
            dp.route_bus(buses[prg.name], rf)
    for acu, addr_file in zip(acus, ram_addr_files):
        dp.route_bus(buses[acu.name], addr_file)
        dp.route_bus(buses[acu.name], dp.port_register_file(acu, 0))

    class_defs = [
        ClassDef(opu.name, opu.name, tuple(sorted(opu.operations)))
        for opu in dp.opus.values()
    ]
    # Fully parallel: one maximal instruction type with every class.
    instruction_types = [frozenset(cd.name for cd in class_defs)]
    return CoreSpec(
        name=name,
        datapath=dp,
        controller=ControllerSpec(stack_depth=4, program_size=1024),
        class_defs=class_defs,
        instruction_types=instruction_types,
    )


@dataclass(frozen=True)
class ExplorationPoint:
    """One design-space candidate and its quantitative feedback.

    ``schedule_lengths`` holds one entry per application that compiled;
    ``failures`` maps the applications that did not (or the
    :data:`ARCHITECTURE_FAILURE` pseudo-key when core synthesis itself
    failed) to a human-readable reason.  ``n_rfs`` counts the physical
    register files *after* the candidate's merge variant is applied;
    ``storage_words`` totals every word of storage the candidate
    instantiates (registers + data memories + coefficient ROM) — the
    cost axes :func:`pareto_front` can trade against schedule length.
    A point is frozen, its mappings read-only copies, so the memo, a
    sweep's alias rows and every caller share one object.
    """

    allocation: Allocation
    schedule_lengths: Mapping[str, int]
    n_opus: int
    failures: Mapping[str, str] = field(default_factory=dict)
    opt_level: int = 1
    n_rfs: int = 0
    storage_words: int = 0

    def __post_init__(self) -> None:
        for name in ("schedule_lengths", "failures"):
            object.__setattr__(self, name,
                               MappingProxyType(dict(getattr(self, name))))

    def __reduce__(self):
        # A mapping proxy does not pickle: ship plain dicts.
        return ExplorationPoint, (
            self.allocation, dict(self.schedule_lengths), self.n_opus,
            dict(self.failures), self.opt_level, self.n_rfs,
            self.storage_words)

    @property
    def feasible(self) -> bool:
        """True when every application compiled on this candidate."""
        return not self.failures and bool(self.schedule_lengths)

    @property
    def worst_length(self) -> int:
        """The binding schedule length across the application set."""
        if not self.schedule_lengths:
            reasons = "; ".join(
                f"{app}: {reason}" for app, reason in self.failures.items()
            ) or "no applications were compiled"
            raise ArchitectureError(
                f"candidate {self.allocation} has no schedule lengths "
                f"({reasons})"
            )
        return max(self.schedule_lengths.values())


#: Classic cost axes: schedule length vs datapath size.  The default,
#: and bit-compatible with 3-axis unit-count sweeps.
PARETO_AXES = ("worst_length", "n_opus")

#: Cost axes of a multi-dimensional sweep: storage sizing and merge
#: variants differentiate candidates the OPU count cannot.
STORAGE_AXES = ("worst_length", "n_opus", "n_rfs", "storage_words")


def pareto_axes(spec: SweepSpec) -> tuple[str, ...]:
    """The cost axes appropriate for a sweep: the classic pair when
    only unit counts vary, the storage-aware set when register-file or
    memory sizes or merge variants are on the grid."""
    storage_varies = any(
        len(getattr(spec, name)) > 1
        for name in ("rf_sizes", "ram_sizes", "rom_sizes")
    ) or len(spec.merge_variants) > 1
    return STORAGE_AXES if storage_varies else PARETO_AXES


def pareto_front(points: list[ExplorationPoint],
                 axes: tuple[str, ...] = PARETO_AXES) -> list[ExplorationPoint]:
    """The non-dominated feasible candidates.

    A point dominates another when it is no worse on every cost axis
    and strictly better on at least one.  ``axes`` names
    :class:`ExplorationPoint` attributes, all minimized; the default
    pair (worst schedule length, OPU count) reproduces the classic
    two-axis front, :data:`STORAGE_AXES` adds register-file count and
    total storage words for multi-dimensional sweeps.
    """
    feasible = [p for p in points if p.feasible]
    costs = [tuple(getattr(p, axis) for axis in axes) for p in feasible]
    front = []
    for p, cost in zip(feasible, costs):
        dominated = any(
            all(q <= c for q, c in zip(other, cost))
            and any(q < c for q, c in zip(other, cost))
            for other in costs
        )
        if not dominated:
            front.append(p)
    return front


def _evaluate_candidate(dfgs: list[Dfg], allocation: Allocation,
                        options: CompileOptions) -> ExplorationPoint:
    """Evaluate one allocation: synthesize the core, apply its merge
    variant, compile every application through register allocation,
    record lengths/failures.

    ``dfgs`` are the machine-independently optimized graphs; ``options``
    is the sweep's base :class:`~repro.options.CompileOptions` — its
    budget, cover algorithm and scheduler restarts/seed all shape the
    feedback (``mode``/``repeat`` do not: evaluation stops before
    assembly).  Only compiler/architecture errors are treated as
    infeasibility — anything else is a bug and propagates.
    """
    from ..toolchain import Toolchain

    opt_level = options.opt
    try:
        core = intermediate_architecture(dfgs, allocation)
        merges = merge_spec_for(allocation.merge_variant, core)
    except ReproError as exc:
        return ExplorationPoint(
            allocation=allocation, schedule_lengths={}, n_opus=0,
            failures={ARCHITECTURE_FAILURE: f"{type(exc).__name__}: {exc}"},
            opt_level=opt_level,
        )
    n_rfs = len(core.datapath.register_files)
    if merges is not None:
        n_rfs -= sum(len(m.parts) - 1 for m in merges.register_file_merges)
    storage_words = sum(
        rf.size for rf in core.datapath.register_files.values()
    ) + sum(
        opu.memory_size or 0 for opu in core.datapath.opus.values()
    )
    lengths: dict[str, int] = {}
    failures: dict[str, str] = {}
    # The graphs are already machine-independently optimized (opt=0
    # here skips only the MI passes; core-aware specialization ran
    # above); everything else — budget, cover, restarts, seed — is the
    # caller's base option set, taking effect per candidate.
    toolchain = Toolchain(
        core,
        options.replace(opt=0, stop_after="regalloc"),
        cache=None,
    )
    for dfg in dfgs:
        try:
            # Core-aware specialization (a no-op below -O2), then the
            # staged pipeline through regalloc: schedule length is the
            # feedback, so encoding is skipped.
            specialized, _ = specialize_for_core(dfg, core, opt_level)
            state = toolchain.run_pipeline(specialized, merges=merges)
            lengths[dfg.name] = state.artifacts["schedule"].length
        except ReproError as exc:
            failures[dfg.name] = f"{type(exc).__name__}: {exc}"
    return ExplorationPoint(
        allocation=allocation, schedule_lengths=lengths,
        n_opus=len(core.datapath.opus), failures=failures,
        opt_level=opt_level, n_rfs=n_rfs, storage_words=storage_words,
    )


#: Per-worker sweep context: the optimized application set, the base
#: options and whether the parent records telemetry, shipped once via
#: the pool initializer instead of being re-pickled into every task.
_WORKER_CONTEXT: tuple[list[Dfg], CompileOptions, bool] | None = None


def _worker_init(dfgs: list[Dfg], options: CompileOptions,
                 observed: bool) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (dfgs, options, observed)


def _worker_evaluate(
        allocation: Allocation) -> tuple[ExplorationPoint, dict[str, int]]:
    """Top-level (picklable) per-task entry point: the task carries
    only the allocation; everything else came with the initializer.

    Returns the point and, when the parent records telemetry, the
    counters its evaluation produced here, for the parent to merge."""
    dfgs, options, observed = _WORKER_CONTEXT
    if not observed:
        return _evaluate_candidate(dfgs, allocation, options), {}
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        point = _evaluate_candidate(dfgs, allocation, options)
    return point, dict(telemetry.counters)


def explore(
    dfgs: list[Dfg],
    allocations: list[Allocation],
    jobs: int | None = None,
    cache: ExploreCache | None = None,
    options: CompileOptions | None = None,
    progress=None,
) -> list[ExplorationPoint]:
    """Compile every application on every candidate architecture.

    Returns one :class:`ExplorationPoint` per allocation, in input
    order, with the schedule length of each application — the feedback
    loop of phase 1.  Candidates that cannot run an application
    (budget, routing or register pressure) are *kept*, with the reason
    on :attr:`ExplorationPoint.failures`; filter on
    :attr:`ExplorationPoint.feasible` or use :func:`pareto_front`.

    Each application is machine-independently optimized at most once
    (per opt level) before the sweep, and the candidate cores are sized
    from the optimized graphs.  ``jobs`` > 1 fans candidates out over a
    process pool (the optimized graphs ship once per worker, each task
    carries only its allocation, and the workers' counters are merged
    into the caller's telemetry when it records); ``cache`` memoizes
    evaluated candidates, and the optimized graphs, across sweeps; an
    ``ExploreCache(disk=open_backend(spec))`` makes repeated sweeps hit
    a persistent backend across processes.

    ``options`` is the sweep's base
    :class:`~repro.options.CompileOptions` (``None`` = the defaults):
    its ``budget`` and ``opt`` level, cover algorithm and scheduler
    ``restarts``/``seed`` take effect per candidate (``mode``/``repeat``
    do not — evaluation stops before assembly).  These knobs key the
    candidate memo, so sweeps differing in any of them never share
    cache entries.

    ``progress`` is an optional callable invoked once per candidate as
    its result resolves (memo hit during the scan, evaluation as it
    completes) with a dict: ``allocation`` (the candidate's field
    tuple), ``feasible``, ``cached``, ``done``, ``total``.  The same
    payload is recorded as an ``explore.candidate`` telemetry event,
    with ``explore.candidates``/``explore.cache_hits`` counters
    tracking evaluations vs memo hits.
    """
    from ..pipeline import ExploreCache, fingerprint

    if options is None:
        options = CompileOptions()

    memo = cache if cache is not None else ExploreCache()
    front = [memo.optimize(dfg, options.opt) for dfg in dfgs]
    optimized = [dfg for dfg, _ in front]
    app_key = [key for _, key in front]

    operations = required_operations(optimized)
    # The non-default knobs that shape the feedback (cover, restarts,
    # seed) must key the memo too, or two sweeps differing only there
    # would share entries wrongly; the digest is loop-invariant.
    options_fp = options.fingerprint("cover", "restarts", "seed")
    obs = current_telemetry()
    total = len(allocations)
    done = 0

    def report(allocation: Allocation, point: ExplorationPoint,
               cached: bool) -> None:
        nonlocal done
        done += 1
        if progress is None and not obs.enabled:
            return
        record = {"allocation": allocation.astuple(),
                  "feasible": point.feasible, "cached": cached,
                  "done": done, "total": total}
        obs.event("explore.candidate", **record)
        if progress is not None:
            progress(record)

    results: dict[int, ExplorationPoint] = {}
    pending: list[tuple[int, Allocation, str]] = []
    pending_keys: dict[str, int] = {}
    aliases: list[tuple[int, str]] = []
    for index, allocation in enumerate(allocations):
        # A variant with nothing to merge on this application set *is*
        # the plain candidate: canonicalize so it shares that cache
        # entry (and row) instead of recompiling identical feedback.
        allocation = _canonical_allocation(allocation, operations)
        key = fingerprint("explore", app_key, allocation.astuple(),
                          options.budget, options.opt, options_fp)
        cached = memo.get(key)
        if cached is not None:
            results[index] = cached
            obs.count("explore.cache_hits")
            report(allocation, cached, cached=True)
        elif key in pending_keys:
            aliases.append((index, key))
        else:
            pending_keys[key] = index
            pending.append((index, allocation, key))

    evaluated: list[ExplorationPoint] = []
    if jobs is not None and jobs > 1 and len(pending) > 1:
        # concurrent.futures loads the process pool (and multiprocessing)
        # on first use, so a serial sweep or a compile never pays for it.
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, initializer=_worker_init,
                initargs=(optimized, options, obs.enabled)) as pool:
            # Iterate the (ordered) map so progress streams as results
            # land instead of arriving in one burst at pool shutdown.
            for (_, alloc, _), (point, counters) in zip(pending, pool.map(
                    _worker_evaluate, [a for _, a, _ in pending])):
                for name, n in counters.items():
                    obs.count(name, n)
                evaluated.append(point)
                obs.count("explore.candidates")
                report(alloc, point, cached=False)
    else:
        for _, alloc, _ in pending:
            point = _evaluate_candidate(optimized, alloc, options)
            evaluated.append(point)
            obs.count("explore.candidates")
            report(alloc, point, cached=False)
    for (index, _, key), point in zip(pending, evaluated):
        results[index] = point
        memo.put(key, point)
    for index, key in aliases:
        results[index] = results[pending_keys[key]]
        report(allocations[index], results[index], cached=True)
    return [results[index] for index in range(len(allocations))]


@dataclass
class RefinedSweep:
    """The result of a coarse-to-fine sweep: every evaluated point (in
    coarse-then-fine order), the Pareto front over all of them, and the
    pruning bookkeeping a designer (and the bench) reads."""

    spec: SweepSpec
    points: list[ExplorationPoint]
    front: list[ExplorationPoint]
    axes: tuple[str, ...]
    n_grid: int
    n_coarse: int
    n_refined: int

    @property
    def n_evaluated(self) -> int:
        """Unique candidates actually compiled (coarse + refinement)."""
        return self.n_coarse + self.n_refined


def explore_refined(
    dfgs: list[Dfg],
    spec: SweepSpec,
    jobs: int | None = None,
    cache: ExploreCache | None = None,
    axes: tuple[str, ...] | None = None,
    options: CompileOptions | None = None,
    progress=None,
) -> RefinedSweep:
    """Two-phase coarse-to-fine sweep over a multi-dimensional grid.

    Phase 1 evaluates the thinned grid (:meth:`SweepSpec.coarse` —
    every other value per numeric axis) and takes its Pareto front.
    Phase 2 evaluates only the fine-grid neighborhoods of the front
    points (:meth:`SweepSpec.neighborhood`), pruning the combinatorial
    blowup of the full cross-product: schedule length is monotone in
    every resource axis, so fine-grid optima cluster around the coarse
    front.  Both phases share one
    :class:`~repro.pipeline.session.ExploreCache`, so nothing is
    evaluated twice and a later full sweep pays only for the points the
    refinement skipped.  ``options`` supplies the base
    :class:`~repro.options.CompileOptions` (budget, opt level, cover,
    scheduler restarts/seed), exactly as in :func:`explore`.
    ``progress`` is forwarded to both phases' :func:`explore` calls
    (each phase reports its own ``done``/``total``).
    """
    if options is None:
        options = CompileOptions()
    if cache is None:
        from ..pipeline import ExploreCache

        cache = ExploreCache()
    if axes is None:
        axes = pareto_axes(spec)

    # Both phases sweep the source graphs through the one memo, so each
    # application is optimized once, here, and both explore() calls hit
    # that optimization (the candidate keys stay those of a plain
    # explore()).
    optimized = [cache.optimize(dfg, options.opt)[0] for dfg in dfgs]

    coarse_allocations = spec.coarse().allocations()
    coarse_points = explore(dfgs, coarse_allocations, options=options,
                            jobs=jobs, cache=cache, progress=progress)
    coarse_front = pareto_front(coarse_points, axes=axes)

    # Dedup on *canonical* tuples: explore() collapses degenerate merge
    # variants onto "none", and front points carry that canonical
    # allocation — keying `seen` on the raw grid tuples would re-add
    # already-evaluated coarse points as "fine" ones.
    operations = required_operations(optimized)
    seen = {_canonical_allocation(allocation, operations).astuple()
            for allocation in coarse_allocations}
    fine_allocations: list[Allocation] = []
    for point in coarse_front:
        for allocation in spec.neighborhood(point.allocation):
            key = _canonical_allocation(allocation, operations).astuple()
            if key not in seen:
                seen.add(key)
                fine_allocations.append(allocation)
    fine_points = explore(dfgs, fine_allocations, options=options,
                          jobs=jobs, cache=cache, progress=progress)

    points = coarse_points + fine_points
    return RefinedSweep(
        spec=spec, points=points,
        front=pareto_front(points, axes=axes), axes=axes,
        n_grid=spec.size, n_coarse=len(coarse_allocations),
        n_refined=len(fine_allocations),
    )


@dataclass
class CandidateSimulation:
    """The simulation of one exploration point: the compiled binary's
    output streams for every stimulus lane, or why it could not run."""

    point: ExplorationPoint
    #: One output-stream dict per stimulus lane (empty on failure).
    outputs: list[dict[str, list[int]]] = field(default_factory=list)
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def simulate_points(
    dfg: Dfg,
    points: list[ExplorationPoint],
    stimuli: list[dict[str, list[int]]] | dict[str, list[int]],
    *,
    options: CompileOptions | None = None,
    n_frames: int | None = None,
    engine: str = "auto",
) -> list[CandidateSimulation]:
    """Simulate exploration candidates on real stimulus.

    Exploration scores candidates by schedule length alone (evaluation
    stops at register allocation); this closes the loop — each feasible
    point's core is re-synthesized, ``dfg`` is compiled *end to end* on
    it, and the binary runs the stimulus through
    :func:`~repro.sim.batch.run_batch`, one batch per candidate (a
    single shared dict is one lane).  Outputs are bit-identical across
    engines, so they are directly comparable across candidates and
    against :func:`repro.lang.reference.run_reference`.

    Returns one :class:`CandidateSimulation` per point, in order;
    infeasible points (and points whose compile or simulation fails)
    carry ``failure`` instead of outputs.  A failing candidate never
    stops the others.
    """
    from ..options import CompileOptions as Options
    from ..sim.batch import run_batch
    from ..toolchain import Toolchain

    if options is None:
        options = Options()
    lanes = [stimuli] if isinstance(stimuli, dict) else stimuli
    results: list[CandidateSimulation] = []
    for point in points:
        result = CandidateSimulation(point=point)
        results.append(result)
        if point.failures:
            result.failure = "; ".join(
                f"{name}: {reason}"
                for name, reason in sorted(point.failures.items())
            )
            continue
        try:
            core = intermediate_architecture([dfg], point.allocation)
            merges = merge_spec_for(point.allocation.merge_variant, core)
            toolchain = Toolchain(core, options.replace(opt=0), cache=None)
            specialized, _ = specialize_for_core(dfg, core, options.opt)
            state = toolchain.run_pipeline(specialized, merges=merges)
            result.outputs = run_batch(
                state.artifacts["binary"], lanes, n_frames=n_frames,
                engine=engine)
        except ReproError as exc:
            result.failure = f"{type(exc).__name__}: {exc}"
    return results
