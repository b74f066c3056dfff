"""Typed artifacts of the staged pipeline and their content fingerprints.

Every stage of :mod:`repro.pipeline` consumes and produces named
artifacts held in a :class:`CompileState`.  Each stage is keyed by a
*content fingerprint* — a SHA-256 digest over a canonical rendering of
the inputs that determine its output: the application (source text, or
the content of a graph handed in directly), the core description, and
the request options the stage actually reads, each stage's key chained
onto the key of the stage before it.  Two compilations that reach a
stage with identical fingerprints are guaranteed to produce identical
artifacts, which is what makes the stage cache
(:class:`repro.pipeline.session.StageCache`) sound.

Fingerprints are deliberately *content*-keyed rather than
identity-keyed: two cores that serialize identically share every
core-dependent stage, and an equal graph handed in twice shares every
stage.  :func:`dfg_fingerprint` remembers a graph's digest per graph
object, which changes how often a graph is rendered, never what its
digest is.
"""

from __future__ import annotations

import hashlib
import json
import operator
import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any

from ..arch.library import CoreSpec
from ..arch.merge import MergeSpec
from ..arch.serialize import core_to_dict
from ..core.instruction_set import InstructionSet
from ..core.rtclass import ClassTable
from ..encode.fields import Encoding, encoding
from ..lang.dfg import Dfg
from ..options import CompileOptions
from ..rtgen.generator import RouteTable, route_table

#: Bump when a stage's semantics change, so stale caches cannot serve
#: artifacts computed by an older pipeline.
#: v2: stage keys chain CompileOptions subset fingerprints instead of
#: raw request attributes.
#: v3: -O2 runs the machine-independent half to a fixpoint, then the
#: core-aware half; its OptReport's pass order and iterations differ.
#: v4: optimize and rtgen key on the stage before them, not on a graph's
#: content, so a compile's keys form one chain from parse.
PIPELINE_VERSION = 4

#: Serialization version of every artifact type the stages produce.
#: Bump an entry whenever the artifact's Python shape changes (fields
#: added/renamed, invariants altered) so on-disk entries written by an
#: older checkout invalidate instead of deserializing into nonsense.
#: :mod:`repro.pipeline.diskcache` embeds these in every entry.
ARTIFACT_VERSIONS: dict[str, int] = {
    "source_dfg": 1,        # parse: repro.lang.dfg.Dfg
    "dfg": 1,               # optimize: repro.lang.dfg.Dfg
    "opt_report": 1,        # optimize: repro.opt.OptReport
    "base_program": 1,      # rtgen: repro.rtgen.program.RTProgram
    "program": 1,           # merge: repro.rtgen.program.RTProgram
    "base_rts": 1,          # merge: list[repro.rtgen.rt.RT]
    "capacities": 1,        # merge: dict[str, int] | None
    "merged": 1,            # merge: bool
    "conflict_model": 2,    # impose: repro.core.artificial.ConflictModel
    "dependence_graph": 1,  # schedule: repro.sched.dependence.DependenceGraph
    "schedule": 1,          # schedule: repro.sched.schedule.Schedule
    "allocation": 1,        # regalloc: repro.sched.regalloc.Allocation
    "binary": 1,            # assemble: repro.encode.assembler.EncodedProgram
}


def artifact_schema(artifacts: dict[str, Any]) -> dict[str, int]:
    """The ``name -> version`` schema of one artifact snapshot.

    Unknown names (a stage added without a version entry) are pinned at
    version 0 so they can never silently round-trip across checkouts
    that disagree about them.
    """
    return {name: ARTIFACT_VERSIONS.get(name, 0) for name in artifacts}


def fingerprint(*parts: Any) -> str:
    """SHA-256 digest of a canonical JSON rendering of ``parts``."""
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: ``id(dfg)`` -> (weak reference to the graph, its strings, its
#: immutable parts, its digest): see :func:`_render_token`.  The weak
#: reference's callback drops the entry when the graph is collected.
_DFG_DIGESTS: dict[int, tuple[weakref.ref, tuple, tuple, str]] = {}


def _render_token(dfg: Dfg) -> tuple[tuple, tuple]:
    """Everything :func:`dfg_fingerprint` renders of ``dfg``: the
    strings (name, parameter names, port lists), compared by value, and
    the immutable parts (nodes, parameter values, state windows),
    compared by identity, since an immutable object renders the same
    every time.  A parameter set from ``0.0`` to ``-0.0``, or from
    ``1.0`` to ``1``, is a new object, so such an edit cannot pass for
    the equal value it replaced."""
    return ((dfg.name, tuple(dfg.params), tuple(dfg.inputs),
             tuple(dfg.outputs)),
            (*dfg.nodes, *dfg.params.values(), *dfg.states.values()))


def _forget_digest(key: int, ref: weakref.ref) -> None:
    entry = _DFG_DIGESTS.get(key)
    if entry is not None and entry[0] is ref:
        del _DFG_DIGESTS[key]


def dfg_fingerprint(dfg: Dfg) -> str:
    """Content key of a data-flow graph.

    Covers everything downstream stages can observe: node structure,
    parameter values, port lists, state windows and source labels.

    A graph is rendered once: later calls return the same digest for as
    long as the graph lives and is unchanged.  A ``Dfg`` is mutable, so
    each call first checks it against what was rendered
    (:func:`_render_token`): the same name, parameter names and ports,
    and the same node, parameter-value and state objects.  An in-place
    edit is rendered again.
    """
    key = id(dfg)
    strings, parts = _render_token(dfg)
    entry = _DFG_DIGESTS.get(key)
    if (entry is not None and entry[0]() is dfg and entry[1] == strings
            and len(entry[2]) == len(parts)
            and all(map(operator.is_, entry[2], parts))):
        return entry[3]
    digest = fingerprint(
        "dfg",
        dfg.name,
        [
            (n.id, n.kind.value, n.name, list(n.args), n.delay, n.label)
            for n in dfg.nodes
        ],
        sorted((k, repr(v)) for k, v in dfg.params.items()),
        list(dfg.inputs),
        list(dfg.outputs),
        sorted((s.name, s.depth) for s in dfg.states.values()),
    )
    ref = weakref.ref(dfg, partial(_forget_digest, key))
    _DFG_DIGESTS[key] = (ref, strings, parts, digest)
    return digest


def core_fingerprint(core: CoreSpec) -> str:
    """Content key of a core: its full serialized description."""
    return fingerprint("core", core_to_dict(core))


class BoundCore:
    """What depends only on the core, derived once per binding.

    A :class:`~repro.toolchain.Toolchain` binds its core to one of
    these, and every compile through it (and through each ``replace()``
    variant that keeps the core) reads the same lazily built values:
    the content fingerprint the stage keys hash, the RT class table,
    the instruction set, the lowering's route table and the assembler's
    encoding tables.  The core must not be mutated once bound;
    ``verify`` re-derives the fingerprint after each compile to catch
    that.  The object lives as long as the toolchains that hold it, so
    a dropped toolchain frees its core.
    """

    def __init__(self, core: CoreSpec):
        self.core = core

    @cached_property
    def fingerprint(self) -> str:
        """:func:`core_fingerprint` of the core (the stage keys' core
        part); a toolchain without a cache never needs it."""
        return core_fingerprint(self.core)

    @cached_property
    def class_table(self) -> ClassTable:
        """The core's RT class table (rtgen annotates, impose covers)."""
        return ClassTable.from_core(self.core)

    @cached_property
    def instruction_set(self) -> InstructionSet:
        """The core's instruction set over :attr:`class_table`."""
        return InstructionSet.from_desired(self.class_table.names,
                                           self.core.instruction_types)

    @cached_property
    def routes(self) -> RouteTable:
        """The lowering's route table (:func:`repro.rtgen.generator.route_table`)."""
        return route_table(self.core)

    @cached_property
    def encoding(self) -> Encoding:
        """The assembler's word layout and opcodes
        (:func:`repro.encode.fields.encoding`)."""
        return encoding(self.core)


def merges_key(merges: MergeSpec | None) -> list:
    """Canonical, fingerprintable rendering of a merge spec."""
    if merges is None or merges.is_empty:
        return []
    return [
        [(m.name, list(m.parts)) for m in merges.register_file_merges],
        [(m.name, list(m.parts)) for m in merges.bus_merges],
    ]


@dataclass(frozen=True)
class CompileRequest:
    """One compilation's full set of inputs, as handed to the driver.

    The application, the target core, the per-application wiring
    (``io_binding``, ``merges``) and one validated
    :class:`~repro.options.CompileOptions` — the request is what stages
    read their options from, and what the per-stage fingerprints are
    derived from.
    """

    application: Dfg | str
    core: CoreSpec
    options: CompileOptions = field(default_factory=CompileOptions)
    io_binding: dict[str, str] | None = None
    merges: MergeSpec | None = None
    #: the core's per-core values; a request built without one (or with
    #: one bound to another core) binds ``core`` afresh
    bound: BoundCore | None = field(default=None, repr=False,
                                    compare=False)

    def __post_init__(self) -> None:
        if self.bound is None or self.bound.core is not self.core:
            object.__setattr__(self, "bound", BoundCore(self.core))


@dataclass
class CompileState:
    """The artifacts and fingerprints of one (possibly partial) compile.

    ``artifacts`` maps artifact name → object; ``fingerprints`` maps
    stage name → the content key the stage ran (or was restored) under;
    ``completed`` lists stage names in execution order.  Artifact
    attribute access is provided for convenience::

        state = Toolchain(core, stop_after="schedule").run_pipeline(source)
        state.schedule.length
    """

    request: CompileRequest
    artifacts: dict[str, Any] = field(default_factory=dict)
    fingerprints: dict[str, str] = field(default_factory=dict)
    completed: list[str] = field(default_factory=list)
    #: stage name -> "memory" | "disk", for stages restored from cache
    cache_sources: dict[str, str] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        artifacts = self.__dict__.get("artifacts", {})
        if name in artifacts:
            return artifacts[name]
        raise AttributeError(
            f"compile state has no artifact {name!r} "
            f"(available: {sorted(artifacts)})"
        )

    @property
    def cache_hits(self) -> dict[str, bool]:
        """Stage name -> True when the stage was restored from cache,
        for every stage the cached chain keyed."""
        return {name: name in self.cache_sources
                for name in self.fingerprints}

    def cache_counts(self) -> dict[str, int]:
        """``{"executed": n, "memory": n, "disk": n}`` over the stages
        this compile ran — the one tally the CLI summary line, the
        batch table and the batch JSON all derive from."""
        counts = {"executed": 0, "memory": 0, "disk": 0}
        for name in self.fingerprints:
            counts[self.cache_sources.get(name, "executed")] += 1
        return counts

    @property
    def is_complete(self) -> bool:
        """True when the chain ran to the end (a binary exists)."""
        return "binary" in self.artifacts

    def as_compiled(self):
        """Package the artifacts as the classic :class:`CompiledProgram`."""
        from .program import CompiledProgram

        if not self.is_complete:
            raise ValueError(
                f"compilation stopped after {self.completed[-1]!r}; "
                f"run the remaining stages before as_compiled()"
            )
        a = self.artifacts
        return CompiledProgram(
            core=self.request.core,
            dfg=a["dfg"],
            rt_program=a["program"],
            conflict_model=a["conflict_model"],
            dependence_graph=a["dependence_graph"],
            schedule=a["schedule"],
            allocation=a["allocation"],
            binary=a["binary"],
            source_dfg=a["source_dfg"],
            opt_report=a["opt_report"],
        )
