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
stage.  A graph is immutable, so :func:`dfg_fingerprint` renders each
graph object once and keeps the digest with it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
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

#: The one version of what the caches keep.  Bump it when a stage's
#: semantics change *or* when the shape of any cached object changes (a
#: field of an artifact or of an ``ExplorationPoint`` added, renamed or
#: given a new invariant): it is folded into every stage key and written
#: into every persistent entry, so a cache written by other code can
#: never serve what this code would misread.  ``tests/test_cache_shapes.py``
#: pins the digest of every cached class's attributes per version.
#: v2: stage keys chain CompileOptions subset fingerprints instead of
#: raw request attributes.
#: v3: -O2 runs the machine-independent half to a fixpoint, then the
#: core-aware half; its OptReport's pass order and iterations differ.
#: v4: optimize and rtgen key on the stage before them, not on a graph's
#: content, so a compile's keys form one chain from parse.
#: v5: the one version: per-artifact and sweep-point versions are gone
#: (an explore entry of v4 may hold a mutable point).
#: v6: ``Dfg`` and ``EncodedProgram`` are frozen; their pickled state
#: holds the fields only, tuples and plain dicts.
PIPELINE_VERSION = 6


def fingerprint(*parts: Any) -> str:
    """SHA-256 digest of a canonical JSON rendering of ``parts``."""
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def dfg_fingerprint(dfg: Dfg) -> str:
    """Content key of a data-flow graph.

    Covers everything downstream stages can observe: node structure,
    parameter values, port lists, state windows and source labels.

    A graph is immutable, so it is rendered once: it keeps its digest in
    its instance ``__dict__`` and every later call returns it.
    """
    digest = dfg.__dict__.get("_fingerprint")
    if digest is None:
        digest = dfg.__dict__["_fingerprint"] = fingerprint(
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
