"""Typed artifacts of the staged pipeline and their content fingerprints.

Every stage of :mod:`repro.pipeline` consumes and produces named
artifacts held in a :class:`CompileState`.  Each stage is keyed by a
*content fingerprint* — a SHA-256 digest over a canonical rendering of
the inputs that determine its output: the DFG as parsed/optimized, the
core description, and the request options the stage actually reads.
Two compilations that reach a stage with identical fingerprints are
guaranteed to produce identical artifacts, which is what makes the
stage cache (:class:`repro.pipeline.session.StageCache`) sound.

Fingerprints are deliberately *content*-keyed rather than
identity-keyed: a source text and the DFG it parses to converge on the
same optimize-stage key, and two cores that serialize identically share
every core-dependent stage.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from ..arch.library import CoreSpec
from ..arch.merge import MergeSpec
from ..arch.serialize import core_to_dict
from ..lang.dfg import Dfg
from ..options import CompileOptions

#: Bump when a stage's semantics change, so stale caches cannot serve
#: artifacts computed by an older pipeline.
#: v2: stage keys chain CompileOptions subset fingerprints instead of
#: raw request attributes.
PIPELINE_VERSION = 2

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


def dfg_fingerprint(dfg: Dfg) -> str:
    """Content key of a data-flow graph.

    Covers everything downstream stages can observe: node structure,
    parameter values, port lists, state windows and source labels.
    """
    return fingerprint(
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


def core_fingerprint(core: CoreSpec) -> str:
    """Content key of a core: its full serialized description."""
    return fingerprint("core", core_to_dict(core))


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
    #: stage name -> True when the stage was restored from cache
    cache_hits: dict[str, bool] = field(default_factory=dict)
    #: stage name -> "memory" | "disk", for stages restored from cache
    cache_sources: dict[str, str] = field(default_factory=dict)
    _core_fp: str | None = field(default=None, repr=False)
    _source_fp: str | None = field(default=None, repr=False)

    def __getattr__(self, name: str) -> Any:
        artifacts = self.__dict__.get("artifacts", {})
        if name in artifacts:
            return artifacts[name]
        raise AttributeError(
            f"compile state has no artifact {name!r} "
            f"(available: {sorted(artifacts)})"
        )

    def cache_counts(self) -> dict[str, int]:
        """``{"executed": n, "memory": n, "disk": n}`` over the stages
        this compile ran — the one tally the CLI summary line, the
        batch table and the batch JSON all derive from."""
        counts = {"executed": 0, "memory": 0, "disk": 0}
        for name, hit in self.cache_hits.items():
            if hit:
                counts[self.cache_sources[name]] += 1
            else:
                counts["executed"] += 1
        return counts

    def core_fp(self) -> str:
        """Memoized core fingerprint (several stages key on it)."""
        if self._core_fp is None:
            self._core_fp = core_fingerprint(self.request.core)
        return self._core_fp

    def source_fp(self) -> str:
        """Memoized fingerprint of the parsed graph (the parse and
        optimize keys both cover it).  Parse passes a graph application
        through, so that graph's own fingerprint serves before parse
        has run and after it was restored."""
        if self._source_fp is None:
            application = self.request.application
            self._source_fp = dfg_fingerprint(
                application if isinstance(application, Dfg)
                else self.artifacts["source_dfg"])
        return self._source_fp

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
