"""The ``Toolchain`` facade: one core + one option set, bound once.

The public face of the retargetable code generator.  A
:class:`Toolchain` binds the three things every compilation needs — a
target core (a :class:`~repro.arch.library.CoreSpec` or a registered
name, see :mod:`repro.arch.registry`), a validated
:class:`~repro.options.CompileOptions`, and a stage cache — and then
every verb is a method::

    from repro import CompileOptions, Toolchain

    toolchain = Toolchain("audio", CompileOptions(budget=64, opt=2))
    program = toolchain.compile(source_text)        # CompiledProgram
    outputs = toolchain.run(source_text, {"i": samples})
    result = toolchain.compile_many(sources)        # BatchResult
    sweep = toolchain.explore(sources, spec, refine=True)

The facade *is* the engine: the stage-chain driver lives here, and it
is the only way to compile (the pre-Toolchain entry points were
removed in 2.0.0, see ``docs/api.md``).  By default a toolchain owns a
two-tier stage cache (memory LRU over the persistent on-disk store,
honoring ``options.cache_dir``/``options.disk_cache``); pass
``cache=None`` for the classic cold path or share one
:class:`StageCache` between toolchains to reuse artifacts across them.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Sequence

from .arch.library import CoreSpec
from .arch.merge import MergeSpec
from .arch.registry import resolve_core
from .errors import ReproError
from .lang.dfg import Dfg
from .obs import Telemetry, current_telemetry, use_telemetry
from .options import CompileOptions
from .pipeline.artifacts import CompileRequest, CompileState
from .pipeline.backend import open_backend
from .pipeline.program import CompiledProgram
from .pipeline.session import (
    _DEFAULT_CACHE,
    BatchEntry,
    BatchResult,
    SnapshotStream,
    StageCache,
    _DefaultCache,
)
from .pipeline.stages import PIPELINE_STAGES, ChainedStage, Stage


class Toolchain:
    """A core + options + cache, bound once; every compiler verb after.

    Parameters
    ----------
    core:
        The target: a :class:`CoreSpec`, a registered core name
        (``"audio"``, ``"fir"``, ... — see
        :func:`repro.arch.registry.list_cores`) or a path to a JSON
        core description.
    options:
        The compile knobs; defaults to ``CompileOptions()``.  Extra
        keyword arguments are option-field overrides, so
        ``Toolchain("audio", budget=64)`` is shorthand for
        ``Toolchain("audio", CompileOptions(budget=64))``.
    cache:
        ``None`` disables caching (no snapshot cost — the classic
        one-shot path); a shared :class:`StageCache` reuses artifacts
        across toolchains.  By default the toolchain owns a private
        cache, disk-backed per ``options.disk_cache``/``cache_dir``.
    telemetry:
        A :class:`repro.obs.Telemetry` this toolchain's verbs report
        spans/counters/events to; ``None`` (the default) reports to the
        process-wide registry (:func:`repro.obs.current_telemetry` —
        the disabled null registry unless one was installed), so
        instrumentation costs nothing until observability is wanted.
    """

    def __init__(
        self,
        core: CoreSpec | str,
        options: CompileOptions | None = None,
        *,
        cache: StageCache | None | _DefaultCache = _DEFAULT_CACHE,
        telemetry: Telemetry | None = None,
        **option_fields: Any,
    ):
        options = options if options is not None else CompileOptions()
        if option_fields:
            options = options.replace(**option_fields)
        self.core: CoreSpec = resolve_core(core)
        self.options: CompileOptions = options
        self.cache: StageCache | None = (
            self._default_cache() if isinstance(cache, _DefaultCache)
            else cache
        )
        self.telemetry: Telemetry | None = telemetry
        self.stages = PIPELINE_STAGES
        #: Lazily-built default candidate memo for :meth:`explore`,
        #: kept on the instance so repeated sweeps reuse evaluations.
        self._explore_cache = None

    def _obs(self) -> Telemetry:
        """The registry this toolchain reports to: the bound one, else
        whatever is currently installed process-wide."""
        return self.telemetry if self.telemetry is not None \
            else current_telemetry()

    def _default_cache(self) -> StageCache:
        if self.options.disk_cache:
            # cache_dir is a *backend spec*: a directory path (or None
            # for the default DiskCache placement), or "memory:<name>"
            # for a process-shared in-memory backend.
            return StageCache(disk=open_backend(self.options.cache_dir))
        return StageCache()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Toolchain(core={self.core.name!r}, "
                f"options={self.options!r})")

    def replace(
        self,
        *,
        core: CoreSpec | str | None = None,
        options: CompileOptions | None = None,
        cache: StageCache | None | _DefaultCache = _DEFAULT_CACHE,
        **option_fields: Any,
    ) -> "Toolchain":
        """A toolchain variant *sharing this one's cache*: same core
        unless overridden, options replaced field-wise.  The shared
        cache is the point — retargeting or re-budgeting reuses every
        artifact the change does not invalidate.

        Exception: when the cache *placement* fields change
        (``disk_cache``/``cache_dir``) and no explicit ``cache`` is
        given, the variant builds a fresh default cache honoring the
        new placement — sharing the old one would silently ignore the
        change.  A ``cache=None`` toolchain stays uncached regardless:
        the user opted out of caching entirely, and placement fields
        have nothing to place."""
        new_options = options if options is not None else self.options
        if option_fields:
            new_options = new_options.replace(**option_fields)
        if isinstance(cache, _DefaultCache):
            placement_changed = (
                new_options.disk_cache != self.options.disk_cache
                or new_options.cache_dir != self.options.cache_dir
            )
            if self.cache is None or not placement_changed:
                cache = self.cache
        return Toolchain(self.core if core is None else core, new_options,
                         cache=cache, telemetry=self.telemetry)

    # ------------------------------------------------------------------
    # The engine: the stage-chain driver

    def run_pipeline(
        self,
        application: Dfg | str,
        *,
        io_binding: dict[str, str] | None = None,
        merges: MergeSpec | None = None,
    ) -> CompileState:
        """Run the stage chain, honoring ``options.stop_after``.

        Returns the :class:`CompileState` with every artifact produced
        so far.  With a cache attached, the chain is resolved against
        it first: a later run whose chain reaches the same keys
        restores the deepest cached snapshot once instead of
        recomputing — that is what makes re-compiles, partial-then-full
        resumption and cross-process warm starts cheap.
        """
        request = CompileRequest(
            application=application, core=self.core, options=self.options,
            io_binding=io_binding, merges=merges,
        )
        state = CompileState(request=request)
        stages = list(self.stages)
        names = [stage.name for stage in stages]
        if self.options.stop_after in names:
            del stages[names.index(self.options.stop_after) + 1:]
        obs = self._obs()
        app_name = (application.name if isinstance(application, Dfg)
                    else None)
        with use_telemetry(obs), \
                obs.span("compile", core=self.core.name,
                         application=app_name):
            if self.cache is None:
                for stage in stages:
                    stage.execute(state)
                    state.completed.append(stage.name)
                    self._verify_boundary(stage.name, state, obs)
            else:
                self._run_cached(stages, state, obs)
        return state

    def _run_cached(self, stages: list[Stage], state: CompileState,
                    obs: Telemetry) -> None:
        """The cached stage loop: resolve each run of keys, then
        execute and store whatever the cache did not cover.

        A stage whose key needs an artifact (parse, optimize, rtgen)
        starts a run; the :class:`ChainedStage` keys after it are
        computed up front, and :meth:`StageCache.resolve` restores the
        deepest one cached.  Each stage keeps its own ``stage:<name>``
        span (the run's lookup and restore are paid inside the span of
        the stage that starts it), its own hit/miss record and its own
        boundary verification on the restored state.  Executed stages
        write into one :class:`SnapshotStream` per compile — the
        restored one after a prefix hit, so their entries extend it.
        """
        keys: list[str] = []
        restored_to, source = 0, None
        stream = SnapshotStream()
        for index, stage in enumerate(stages):
            with obs.span(f"stage:{stage.name}", stage=stage.name) as span:
                if index == len(keys):
                    keys.append(stage.key(state))
                    for later in stages[index + 1:]:
                        if not isinstance(later, ChainedStage):
                            break
                        keys.append(later.chain_key(keys[-1], state.request))
                    depth, restored, source = self.cache.resolve(
                        keys[index:], self.core, stream)
                    if restored is not None:
                        stream = restored
                        state.artifacts = restored.artifacts
                    restored_to = index + depth
                key = keys[index]
                state.fingerprints[stage.name] = key
                span.tag(fingerprint=key[:16])
                if index < restored_to:
                    span.tag(cache_source=source)
                    state.cache_hits[stage.name] = True
                    state.cache_sources[stage.name] = source
                else:
                    stage.execute(state)
                    state.cache_hits[stage.name] = False
                    self.cache.put(key, state.artifacts, stream)
            state.completed.append(stage.name)
            self._verify_boundary(stage.name, state, obs)

    def _verify_boundary(self, stage_name: str, state: CompileState,
                         obs: Telemetry) -> None:
        """Run the stage verifier behind ``options.verify``.

        Cache-restored stages are verified exactly like executed ones —
        a poisoned cache entry is precisely the kind of corruption a
        verifier exists to catch.  Error findings raise
        :class:`~repro.errors.VerificationError`; warnings only count.
        """
        if self.options.verify == "off":
            return
        from .analyze import enforce, verify_stage

        findings = verify_stage(stage_name, state,
                                strict=self.options.verify == "strict")
        if findings is None:
            return
        obs.count("verify.checks")
        if findings:
            obs.count("verify.findings", len(findings))
        enforce(findings, f"after stage {stage_name!r}")

    # ------------------------------------------------------------------
    # Verbs

    def compile(
        self,
        application: Dfg | str,
        *,
        io_binding: dict[str, str] | None = None,
        merges: MergeSpec | None = None,
    ) -> CompiledProgram:
        """Compile one application (source text or DFG) to microcode.

        Always runs the full chain — a configured ``stop_after`` is
        ignored here (use :meth:`run_pipeline` for partial compiles).
        """
        toolchain = self
        if self.options.stop_after is not None:
            toolchain = self.replace(options=self.options.replace(
                stop_after=None))
        return toolchain.run_pipeline(
            application, io_binding=io_binding, merges=merges,
        ).as_compiled()

    def compile_many(
        self,
        applications: Sequence[Dfg | str],
        *,
        names: Sequence[str] | None = None,
        io_binding: dict[str, str] | None = None,
        merges: MergeSpec | None = None,
    ) -> BatchResult:
        """Compile an application set through this toolchain's cache.

        Identical prefixes across the batch — duplicated sources, the
        same application under two option sets in sibling toolchains
        sharing a cache — are computed once and restored everywhere
        else.  A failing application does not abort the batch: its
        error lands on the :class:`BatchEntry`, the rest still compile.
        Honors ``options.stop_after`` (entries then hold partial
        states).
        """
        if names is not None and len(names) != len(applications):
            raise ValueError(
                f"{len(names)} names for {len(applications)} applications"
            )
        result = BatchResult()
        obs = self._obs()
        batch_start = time.perf_counter()
        with use_telemetry(obs), \
                obs.span("batch", core=self.core.name,
                         applications=len(applications)):
            for index, application in enumerate(applications):
                if names is not None:
                    name = names[index]
                elif isinstance(application, Dfg):
                    name = application.name
                else:
                    name = f"app[{index}]"
                start = time.perf_counter()
                entry = BatchEntry(name=name)
                try:
                    entry.state = self.run_pipeline(
                        application, io_binding=io_binding, merges=merges)
                except ReproError as exc:
                    entry.error = f"{type(exc).__name__}: {exc}"
                entry.seconds = time.perf_counter() - start
                result.entries.append(entry)
        result.seconds = time.perf_counter() - batch_start
        return result

    def run(
        self,
        application: Dfg | str,
        inputs: dict[str, list[int]] | list[dict[str, list[int]]],
        n_frames: int | None = None,
        *,
        io_binding: dict[str, str] | None = None,
        merges: MergeSpec | None = None,
        engine: str = "auto",
    ) -> dict[str, list[int]] | list[dict[str, list[int]]]:
        """Compile and execute on the cycle-accurate core simulator.

        ``inputs`` is either one stream dict (returns one output dict)
        or a *batch* — a list of stream dicts, one per stimulus lane —
        in which case the decoded/numpy batch engines step every lane
        through one compiled binary and a list of output dicts comes
        back, in lane order.  ``engine`` picks the execution tier (see
        :func:`repro.sim.batch.resolve_engine`); the simulator emits
        the ``simulate`` span itself, tagged with the engine it chose.
        """
        obs = self._obs()
        with use_telemetry(obs), \
                obs.span("run", core=self.core.name):
            compiled = self.compile(application, io_binding=io_binding,
                                    merges=merges)
            if isinstance(inputs, dict):
                return compiled.run(inputs, n_frames, engine=engine)
            return compiled.run_batch(inputs, n_frames, engine=engine)

    def explore(
        self,
        applications: Iterable[Dfg | str],
        spec,
        *,
        jobs: int | None = None,
        refine: bool = False,
        axes: tuple[str, ...] | None = None,
        cache=_DEFAULT_CACHE,
        progress=None,
    ):
        """Design-space exploration under this toolchain's options.

        ``spec`` is a :class:`~repro.arch.explore.SweepSpec` (or a
        plain allocation list when ``refine`` is off).  The sweep uses
        the bound ``budget``/``opt``, and its candidate memo mirrors
        the stage cache's actual backing: a disk-backed toolchain
        memoizes into *the same* persistent store, a memory-only one
        memoizes in memory, and a ``cache=None`` toolchain runs
        unmemoized (a refined sweep then uses a transient in-call memo
        only, so its two phases never evaluate a candidate twice).
        Pass ``cache=ExploreCache(...)`` explicitly to override.  The
        bound *core* is deliberately not used: exploration synthesizes
        its own intermediate candidates (phase 1 of the paper).

        ``progress`` is an optional callable invoked once per evaluated
        candidate with a dict (``allocation``, ``feasible``, ``cached``,
        ``done``, ``total``) — the same payload the telemetry registry
        records as ``explore.candidate`` events.

        Returns a :class:`~repro.arch.explore.RefinedSweep` when
        ``refine`` is on, else the list of
        :class:`~repro.arch.explore.ExplorationPoint`.
        """
        from .arch.explore import (
            ExploreCache,
            SweepSpec,
            explore,
            explore_refined,
        )
        from .lang.parser import parse_source

        dfgs = [parse_source(app) if isinstance(app, str) else app
                for app in applications]
        if isinstance(cache, _DefaultCache):
            if self.cache is None:
                # Unmemoized; refined sweeps still need a memo for the
                # coarse/fine phases to share, so give them a
                # transient one scoped to this call.
                cache = ExploreCache() if refine else None
            else:
                if self._explore_cache is None:
                    self._explore_cache = ExploreCache(disk=self.cache.disk)
                cache = self._explore_cache
        obs = self._obs()
        with use_telemetry(obs), \
                obs.span("explore", applications=len(dfgs), refine=refine):
            if refine:
                if not isinstance(spec, SweepSpec):
                    raise ValueError("refine=True needs a SweepSpec")
                return explore_refined(dfgs, spec, options=self.options,
                                       jobs=jobs, cache=cache, axes=axes,
                                       progress=progress)
            if axes is not None:
                raise ValueError(
                    "axes= only applies to refine=True sweeps; compute "
                    "pareto_front(points, axes=...) over the returned "
                    "points instead")
            allocations = (spec.allocations() if isinstance(spec, SweepSpec)
                           else list(spec))
            return explore(dfgs, allocations, options=self.options,
                           jobs=jobs, cache=cache, progress=progress)
