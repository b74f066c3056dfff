"""Differential fuzzing: generated graphs, every optimizer level,
every simulator engine, one oracle.

For each seeded random application (:mod:`repro.gen.generator`) the
harness compiles through :class:`~repro.toolchain.Toolchain` at every
requested ``-O`` level and runs each binary over a batch of random
stimulus lanes on every available engine — the pure-Python
:class:`~repro.sim.batch.DecodedSimulator` and, when numpy is
installed, the numpy :class:`~repro.sim.batch.BatchSimulator` —
asserting every output stream bit-identical to
:func:`repro.lang.run_reference` on the *source* graph.  Equality to
one reference implies equality across levels and engines, so a single
mismatch pinpoints the disagreeing (level, engine) pair.

Failures are minimized by the greedy shrinker
(:mod:`repro.gen.shrink`) under the predicate "the same class of
failure still reproduces", and every finding carries its case seed:
``repro fuzz --seed <case seed> --count 1`` regenerates graph,
stimulus and mismatch exactly.

Since PR 9 the harness also carries a third, simulation-free oracle:
the machine-code lint of :mod:`repro.analyze.lint` runs over every
compiled image before any engine does (``lint=True``, the default).
A case whose image fails lint while the differential simulation stays
clean is reported as its own crash kind, ``status="lint"`` — a
verifier/simulator disagreement, i.e. a bug in exactly one of the two.

``inject=`` plants an artificial defect whenever the graph contains
the named operation.  That is the harness's self-test: with the lint
oracle enabled the defect is planted in a *copy of the encoded image*
(a destination field latching a bus on which nothing matures) and must
be flagged by the lint pass alone, without simulation; with
``lint=False`` it falls back to perturbing the decoded engine's first
output sample, proving the differential path end-to-end instead.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field

from ..arch.library import CoreSpec
from ..arch.registry import resolve_core
from ..errors import ReproError
from ..fixed import FixedFormat
from ..lang.dfg import Dfg, NodeKind
from ..lang.emit import emit_source
from ..lang.reference import run_reference
from ..obs import current_telemetry
from ..sim.batch import NUMPY_AVAILABLE
from .generator import GenSpec, case_seed, generate_dfg
from .shrink import shrink_dfg

#: Optimizer levels a fuzz case crosses by default.
DEFAULT_LEVELS = (0, 1, 2)


def available_engines() -> tuple[str, ...]:
    """Every engine this process can differentially compare."""
    return ("decoded", "numpy") if NUMPY_AVAILABLE else ("decoded",)


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign: what to generate, where to run it, how long.

    ``count`` and ``time_budget`` may be combined; the campaign stops
    at whichever limit is hit first (at least one case always runs).
    """

    core: CoreSpec | str = "fir"
    seed: int = 0
    count: int | None = 100
    time_budget: float | None = None
    levels: tuple[int, ...] = DEFAULT_LEVELS
    engines: tuple[str, ...] | None = None
    n_frames: int = 6
    n_lanes: int = 3
    shrink: bool = True
    shrink_attempts: int = 400
    spec: GenSpec = field(default_factory=GenSpec)
    #: Operation name that triggers the planted self-test defect.
    inject: str | None = None
    #: Run the machine-code lint over every compiled image
    #: (``repro fuzz --no-lint`` disables it).
    lint: bool = True


@dataclass
class CaseResult:
    """What one generated case did under the differential matrix."""

    #: "ok" | "infeasible" | "mismatch" | "error" | "lint"
    status: str
    detail: str | None = None
    #: Levels that compiled (infeasible levels are normal: optimization
    #: changes register pressure, so feasibility may differ by level).
    levels_compiled: tuple[int, ...] = ()

    @property
    def failed(self) -> bool:
        return self.status in ("mismatch", "error", "lint")


@dataclass
class FuzzFailure:
    """One finding: the case seed replays it, the shrunk source shows it."""

    seed: int
    status: str
    detail: str
    source: str
    n_nodes: int
    shrunk_source: str | None = None
    shrunk_detail: str | None = None
    shrunk_nodes: int | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "status": self.status,
            "detail": self.detail,
            "source": self.source,
            "n_nodes": self.n_nodes,
            "shrunk_source": self.shrunk_source,
            "shrunk_detail": self.shrunk_detail,
            "shrunk_nodes": self.shrunk_nodes,
        }


@dataclass
class FuzzReport:
    """The campaign's outcome, JSON-ready for CI artifacts."""

    core: str
    seed: int
    levels: tuple[int, ...]
    engines: tuple[str, ...]
    spec: GenSpec
    n_cases: int = 0
    n_ok: int = 0
    n_infeasible: int = 0
    #: Cases that compile at ``-O0`` but not at some requested higher
    #: level (not failures: every compiled level still ran the matrix).
    n_level_gaps: int = 0
    seconds: float = 0.0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "core": self.core,
            "seed": self.seed,
            "levels": list(self.levels),
            "engines": list(self.engines),
            "spec": self.spec.to_dict(),
            "n_cases": self.n_cases,
            "n_ok": self.n_ok,
            "n_infeasible": self.n_infeasible,
            "n_level_gaps": self.n_level_gaps,
            "n_failures": len(self.failures),
            "seconds": round(self.seconds, 3),
            "failures": [failure.to_dict() for failure in self.failures],
        }


def random_stimulus(
    dfg: Dfg,
    n_lanes: int,
    n_frames: int,
    seed: int,
    fmt: FixedFormat,
) -> list[dict[str, list[int]]]:
    """Full-range random stimulus lanes, a pure function of the seed."""
    rng = random.Random(seed ^ 0x5EED)
    return [
        {port: [rng.randint(fmt.min_value, fmt.max_value)
                for _ in range(n_frames)]
         for port in dfg.inputs}
        for _ in range(n_lanes)
    ]


def _contains_op(dfg: Dfg, operation: str) -> bool:
    return any(node.kind is NodeKind.OP and node.name == operation
               for node in dfg.nodes)


def _inject_defect(outputs: list[dict[str, list[int]]],
                   fmt: FixedFormat) -> list[dict[str, list[int]]]:
    """Perturb the first sample of every stream (the planted bug)."""
    corrupted = []
    for lane in outputs:
        lane = {port: list(stream) for port, stream in lane.items()}
        for stream in lane.values():
            if stream:
                stream[0] = fmt.wrap(stream[0] + 1)
        corrupted.append(lane)
    return corrupted


def _inject_image_defect(binary):
    """The lint oracle's planted bug: a copy of the image whose IDLE
    word asserts a write-enable, latching a bus on which nothing
    matures (``mc.bus-hazard``).  The original binary is untouched, so
    the differential simulation stays green — only the lint pass can
    see the defect."""
    fmt = binary.format
    dp = binary.core.datapath
    victim = next((rf for rf in dp.register_files.values() if rf.writers),
                  None)
    if victim is None:
        return None
    fields = fmt.decode(binary.words[0])
    fields[f"{victim.name}.wr_en"] = 1
    words = list(binary.words)
    words[0] = fmt.encode(fields)
    return dataclasses.replace(binary, words=words)


def _lint_errors(binary) -> list:
    from ..analyze import lint_program

    return [f for f in lint_program(binary) if f.is_error]


def run_case(
    dfg: Dfg,
    core: CoreSpec | str,
    *,
    levels: tuple[int, ...] = DEFAULT_LEVELS,
    engines: tuple[str, ...] | None = None,
    n_frames: int = 6,
    n_lanes: int = 3,
    stimulus_seed: int = 0,
    inject: str | None = None,
    lint: bool = True,
) -> CaseResult:
    """One application through the full differential matrix.

    Compiles ``dfg`` at every level that routes onto ``core``, lints
    each image (``lint=True``), runs each binary over the stimulus
    batch on every engine, and compares all outputs against the
    reference interpretation of the source graph.  Returns
    ``infeasible`` when no level compiles (the normal fate of some
    random graphs on small cores), ``mismatch`` on the first
    differential disagreement, ``error`` when a compiled binary's
    simulation raises, and ``lint`` when the static lint flags an image
    the simulation cannot fault — a verifier/simulator disagreement.
    """
    from ..sim.batch import run_batch
    from ..toolchain import Toolchain

    resolved = resolve_core(core)
    engines = tuple(engines) if engines is not None else available_engines()
    fmt = FixedFormat(resolved.data_width, resolved.frac_bits)
    stimulus = random_stimulus(dfg, n_lanes, n_frames, stimulus_seed, fmt)
    expected = [run_reference(dfg, lane, n_frames, fmt=fmt)
                for lane in stimulus]

    compiled: list[tuple[int, object]] = []
    for level in levels:
        try:
            program = Toolchain(resolved, cache=None, opt=level).compile(dfg)
        except ReproError:
            continue
        compiled.append((level, program.binary))
    if not compiled:
        return CaseResult(status="infeasible")
    levels_compiled = tuple(level for level, _ in compiled)

    planted = inject is not None and _contains_op(dfg, inject)

    # The simulation-free oracle: lint every image before any engine
    # runs.  A planted defect goes into a corrupted *copy* and must be
    # caught right here, with no simulation at all; organic lint errors
    # are held back and classified against the simulators below.
    organic_lint: str | None = None
    if lint:
        for level, binary in compiled:
            target = _inject_image_defect(binary) if planted else binary
            if target is None:
                continue
            errors = _lint_errors(target)
            if errors:
                detail = (f"-O{level} lint: {errors[0].code}: "
                          f"{errors[0].message}")
                if planted:
                    return CaseResult(
                        status="lint",
                        detail=f"{detail} (planted image defect, caught "
                               f"without simulation)",
                        levels_compiled=levels_compiled)
                if organic_lint is None:
                    organic_lint = detail

    for level, binary in compiled:
        for engine in engines:
            try:
                actual = run_batch(binary, stimulus, n_frames, engine=engine)
            except ReproError as exc:
                detail = f"-O{level} {engine}: {type(exc).__name__}: {exc}"
                if organic_lint is not None:
                    detail += f"; {organic_lint}"
                return CaseResult(
                    status="error", detail=detail,
                    levels_compiled=levels_compiled)
            if planted and not lint and engine == "decoded":
                actual = _inject_defect(actual, fmt)
            if actual != expected:
                detail = _describe_mismatch(level, engine, expected, actual)
                if organic_lint is not None:
                    detail += f"; {organic_lint}"
                return CaseResult(
                    status="mismatch", detail=detail,
                    levels_compiled=levels_compiled)
    if organic_lint is not None:
        return CaseResult(
            status="lint",
            detail=f"{organic_lint} (differential simulation is clean: "
                   f"verifier/simulator disagreement)",
            levels_compiled=levels_compiled)
    return CaseResult(status="ok", levels_compiled=levels_compiled)


def _describe_mismatch(level: int, engine: str,
                       expected: list[dict[str, list[int]]],
                       actual: list[dict[str, list[int]]]) -> str:
    """First point of divergence, named down to the sample."""
    for lane, (want, got) in enumerate(zip(expected, actual)):
        for port in sorted(want):
            want_stream = want[port]
            got_stream = got.get(port)
            if got_stream == want_stream:
                continue
            if got_stream is None:
                return (f"-O{level} {engine}: lane {lane} port {port!r} "
                        f"missing from engine output")
            for frame, (w, g) in enumerate(zip(want_stream, got_stream)):
                if w != g:
                    return (f"-O{level} {engine}: lane {lane} port {port!r} "
                            f"frame {frame}: got {g}, reference says {w}")
            return (f"-O{level} {engine}: lane {lane} port {port!r}: "
                    f"length {len(got_stream)} vs {len(want_stream)}")
        extra = set(got) - set(want)
        if extra:
            return (f"-O{level} {engine}: lane {lane} emitted unexpected "
                    f"ports {sorted(extra)}")
    return f"-O{level} {engine}: outputs differ"


def fuzz(config: FuzzConfig, progress=None) -> FuzzReport:
    """Run one differential fuzz campaign.

    Cases are generated from consecutive seeds starting at
    ``config.seed`` (:func:`~repro.gen.generator.case_seed`), so any
    failure is replayed by a campaign of ``count=1`` at the failing
    seed.  ``progress`` is called once per case with a dict (``seed``,
    ``status``, ``done``); the telemetry registry counts
    ``fuzz.cases`` / ``fuzz.failures``.
    """
    resolved = resolve_core(config.core)
    engines = (tuple(config.engines) if config.engines is not None
               else available_engines())
    report = FuzzReport(core=resolved.name, seed=config.seed,
                        levels=tuple(config.levels), engines=engines,
                        spec=config.spec)
    if config.count is None and config.time_budget is None:
        raise ReproError("FuzzConfig needs a count or a time budget")
    obs = current_telemetry()
    started = time.perf_counter()
    index = 0
    while True:
        if config.count is not None and index >= config.count:
            break
        if (config.time_budget is not None and index > 0
                and time.perf_counter() - started >= config.time_budget):
            break
        seed = case_seed(config.seed, index)
        index += 1
        dfg = generate_dfg(config.spec, seed, core=resolved)
        result = run_case(
            dfg, resolved, levels=config.levels, engines=engines,
            n_frames=config.n_frames, n_lanes=config.n_lanes,
            stimulus_seed=seed, inject=config.inject, lint=config.lint)
        report.n_cases += 1
        obs.count("fuzz.cases")
        compiled = set(result.levels_compiled)
        if 0 in compiled and not compiled.issuperset(config.levels):
            report.n_level_gaps += 1
        if result.status == "ok":
            report.n_ok += 1
        elif result.status == "infeasible":
            report.n_infeasible += 1
        else:
            obs.count("fuzz.failures")
            report.failures.append(_minimized(dfg, seed, result, config,
                                              resolved, engines))
        if progress is not None:
            progress({"seed": seed, "status": result.status, "done": index})
    report.seconds = time.perf_counter() - started
    return report


def _minimized(dfg: Dfg, seed: int, result: CaseResult, config: FuzzConfig,
               core: CoreSpec, engines: tuple[str, ...]) -> FuzzFailure:
    """Wrap a finding, shrinking the graph if the config asks for it."""
    failure = FuzzFailure(
        seed=seed, status=result.status, detail=result.detail or "",
        source=emit_source(dfg), n_nodes=len(dfg.nodes))
    if not config.shrink:
        return failure

    def still_fails(candidate: Dfg) -> bool:
        replay = run_case(
            candidate, core, levels=config.levels, engines=engines,
            n_frames=config.n_frames, n_lanes=config.n_lanes,
            stimulus_seed=seed, inject=config.inject, lint=config.lint)
        return replay.status == result.status

    shrunk = shrink_dfg(dfg, still_fails, max_attempts=config.shrink_attempts)
    replay = run_case(
        shrunk, core, levels=config.levels, engines=engines,
        n_frames=config.n_frames, n_lanes=config.n_lanes,
        stimulus_seed=seed, inject=config.inject, lint=config.lint)
    failure.shrunk_source = emit_source(shrunk)
    failure.shrunk_detail = replay.detail
    failure.shrunk_nodes = len(shrunk.nodes)
    return failure
