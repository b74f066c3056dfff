"""Command-line interface: compile, batch, explore, run and inspect
without writing code.

::

    python -m repro compile app.dsp --core audio --budget 64 --listing
    python -m repro compile app.dsp --stop-after schedule
    python -m repro batch app1.dsp app2.dsp --core audio --budget 64
    python -m repro explore app1.dsp app2.dsp --mults 1-2 --alus 1,2 --jobs 4
    python -m repro explore app1.dsp app2.dsp --rf-sizes 8-16 --merges none,alu-operands --refine
    python -m repro run app.dsp --core fir --input x=0.5,-0.25,0.125
    python -m repro check app.dsp --core audio
    python -m repro check --image program.json --json
    python -m repro fuzz --core fir --time 120 --report fuzz_report.json
    python -m repro corpus --count 200 --out BENCH_corpus.json
    python -m repro inspect-core --core audio
    python -m repro run-image program.json --input x=100,200
    python -m repro serve --port 8750 --workers 4 --cache /var/cache/repro
    python -m repro worker http://build-host:8750 --name lab-2
    python -m repro cache stats --cache-dir /var/cache/repro --json
    python -m repro cache gc --max-bytes 100000000 --min-age 600
    python -m repro profile --app audio -n 5 --out BENCH_compile_profile.json
    python -m repro compile app.dsp --timings --trace trace.json

Cores are registered core names (``audio``, ``fir``, ``tiny``,
``adaptive``, plus anything added via
:func:`repro.arch.register_core`) or paths to JSON core descriptions
produced by :func:`repro.arch.dump_core`; resolution is
:func:`repro.arch.resolve_core` — the same rule the library uses.

Every compile-related flag (``--budget``, ``-O``, ``--cover``,
``--mode``, ``--repeat``, ``--stop-after``, ``--cache-dir``,
``--no-disk-cache``) is declared exactly once, by
:meth:`repro.options.CompileOptions.add_to_parser`; each subcommand
names the flag groups it exposes and :meth:`CompileOptions.from_args`
turns the parsed namespace back into the typed options object the
:class:`repro.toolchain.Toolchain` consumes.

``compile``, ``batch`` and ``explore`` keep a persistent stage cache
under ``~/.cache/repro`` (override with ``--cache-dir`` or
``$REPRO_CACHE_DIR``; disable with ``--no-disk-cache``), so re-runs in
new processes restore artifacts instead of recompiling.

Every verb records into a live :mod:`repro.obs` registry: ``--timings``
prints the span timeline to stderr, ``--trace FILE`` writes a Chrome
``trace_event`` JSON, and ``repro profile`` times repeated cold,
cached-cold and warm compiles into a per-stage p50/p95 table (see
``docs/observability.md``).
The complete reference, including exit codes and JSON output shapes, is
in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .arch import (
    MERGE_VARIANTS,
    ExploreCache,
    SweepSpec,
    explore,
    explore_refined,
    pareto_axes,
    pareto_front,
    resolve_core,
)
from .core import ClassTable, InstructionSet
from .encode import derive_format, dump_program, load_program
from .errors import ReproError
from .fixed import FixedFormat
from .lang import parse_source
from .obs import (
    Telemetry,
    profile_compile,
    render_profile,
    use_telemetry,
    write_chrome_trace,
    write_profile,
)
from .options import CompileOptions
from .pipeline import PIPELINE_STAGES, StageCache, open_backend
from .report import (
    batch_report,
    class_table_report,
    exploration_report,
    gantt_chart,
    occupation_chart,
    summary_report,
    timeline,
)
from .sim import ENGINES, batch as _batch, run_batch, run_program
from .toolchain import Toolchain


def engine_argument(value: str) -> str:
    """``--engine`` argparse type: make "numpy without numpy" a usage
    error (exit 2, with the fix named) instead of a late failure.

    ``auto`` stays permissive — it silently falls back to the decoded
    engine when numpy is absent, which is the whole point of ``auto``.
    The availability flag is read through the module at call time so
    tests can monkeypatch :data:`repro.sim.batch.NUMPY_AVAILABLE`.
    """
    if value == "numpy" and not _batch.NUMPY_AVAILABLE:
        raise argparse.ArgumentTypeError(
            "engine 'numpy' requires numpy, which is not installed "
            "(pip install repro[batch]); use --engine decoded, or "
            "--engine auto to fall back automatically")
    return value


def parse_stream(spec: str, fmt: FixedFormat) -> tuple[str, list[int]]:
    """``port=v1,v2,...`` — floats are quantised, bare ints passed through."""
    try:
        port, values = spec.split("=", 1)
    except ValueError:
        raise ReproError(f"bad --input {spec!r}: expected port=v1,v2,...") from None
    samples: list[int] = []
    for token in values.split(","):
        token = token.strip()
        if not token:
            continue
        if "." in token or "e" in token.lower():
            samples.append(fmt.from_float(float(token)))
        else:
            samples.append(fmt.wrap(int(token)))
    return port, samples


def parse_sweep(spec: str, flag: str) -> list[int]:
    """``1,2,4`` or ``1-4`` (or a mix) → sorted unique sweep values."""
    counts: set[int] = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if "-" in token:
                low_text, high_text = token.split("-", 1)
                low, high = int(low_text), int(high_text)
            else:
                low = high = int(token)
        except ValueError:
            raise ReproError(
                f"bad {flag} {spec!r}: expected values like 1,2 or 1-4"
            ) from None
        if low > high:
            raise ReproError(
                f"bad {flag} {spec!r}: reversed range {token!r} "
                f"({low} > {high})"
            )
        counts.update(range(low, high + 1))
    if not counts or min(counts) < 1:
        raise ReproError(f"bad {flag} {spec!r}: sweep values must be >= 1")
    return sorted(counts)


def parse_merge_variants(spec: str) -> list[str]:
    """``none,alu-operands`` → ordered unique known merge variants."""
    variants: list[str] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in MERGE_VARIANTS:
            raise ReproError(
                f"bad --merges {spec!r}: unknown variant {token!r} "
                f"(known: {', '.join(sorted(MERGE_VARIANTS))})"
            )
        if token not in variants:
            variants.append(token)
    if not variants:
        raise ReproError(f"bad --merges {spec!r}: no variants named")
    return variants


def cache_summary_line(state, telemetry: Telemetry | None = None) -> str:
    """One line describing where a compile's stages came from.

    With a live registry the figures come from its ``stagecache.*``
    counters — the single source of truth the cache tiers themselves
    emit (so the line and ``--timings``/``--trace`` can never
    disagree); without one, from the state's per-stage cache sources.
    """
    if telemetry is not None and telemetry.enabled:
        hits = telemetry.counters.get("stagecache.hit", 0)
        disk = telemetry.counters.get("stagecache.disk_hit", 0)
        return (f"stage cache  : {hits}/{len(state.completed)} stages "
                f"cached ({disk} disk)")
    counts = state.cache_counts()
    cached = counts["memory"] + counts["disk"]
    return (f"stage cache  : {cached}/{len(state.completed)} stages cached "
            f"({counts['disk']} disk)")


def command_telemetry(args: argparse.Namespace) -> Telemetry:
    """The live registry one CLI command records into.

    Always enabled — the per-compile cost is a handful of spans, and it
    makes the cache summary line, ``--timings`` and ``--trace`` all
    read from the same record.
    """
    return Telemetry()


def emit_telemetry(args: argparse.Namespace, telemetry: Telemetry) -> None:
    """Honor ``--timings``/``--trace`` after a command's work is done.

    Both land on stderr (the trace JSON on disk), so ``--json`` stdout
    consumers never see telemetry mixed into their payload.
    """
    if getattr(args, "timings", False):
        print(timeline(telemetry), file=sys.stderr)
    if getattr(args, "trace", None):
        path = write_chrome_trace(telemetry, args.trace)
        print(f"chrome trace written to {path} "
              f"(open in chrome://tracing or ui.perfetto.dev)",
              file=sys.stderr)


def add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """The observability flags every verb-like subcommand shares."""
    parser.add_argument(
        "--timings", action="store_true",
        help="print the telemetry timeline (per-stage spans, counters, "
             "events) to stderr")
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace_event JSON of the command to FILE")


def cmd_compile(args: argparse.Namespace) -> int:
    options = CompileOptions.from_args(args)
    obs = command_telemetry(args)
    # Without a disk store, a full compile needs no snapshots at all
    # (the classic cold path); --stop-after always needs a cache so the
    # per-stage fingerprints are recorded.
    if options.disk_cache:
        toolchain = Toolchain(args.core, options, telemetry=obs)
    else:
        toolchain = Toolchain(
            args.core, options, telemetry=obs,
            cache=StageCache() if options.stop_after else None)
    source = Path(args.source).read_text()
    state = toolchain.run_pipeline(source)
    emit_telemetry(args, obs)
    if options.stop_after:
        provides = {s.name: "/".join(s.provides) for s in PIPELINE_STAGES}
        print(f"partial compilation (stopped after {options.stop_after!r}):")
        for stage in state.completed:
            source_tag = state.cache_sources.get(stage)
            cached = f"  [{source_tag}]" if source_tag else ""
            print(f"  {stage:<9} {state.fingerprints[stage][:16]}  "
                  f"-> {provides[stage]}{cached}")
        if "schedule" in state.artifacts:
            print(f"schedule length: {state.schedule.length} cycles")
        # Honor the output flags whose artifacts were produced; name the
        # ones the partial compile stopped short of.
        if args.occupation or args.gantt:
            if "schedule" in state.artifacts:
                if args.occupation:
                    print()
                    print(occupation_chart(state.schedule))
                if args.gantt:
                    print()
                    print(gantt_chart(state.schedule))
            else:
                print("(--occupation/--gantt ignored: stopped before "
                      "'schedule')", file=sys.stderr)
        if args.listing or args.out:
            if "binary" in state.artifacts:
                if args.listing:
                    print()
                    print(state.binary.listing())
                if args.out:
                    Path(args.out).write_text(dump_program(state.binary))
                    print(f"\nmicrocode image written to {args.out}")
            else:
                print("(--listing/--out ignored: stopped before 'assemble')",
                      file=sys.stderr)
        return 0
    compiled = state.as_compiled()
    print(summary_report(compiled))
    if options.disk_cache:
        print(cache_summary_line(state, obs))
    if args.occupation:
        print()
        print(occupation_chart(compiled.schedule))
    if args.gantt:
        print()
        print(gantt_chart(compiled.schedule))
    if args.listing:
        print()
        print(compiled.binary.listing())
    if args.out:
        Path(args.out).write_text(dump_program(compiled.binary))
        print(f"\nmicrocode image written to {args.out}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    options = CompileOptions.from_args(args)
    obs = command_telemetry(args)
    toolchain = Toolchain(args.core, options, telemetry=obs)
    sources = [Path(source).read_text() for source in args.sources]
    names = [Path(source).name for source in args.sources]
    result = toolchain.compile_many(sources, names=names)
    emit_telemetry(args, obs)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        used: dict[str, int] = {}
        for entry in result.entries:
            if entry.state is not None:
                stem = Path(entry.name).stem
                # Sources from different directories may share a stem;
                # never let one image clobber another.
                count = used.get(stem, 0)
                used[stem] = count + 1
                suffix = f"-{count + 1}" if count else ""
                image = out_dir / f"{stem}{suffix}.json"
                image.write_text(dump_program(entry.state.binary))
    if args.json:
        counts = result.stage_counts()
        payload = {
            "core": toolchain.core.name,
            "options": options.to_dict(),
            "seconds": round(result.seconds, 4),
            "cache": counts,
            "applications": [
                {
                    "source": name,
                    "application": (entry.state.dfg.name
                                    if entry.state is not None else None),
                    "ok": entry.ok,
                    "n_cycles": (entry.state.schedule.length
                                 if entry.state is not None else None),
                    "seconds": round(entry.seconds, 4),
                    "error": entry.error,
                }
                for name, entry in zip(args.sources, result.entries)
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(batch_report(result))
        counts = result.stage_counts()
        ok = sum(1 for entry in result.entries if entry.ok)
        print(f"\n{ok}/{len(result.entries)} applications compiled in "
              f"{result.seconds:.3f}s; stages: {counts['executed']} executed, "
              f"{counts['memory']} memory hits, {counts['disk']} disk hits")
        if args.out_dir and ok:
            print(f"microcode images written to {args.out_dir}")
    return 0 if result.ok else 1


def sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """The multi-dimensional candidate grid the explore flags name."""
    return SweepSpec(
        n_mults=tuple(parse_sweep(args.mults, "--mults")),
        n_alus=tuple(parse_sweep(args.alus, "--alus")),
        n_rams=tuple(parse_sweep(args.rams, "--rams")),
        rf_sizes=tuple(parse_sweep(args.rf_sizes, "--rf-sizes")),
        ram_sizes=tuple(parse_sweep(args.ram_sizes, "--ram-sizes")),
        rom_sizes=tuple(parse_sweep(args.rom_sizes, "--rom-sizes")),
        merge_variants=tuple(parse_merge_variants(args.merges)),
    )


def cmd_explore(args: argparse.Namespace) -> int:
    options = CompileOptions.from_args(args)
    obs = command_telemetry(args)
    dfgs = [parse_source(Path(source).read_text()) for source in args.sources]
    spec = sweep_spec_from_args(args)
    axes = pareto_axes(spec)
    cache = (ExploreCache(disk=open_backend(options.cache_dir))
             if options.disk_cache else None)
    progress = None
    if args.progress:
        def progress(record: dict) -> None:
            tag = "memo" if record["cached"] else (
                "ok" if record["feasible"] else "infeasible")
            print(f"  [{record['done']}/{record['total']}] "
                  f"{record['allocation']} {tag}", file=sys.stderr)
    with use_telemetry(obs):
        if args.refine:
            # NB: an empty ExploreCache is falsy (it has __len__), so
            # the disk-backed cache must be tested against None, not
            # truthiness.
            sweep = explore_refined(dfgs, spec, options=options,
                                    jobs=args.jobs, cache=cache, axes=axes,
                                    progress=progress)
            points, front_points = sweep.points, sweep.front
        else:
            sweep = None
            points = explore(dfgs, spec.allocations(), options=options,
                             jobs=args.jobs, cache=cache,
                             progress=progress)
            front_points = pareto_front(points, axes=axes)
    emit_telemetry(args, obs)
    if args.json:
        front = {id(p) for p in front_points}
        payload = {
            "applications": [dfg.name for dfg in dfgs],
            "options": options.to_dict(),
            "pareto_axes": list(axes),
            "sweep": {
                "grid": spec.size,
                "evaluated": len(points),
                "refined": args.refine,
                "coarse": sweep.n_coarse if sweep else None,
                "fine": sweep.n_refined if sweep else None,
            },
            "points": [
                {
                    "allocation": {
                        "n_mult": p.allocation.n_mult,
                        "n_alu": p.allocation.n_alu,
                        "n_ram": p.allocation.n_ram,
                        "rf_size": p.allocation.rf_size,
                        "ram_size": p.allocation.ram_size,
                        "rom_size": p.allocation.rom_size,
                        "merge_variant": p.allocation.merge_variant,
                    },
                    "n_opus": p.n_opus,
                    "n_rfs": p.n_rfs,
                    "storage_words": p.storage_words,
                    "feasible": p.feasible,
                    "schedule_lengths": p.schedule_lengths,
                    "worst_length": (p.worst_length if p.feasible else None),
                    "failures": p.failures,
                    "pareto": id(p) in front,
                }
                for p in points
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(exploration_report(points, budget=options.budget,
                                 front=front_points))
        feasible = sum(1 for p in points if p.feasible)
        print(f"\n{len(points)} candidates, {feasible} feasible, "
              f"{len(front_points)} on the Pareto front")
        if sweep is not None:
            print(f"coarse-to-fine: evaluated {sweep.n_evaluated} of "
                  f"{sweep.n_grid} grid points "
                  f"({sweep.n_coarse} coarse + {sweep.n_refined} refined)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    options = CompileOptions.from_args(args)
    obs = command_telemetry(args)
    toolchain = Toolchain(args.core, options, cache=None, telemetry=obs)
    source = Path(args.source).read_text()
    core = toolchain.core
    fmt = FixedFormat(core.data_width, core.frac_bits)
    inputs = dict(parse_stream(spec, fmt) for spec in args.input)
    outputs = toolchain.run(source, inputs, args.frames, engine=args.engine)
    emit_telemetry(args, obs)
    for port in sorted(outputs):
        rendered = ", ".join(str(v) for v in outputs[port])
        print(f"{port}: [{rendered}]")
        if args.floats:
            floats = ", ".join(f"{fmt.to_float(v):+.5f}" for v in outputs[port])
            print(f"{port} (float): [{floats}]")
    return 0


def cmd_run_image(args: argparse.Namespace) -> int:
    program = load_program(Path(args.image).read_text())
    fmt = FixedFormat(program.core.data_width, program.core.frac_bits)
    inputs = dict(parse_stream(spec, fmt) for spec in args.input)
    if args.engine == "scalar":
        outputs = run_program(program, inputs, args.frames)
    else:
        outputs = run_batch(program, [inputs], args.frames,
                            engine=args.engine)[0]
    for port in sorted(outputs):
        print(f"{port}: [{', '.join(str(v) for v in outputs[port])}]")
    return 0


def parse_levels(spec: str) -> tuple[int, ...]:
    """``0,1,2`` → ordered unique optimizer levels."""
    levels: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            level = int(token)
        except ValueError:
            raise ReproError(
                f"bad --levels {spec!r}: expected integers like 0,1,2"
            ) from None
        if level not in (0, 1, 2):
            raise ReproError(
                f"bad --levels {spec!r}: optimizer levels are 0, 1 or 2")
        if level not in levels:
            levels.append(level)
    if not levels:
        raise ReproError(f"bad --levels {spec!r}: no levels named")
    return tuple(levels)


def parse_engines(spec: str) -> tuple[str, ...]:
    """``scalar,decoded,numpy`` → ordered unique differential engines."""
    from .gen import available_engines

    known = ("scalar", "decoded", "numpy")
    engines: list[str] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in known:
            raise ReproError(
                f"bad --engines {spec!r}: unknown engine {token!r} "
                f"(known: {', '.join(known)}; 'auto' is not a "
                f"differential engine)")
        if token == "numpy" and "numpy" not in available_engines():
            raise ReproError(
                "engine 'numpy' requires numpy, which is not installed "
                "(pip install repro[batch]); drop it from --engines")
        if token not in engines:
            engines.append(token)
    if not engines:
        raise ReproError(f"bad --engines {spec!r}: no engines named")
    return tuple(engines)


def _gen_spec_from_args(args: argparse.Namespace):
    """The generator shape knobs ``fuzz``/``corpus`` expose."""
    from .gen import GenSpec

    fields = {}
    if args.max_ops is not None:
        fields["max_ops"] = args.max_ops
    if getattr(args, "min_ops", None) is not None:
        fields["min_ops"] = args.min_ops
    return GenSpec(**fields)


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .gen import FuzzConfig, fuzz

    obs = command_telemetry(args)
    count = args.count
    if count is None and args.time is None:
        count = 100
    config = FuzzConfig(
        core=args.core,
        seed=args.seed,
        count=count,
        time_budget=args.time,
        levels=parse_levels(args.levels),
        engines=parse_engines(args.engines) if args.engines else None,
        n_frames=args.frames,
        n_lanes=args.lanes,
        shrink=not args.no_shrink,
        spec=_gen_spec_from_args(args),
        inject=args.inject,
        lint=not args.no_lint,
    )
    progress = None
    if args.progress:
        def progress(record: dict) -> None:
            print(f"  [{record['done']}] seed={record['seed']} "
                  f"{record['status']}", file=sys.stderr)
    with use_telemetry(obs):
        report = fuzz(config, progress=progress)
    emit_telemetry(args, obs)
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"fuzz: core={report.core} seed={report.seed} "
              f"levels={','.join(str(level) for level in report.levels)} "
              f"engines={','.join(report.engines)}")
        print(f"{report.n_cases} cases in {report.seconds:.2f}s: "
              f"{report.n_ok} ok, {report.n_infeasible} infeasible, "
              f"{len(report.failures)} failures")
        for failure in report.failures:
            print(f"\nFAILURE seed={failure.seed} [{failure.status}] "
                  f"{failure.detail}")
            if failure.shrunk_source is not None:
                print(f"shrunk {failure.n_nodes} -> {failure.shrunk_nodes} "
                      f"nodes:")
                print(failure.shrunk_source.rstrip())
            print(f"replay: repro fuzz --core {report.core} "
                  f"--seed {failure.seed} --count 1")
        if args.report:
            print(f"\nfuzz report written to {args.report}")
    return 0 if report.ok else 1


def cmd_corpus(args: argparse.Namespace) -> int:
    from .gen import run_corpus

    report = run_corpus(
        args.count,
        seed=args.seed,
        core=args.core,
        spec=_gen_spec_from_args(args),
        levels=parse_levels(args.levels),
        engines=parse_engines(args.engines) if args.engines else None,
        n_frames=args.frames,
        n_lanes=args.lanes,
    )
    if args.out:
        report.write(args.out)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"corpus: core={report.core} seed={report.seed} "
              f"count={report.count} ({report.attempts} seeds drawn)")
        for level, stats in sorted(report.compile_stats.items()):
            rate = stats["apps_per_second"]
            print(f"  compile -O{level}: {stats['seconds']:.3f}s "
                  f"({rate:.0f} apps/s, {stats['cycles_total']} cycles total)"
                  if rate is not None else
                  f"  compile -O{level}: {stats['seconds']:.3f}s")
        for engine, stats in report.sim_stats.items():
            rate = stats["lane_frames_per_second"]
            print(f"  sim {engine}: {stats['seconds']:.3f}s "
                  f"({rate:.0f} lane-frames/s)"
                  if rate is not None else
                  f"  sim {engine}: {stats['seconds']:.3f}s")
        print(f"  mismatches: {report.mismatches}")
        for line in report.failures:
            print(f"  failure: {line}")
        if args.out:
            print(f"corpus report written to {args.out}")
    return 0 if report.ok else 1


#: Cores the built-in ``repro profile`` applications naturally target.
PROFILE_APPS = {"audio": "audio", "fir": "fir", "stress": "audio"}


def _profile_application(name: str):
    from .apps import audio_application, fir_application, stress_application

    if name == "audio":
        return audio_application()
    if name == "fir":
        return fir_application([0.05 * (k + 1) for k in range(8)],
                               name="fir8")
    return stress_application(8)


def cmd_profile(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise ReproError(f"--runs must be >= 1, got {args.runs}")
    if args.source is not None:
        application = Path(args.source).read_text()
        core = args.core or "audio"
    else:
        application = _profile_application(args.app)
        core = args.core or PROFILE_APPS[args.app]
    options = CompileOptions.from_args(args)
    result = profile_compile(application, core=core, options=options,
                             runs=args.runs)
    print(render_profile(result))
    if args.out:
        path = write_profile(result, args.out)
        print(f"\nprofile written to {path}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .analyze import lint_program, verify_state

    if args.image is not None and args.source is not None:
        raise ReproError("give a source file or --image, not both")
    if args.image is None and args.source is None:
        raise ReproError("nothing to check: give a source file or --image")
    obs = command_telemetry(args)
    if args.image is not None:
        program = load_program(Path(args.image).read_text())
        with use_telemetry(obs):
            findings = lint_program(program)
        subject = args.image
    else:
        # Compile with verification off: the point of `check` is to
        # report every finding at once, not to stop at the first bad
        # stage boundary the way `--verify strict` does.
        options = CompileOptions.from_args(args)
        if options.disk_cache:
            toolchain = Toolchain(args.core, options, telemetry=obs)
        else:
            toolchain = Toolchain(args.core, options, telemetry=obs,
                                  cache=None)
        source = Path(args.source).read_text()
        with use_telemetry(obs):
            state = toolchain.run_pipeline(source)
            findings = verify_state(state)
        subject = args.source
    emit_telemetry(args, obs)
    n_errors = sum(1 for f in findings if f.is_error)
    n_warnings = len(findings) - n_errors
    if args.json:
        print(json.dumps({
            "subject": subject,
            "ok": n_errors == 0,
            "errors": n_errors,
            "warnings": n_warnings,
            "findings": [f.to_dict() for f in findings],
        }, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        tally = (f"{n_errors} error{'s' if n_errors != 1 else ''}, "
                 f"{n_warnings} warning{'s' if n_warnings != 1 else ''}")
        if findings:
            print(f"check: {subject}: {tally}")
        else:
            print(f"check: {subject}: clean ({tally})")
    return 1 if n_errors else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .pipeline import default_cache_dir
    from .serve import CompileServer, ServerConfig

    if args.no_cache:
        cache = None
    elif args.cache is not None:
        cache = args.cache
    else:
        cache = str(default_cache_dir())
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        executor=args.executor,
        max_queue=args.queue,
        job_timeout=args.timeout if args.timeout > 0 else None,
        rate_limit=args.rate,
        rate_burst=args.burst,
        cache=cache,
        cores=frozenset(args.cores.split(",")) if args.cores else None,
    )
    server = CompileServer(config)

    async def main() -> None:
        await server.start()
        mode = (f"{config.workers} {config.executor} workers"
                if config.workers else "pull mode (waiting for workers)")
        print(f"repro serve: http://{config.host}:{server.port} "
              f"[{mode}] cache={cache or 'off'}", file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro serve: stopped", file=sys.stderr)
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    import socket

    from .serve import run_worker

    name = args.name or f"{socket.gethostname()}-{os.getpid()}"
    print(f"repro worker {name!r}: pulling from {args.server}",
          file=sys.stderr)
    try:
        completed = run_worker(args.server, name=name, poll=args.poll,
                               max_jobs=args.max_jobs,
                               max_idle=args.max_idle)
    except KeyboardInterrupt:
        print("repro worker: stopped", file=sys.stderr)
        return 0
    print(f"repro worker {name!r}: {completed} jobs completed",
          file=sys.stderr)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .pipeline import backend_stats

    obs = command_telemetry(args)
    with use_telemetry(obs):
        backend = open_backend(args.cache_dir)
        if args.action == "stats":
            payload = backend_stats(backend)
        elif args.action == "gc":
            removed = backend.gc(args.max_bytes, min_age=args.min_age)
            payload = {"removed": removed, **backend_stats(backend)}
        elif args.action == "verify":
            report = backend.verify()
            payload = {**report.to_dict(), **backend_stats(backend)}
        else:  # clear
            removed = backend.clear()
            payload = {"removed": removed, **backend_stats(backend)}
    emit_telemetry(args, obs)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"cache        : {payload['backend']} at "
          f"{payload.get('location', '?')}")
    print(f"entries      : {payload['entries']} "
          f"({payload['bytes']} bytes"
          + (f", bound {payload['max_bytes']}" if payload.get("max_bytes")
             else "") + ")")
    if args.action == "gc":
        print(f"gc           : {payload['removed']} entries removed")
    elif args.action == "clear":
        print(f"clear        : {payload['removed']} entries removed")
    elif args.action == "verify":
        state = ("clean" if payload["clean"]
                 else f"{payload['corrupt']} corrupt, "
                      f"{payload['version_skew']} version-skewed dropped")
        print(f"verify       : {payload['checked']} checked, {state}")
    if args.action == "verify" and not payload["clean"]:
        return 1
    return 0


def cmd_inspect_core(args: argparse.Namespace) -> int:
    core = resolve_core(args.core)
    table = ClassTable.from_core(core) if core.class_defs else ClassTable.auto(core)
    fmt = derive_format(core)
    datapath = core.datapath
    print(f"core        : {core.name}")
    print(f"OPUs        : {', '.join(datapath.opus)}")
    print(f"reg. files  : " + ", ".join(
        f"{rf.name}[{rf.size}]" for rf in datapath.register_files.values()))
    print(f"buses       : {', '.join(datapath.buses)}")
    print(f"instruction : {fmt.width} bits, {len(fmt.fields)} fields")
    print(f"controller  : stack {core.controller.stack_depth}, "
          f"flags {core.controller.n_flags}, "
          f"conditionals {'yes' if core.controller.supports_conditionals else 'no'}")
    print()
    print(class_table_report(table))
    if core.instruction_types:
        iset = InstructionSet.from_desired(table.names, core.instruction_types)
        print()
        maximal = ", ".join(
            "{" + ", ".join(sorted(t)) + "}" for t in iset.maximal_types()
        )
        print(f"instruction set: {len(iset)} types; maximal: {maximal}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Retargetable code generation for in-house DSP cores "
                    "(Strik & van Meerbergen, DATE 1995).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a source file to microcode")
    c.add_argument("source")
    c.add_argument("--core", default="audio")
    CompileOptions.add_to_parser(c, include=(
        "budget", "opt", "cover", "mode", "repeat", "stop_after", "verify",
        "cache"))
    c.add_argument("--listing", action="store_true")
    c.add_argument("--occupation", action="store_true")
    c.add_argument("--gantt", action="store_true")
    c.add_argument("--out", default=None, help="write the microcode image JSON")
    add_telemetry_flags(c)
    c.set_defaults(handler=cmd_compile)

    b = sub.add_parser(
        "batch",
        help="compile an application set against one core in a single "
             "cached session",
    )
    b.add_argument("sources", nargs="+", help="application source files")
    b.add_argument("--core", default="audio")
    CompileOptions.add_to_parser(b, include=(
        "budget", "opt", "cover", "cache"))
    b.add_argument("--out-dir", default=None, metavar="DIR",
                   help="write one microcode image JSON per application")
    b.add_argument("--json", action="store_true",
                   help="machine-readable output")
    add_telemetry_flags(b)
    b.set_defaults(handler=cmd_batch)

    e = sub.add_parser(
        "explore",
        help="design-space exploration: sweep OPU allocations over an "
             "application set (phase 1 of the paper)",
    )
    e.add_argument("sources", nargs="+",
                   help="application source files (the representative set)")
    e.add_argument("--mults", default="1,2", metavar="SWEEP",
                   help="multiplier counts, e.g. 1,2 or 1-4 (default 1,2)")
    e.add_argument("--alus", default="1,2", metavar="SWEEP",
                   help="ALU counts (default 1,2)")
    e.add_argument("--rams", default="1,2", metavar="SWEEP",
                   help="RAM counts (default 1,2)")
    e.add_argument("--rf-sizes", default="16", metavar="SWEEP",
                   help="register-file capacities per operand port, "
                        "e.g. 8,16 or 8-32 (default 16)")
    e.add_argument("--ram-sizes", default="256", metavar="SWEEP",
                   help="data-memory words per RAM (default 256)")
    e.add_argument("--rom-sizes", default="128", metavar="SWEEP",
                   help="coefficient-ROM words (default 128)")
    e.add_argument("--merges", default="none", metavar="VARIANTS",
                   help="register-file merge variants to sweep: "
                        f"{', '.join(sorted(MERGE_VARIANTS))} (default none)")
    e.add_argument("--refine", action="store_true",
                   help="coarse-to-fine sweep: evaluate a thinned grid, "
                        "then only the fine neighborhoods of its Pareto "
                        "front")
    CompileOptions.add_to_parser(e, include=("budget", "opt", "cache"))
    e.add_argument("--jobs", type=int, default=None,
                   help="evaluate candidates in parallel over this many "
                        "worker processes")
    e.add_argument("--json", action="store_true",
                   help="machine-readable output")
    e.add_argument("--progress", action="store_true",
                   help="print one line per candidate to stderr as "
                        "results land")
    add_telemetry_flags(e)
    e.set_defaults(handler=cmd_explore)

    r = sub.add_parser("run", help="compile and simulate a source file")
    r.add_argument("source")
    r.add_argument("--core", default="audio")
    CompileOptions.add_to_parser(r, include=("budget", "opt"))
    r.add_argument("--input", action="append", default=[],
                   metavar="PORT=V1,V2,...")
    r.add_argument("--frames", type=int, default=None)
    r.add_argument("--floats", action="store_true",
                   help="also print outputs as real numbers")
    r.add_argument("--engine", default="auto", choices=ENGINES,
                   type=engine_argument,
                   help="simulator engine: the scalar oracle, the "
                        "decoded single-lane interpreter, the numpy "
                        "batch engine, or auto (default)")
    add_telemetry_flags(r)
    r.set_defaults(handler=cmd_run)

    p = sub.add_parser(
        "profile",
        help="compile an application repeatedly (cold, cached cold and "
             "warm) and report per-stage p50/p95 wall clock",
    )
    p.add_argument("source", nargs="?", default=None,
                   help="application source file (default: a built-in "
                        "application, see --app)")
    p.add_argument("--app", default="audio", choices=sorted(PROFILE_APPS),
                   help="built-in application to profile when no source "
                        "file is given (default audio)")
    p.add_argument("--core", default=None,
                   help="target core (default: the app's natural core, "
                        "or 'audio' for a source file)")
    CompileOptions.add_to_parser(p, include=("budget", "opt"))
    p.add_argument("-n", "--runs", type=int, default=5,
                   help="runs to time in each regime (default 5)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the profile JSON "
                        "(e.g. BENCH_compile_profile.json)")
    p.set_defaults(handler=cmd_profile)

    f = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random seeded applications through "
             "every -O level and simulator engine against the reference "
             "interpreter",
    )
    f.add_argument("--core", default="fir",
                   help="target core (default fir)")
    f.add_argument("--seed", type=int, default=0,
                   help="base case seed (default 0); failures report the "
                        "exact case seed to replay with --count 1")
    f.add_argument("--count", type=int, default=None,
                   help="number of cases (default 100 when no --time)")
    f.add_argument("--time", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget; stops after the case that "
                        "crosses it (combines with --count)")
    f.add_argument("--levels", default="0,1,2", metavar="LEVELS",
                   help="optimizer levels to cross (default 0,1,2)")
    f.add_argument("--engines", default=None, metavar="ENGINES",
                   help="engines to compare, e.g. scalar,decoded,numpy "
                        "(default: every engine available)")
    f.add_argument("--frames", type=int, default=6,
                   help="stimulus frames per lane (default 6)")
    f.add_argument("--lanes", type=int, default=3,
                   help="stimulus lanes per case (default 3)")
    f.add_argument("--min-ops", type=int, default=None,
                   help="smallest generated op count")
    f.add_argument("--max-ops", type=int, default=None,
                   help="largest generated op count")
    f.add_argument("--no-shrink", action="store_true",
                   help="report failures unminimized")
    f.add_argument("--inject", default=None, metavar="OP",
                   help="plant an artificial image defect on graphs "
                        "containing OP (harness self-test; the lint "
                        "oracle must flag it without simulating)")
    f.add_argument("--no-lint", action="store_true",
                   help="skip the machine-code lint oracle (differential "
                        "simulation only)")
    f.add_argument("--report", default=None, metavar="FILE",
                   help="write the JSON crash report to FILE")
    f.add_argument("--json", action="store_true",
                   help="machine-readable output")
    f.add_argument("--progress", action="store_true",
                   help="print one line per case to stderr")
    add_telemetry_flags(f)
    f.set_defaults(handler=cmd_fuzz)

    g = sub.add_parser(
        "corpus",
        help="materialize a pinned random corpus, batch-compile it at "
             "every -O level and measure differential simulation "
             "throughput",
    )
    g.add_argument("--core", default="fir",
                   help="target core (default fir)")
    g.add_argument("--seed", type=int, default=0,
                   help="corpus base seed (default 0)")
    g.add_argument("--count", type=int, default=200,
                   help="corpus size (default 200)")
    g.add_argument("--levels", default="0,1,2", metavar="LEVELS",
                   help="optimizer levels (default 0,1,2)")
    g.add_argument("--engines", default=None, metavar="ENGINES",
                   help="engines to time (default: every engine available)")
    g.add_argument("--frames", type=int, default=8,
                   help="stimulus frames per lane (default 8)")
    g.add_argument("--lanes", type=int, default=4,
                   help="stimulus lanes per application (default 4)")
    g.add_argument("--min-ops", type=int, default=None,
                   help="smallest generated op count")
    g.add_argument("--max-ops", type=int, default=None,
                   help="largest generated op count")
    g.add_argument("--out", default=None, metavar="FILE",
                   help="write the throughput report JSON "
                        "(e.g. BENCH_corpus.json)")
    g.add_argument("--json", action="store_true",
                   help="machine-readable output")
    g.set_defaults(handler=cmd_corpus)

    h = sub.add_parser(
        "check",
        help="static analysis: verify every pipeline artifact and lint "
             "the encoded image, without simulating",
    )
    h.add_argument("source", nargs="?", default=None,
                   help="application source file to compile and check")
    h.add_argument("--image", default=None, metavar="FILE",
                   help="lint a saved microcode image instead of "
                        "compiling a source file")
    h.add_argument("--core", default="audio")
    CompileOptions.add_to_parser(h, include=(
        "budget", "opt", "cover", "mode", "repeat", "cache"))
    h.add_argument("--json", action="store_true",
                   help="machine-readable findings")
    add_telemetry_flags(h)
    h.set_defaults(handler=cmd_check)

    i = sub.add_parser("run-image", help="simulate a saved microcode image")
    i.add_argument("image")
    i.add_argument("--input", action="append", default=[],
                   metavar="PORT=V1,V2,...")
    i.add_argument("--frames", type=int, default=None)
    i.add_argument("--engine", default="auto", choices=ENGINES,
                   type=engine_argument,
                   help="simulator engine (default auto)")
    i.set_defaults(handler=cmd_run_image)

    s = sub.add_parser(
        "serve",
        help="compile-as-a-service: an HTTP/JSON server over the "
             "toolchain (see docs/serving.md)",
    )
    s.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    s.add_argument("--port", type=int, default=8750,
                   help="bind port; 0 picks an ephemeral one "
                        "(default 8750)")
    s.add_argument("--workers", type=int, default=2,
                   help="local worker slots; 0 switches to pull mode "
                        "where `repro worker` processes claim jobs "
                        "(default 2)")
    s.add_argument("--executor", default="process",
                   choices=("process", "thread"),
                   help="local worker executor (default process)")
    s.add_argument("--queue", type=int, default=64,
                   help="pending-job bound; beyond it submissions get "
                        "503 (default 64)")
    s.add_argument("--timeout", type=float, default=120.0,
                   metavar="SECONDS",
                   help="per-job wall-clock limit; 0 disables "
                        "(default 120)")
    s.add_argument("--rate", type=float, default=None, metavar="PER_SEC",
                   help="submissions/second/peer; beyond it submissions "
                        "get 429 (default: unlimited)")
    s.add_argument("--burst", type=int, default=10,
                   help="rate-limit burst allowance (default 10)")
    s.add_argument("--cache", default=None, metavar="SPEC",
                   help="cache backend every job shares: a directory or "
                        "memory:<name> (default: the standard cache dir)")
    s.add_argument("--no-cache", action="store_true",
                   help="serve without a shared cache backend")
    s.add_argument("--cores", default=None, metavar="NAMES",
                   help="restrict served cores, e.g. audio,fir "
                        "(default: every registered core)")
    s.set_defaults(handler=cmd_serve)

    w = sub.add_parser(
        "worker",
        help="pull-mode compile worker: claim queued jobs from a "
             "`repro serve --workers 0` server",
    )
    w.add_argument("server", help="server URL, e.g. http://host:8750")
    w.add_argument("--name", default=None,
                   help="worker name for claims (default host-pid)")
    w.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                   help="idle polling interval (default 0.5)")
    w.add_argument("--max-jobs", type=int, default=None,
                   help="exit after this many jobs (default: run forever)")
    w.add_argument("--max-idle", type=float, default=None,
                   metavar="SECONDS",
                   help="exit after this long without work "
                        "(default: run forever)")
    w.set_defaults(handler=cmd_worker)

    a = sub.add_parser(
        "cache",
        help="cache-backend administration: stats, gc, verify, clear",
    )
    a.add_argument("action", choices=("stats", "gc", "verify", "clear"),
                   help="stats: describe the store; gc: bound it; "
                        "verify: integrity-check every entry; clear: "
                        "drop everything")
    CompileOptions.add_to_parser(a, include=("cache_dir",))
    a.add_argument("--max-bytes", type=int, default=None,
                   help="gc: evict LRU entries until the store fits "
                        "(default: the backend's own bound)")
    a.add_argument("--min-age", type=float, default=0.0,
                   metavar="SECONDS",
                   help="gc: never evict entries younger than this — "
                        "protects stages of in-flight compiles "
                        "(default 0)")
    a.add_argument("--json", action="store_true",
                   help="machine-readable output")
    add_telemetry_flags(a)
    a.set_defaults(handler=cmd_cache)

    k = sub.add_parser("inspect-core", help="describe a core")
    k.add_argument("--core", default="audio")
    k.set_defaults(handler=cmd_inspect_core)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The consumer of our stdout went away (`repro ... | head`).
        # That is a clean end, not a user error; point stdout at
        # /dev/null so the interpreter's exit-time flush stays quiet.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        except OSError:
            pass
        return 0
    except OSError as exc:
        # Missing/unreadable source files, a directory where a file
        # was expected, ... — user errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
