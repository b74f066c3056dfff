"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch import resolve_core
from repro.cli import main, parse_stream
from repro.errors import ReproError
from repro.fixed import Q15
from repro.options import CompileOptions

GAIN = """
app gain;
param g = 0.5;
input i; output o;
loop { o = mlt(g, i); }
"""

CHAIN = """
app chain;
param g = 0.5;
input i; output o;
loop {
  m := mlt(g, i);
  a := pass(m);
  b := pass(a);
  o = pass_clip(b);
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "gain.dsp"
    path.write_text(GAIN)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.dsp"
    path.write_text(CHAIN)
    return str(path)


class TestHelpers:
    def test_resolve_library_cores(self):
        for name in ("audio", "fir", "tiny", "adaptive"):
            assert resolve_core(name).name in (name, "adaptive")

    def test_resolve_core_file(self, tmp_path):
        from repro.arch import dump_core, tiny_core

        path = tmp_path / "core.json"
        path.write_text(dump_core(tiny_core()))
        assert resolve_core(str(path)).name == "tiny"

    def test_resolve_unknown_core(self):
        with pytest.raises(ReproError, match="unknown core"):
            resolve_core("warp-drive")

    def test_parse_stream_floats_and_ints(self):
        port, values = parse_stream("x=0.5,-100,0.25", Q15)
        assert port == "x"
        assert values == [Q15.from_float(0.5), -100, Q15.from_float(0.25)]

    def test_parse_stream_rejects_garbage(self):
        with pytest.raises(ReproError, match="expected port="):
            parse_stream("nonsense", Q15)


class TestCommands:
    def test_compile_summary(self, source_file, capsys):
        assert main(["compile", source_file, "--core", "fir"]) == 0
        out = capsys.readouterr().out
        assert "application  : gain" in out
        assert "schedule" in out

    def test_compile_with_listing_and_charts(self, source_file, capsys):
        assert main([
            "compile", source_file, "--core", "fir",
            "--listing", "--occupation", "--gantt",
        ]) == 0
        out = capsys.readouterr().out
        assert "mult.mult" in out
        assert "%" in out
        assert "schedule:" in out

    def test_compile_writes_image(self, source_file, tmp_path, capsys):
        image = tmp_path / "prog.json"
        assert main([
            "compile", source_file, "--core", "fir", "--out", str(image),
        ]) == 0
        payload = json.loads(image.read_text())
        assert payload["image_format_version"] == 1

    def test_run_prints_streams(self, source_file, capsys):
        assert main([
            "run", source_file, "--core", "fir",
            "--input", "i=0.5,-0.5", "--floats",
        ]) == 0
        out = capsys.readouterr().out
        assert f"o: [{Q15.from_float(0.25)}, {Q15.from_float(-0.25)}]" in out
        assert "(float)" in out

    def test_run_image_roundtrip(self, source_file, tmp_path, capsys):
        image = tmp_path / "prog.json"
        main(["compile", source_file, "--core", "fir", "--out", str(image)])
        capsys.readouterr()
        assert main([
            "run-image", str(image), "--input", "i=16384",
        ]) == 0
        out = capsys.readouterr().out
        assert "o: [8192]" in out

    def test_inspect_core(self, capsys):
        assert main(["inspect-core", "--core", "audio"]) == 0
        out = capsys.readouterr().out
        assert "RT Class identification" in out
        assert "instruction set" in out
        assert "{A, D, G, L, M, X, Y}" in out

    def test_compile_defaults_to_o1(self, source_file, capsys):
        assert main(["compile", source_file, "--core", "fir"]) == 0
        assert "optimizer    : -O1" in capsys.readouterr().out

    def test_compile_opt_disabled(self, chain_file, capsys):
        assert main([
            "compile", chain_file, "--core", "fir", "-O0",
        ]) == 0
        out = capsys.readouterr().out
        assert "optimizer    : -O0 (disabled)" in out
        assert "alu: 3" in out          # the pass chain survives

    def test_compile_opt_level_two_reports_rewrites(self, chain_file, capsys):
        assert main([
            "compile", chain_file, "--core", "fir", "--opt", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "optimizer    : -O2" in out
        assert "algebraic 3" in out     # three collapsed passes
        assert "dce 3" in out

    def test_compile_stop_after_prints_stage_fingerprints(
            self, source_file, capsys):
        assert main([
            "compile", source_file, "--core", "fir",
            "--stop-after", "schedule",
        ]) == 0
        out = capsys.readouterr().out
        assert "partial compilation" in out
        assert "schedule length:" in out
        for stage in ("parse", "optimize", "rtgen", "schedule"):
            assert stage in out
        assert "regalloc" not in out


class TestExploreCommand:
    def test_explore_table(self, source_file, chain_file, capsys):
        assert main([
            "explore", source_file, chain_file,
            "--mults", "1-2", "--alus", "1", "--rams", "1",
            "--budget", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "mult" in out and "pareto" in out
        assert "gain" in out and "chain" in out
        assert "2 candidates" in out

    def test_explore_json(self, source_file, capsys):
        assert main([
            "explore", source_file, "--mults", "1", "--alus", "1",
            "--rams", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["applications"] == ["gain"]
        point = payload["points"][0]
        assert point["feasible"] is True
        assert point["schedule_lengths"]["gain"] >= 1
        assert point["pareto"] is True

    def test_explore_json_carries_the_full_allocation(self, source_file,
                                                      capsys):
        """Two sweeps differing only in ram/rom sizing or merge variant
        must be distinguishable from the JSON output alone."""
        assert main([
            "explore", source_file, "--mults", "1", "--alus", "1",
            "--rams", "1", "--rf-sizes", "8", "--ram-sizes", "64",
            "--rom-sizes", "32", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        point = payload["points"][0]
        assert point["allocation"] == {
            "n_mult": 1, "n_alu": 1, "n_ram": 1,
            "rf_size": 8, "ram_size": 64, "rom_size": 32,
            "merge_variant": "none",
        }
        assert point["n_rfs"] >= 1
        assert point["storage_words"] >= 1
        assert payload["sweep"] == {
            "grid": 1, "evaluated": 1, "refined": False,
            "coarse": None, "fine": None,
        }

    def test_explore_refine_prunes_and_reports(self, source_file, capsys):
        assert main([
            "explore", source_file, "--mults", "1", "--alus", "1-3",
            "--rams", "1", "--rf-sizes", "8,12,16", "--refine",
        ]) == 0
        out = capsys.readouterr().out
        assert "coarse-to-fine: evaluated" in out
        assert "of 9 grid points" in out

    def test_explore_refine_json_bookkeeping(self, source_file, capsys):
        assert main([
            "explore", source_file, "--mults", "1", "--alus", "1-3",
            "--rams", "1", "--rf-sizes", "8,12,16", "--refine", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        sweep = payload["sweep"]
        assert sweep["refined"] is True
        assert sweep["grid"] == 9
        assert sweep["coarse"] + sweep["fine"] == sweep["evaluated"]
        assert sweep["evaluated"] <= sweep["grid"]
        assert payload["pareto_axes"] == [
            "worst_length", "n_opus", "n_rfs", "storage_words",
        ]

    def test_explore_refine_persists_to_disk_cache(self, source_file,
                                                   tmp_path, capsys):
        """--refine must write through to --cache-dir (regression: an
        *empty* ExploreCache is falsy, so `cache or ExploreCache()`
        silently dropped the disk tier)."""
        from repro.pipeline import DiskCache, ExploreCache

        cache = str(tmp_path / "cache")
        args = ["explore", source_file, "--mults", "1", "--alus", "1-3",
                "--rams", "1", "--rf-sizes", "8,12,16", "--refine",
                "--cache-dir", cache]
        assert main(args) == 0
        capsys.readouterr()
        assert len(DiskCache(cache)) > 0, \
            "refined sweep wrote nothing to the store"
        # A "new process" (fresh memory tier, same directory) re-running
        # the same refined sweep restores every candidate from disk.
        from repro.arch import SweepSpec, explore_refined
        from repro.lang import parse_source

        dfgs = [parse_source(Path(source_file).read_text())]
        spec = SweepSpec(n_mults=(1,), n_alus=(1, 2, 3), n_rams=(1,),
                         rf_sizes=(8, 12, 16))
        warm = ExploreCache(disk=DiskCache(cache))
        refined = explore_refined(dfgs, spec, cache=warm)
        assert warm.misses == 0
        assert warm.disk_hits == refined.n_evaluated

    def test_explore_merge_variant_sweep(self, chain_file, capsys):
        assert main([
            "explore", chain_file, "--mults", "1", "--alus", "1",
            "--rams", "1", "--merges", "none,alu-operands",
        ]) == 0
        out = capsys.readouterr().out
        assert "alu-operands" in out
        assert "2 candidates" in out

    def test_explore_bad_merge_variant_rejected(self, source_file, capsys):
        assert main([
            "explore", source_file, "--merges", "none,zap",
        ]) == 1
        assert "unknown variant 'zap'" in capsys.readouterr().err

    def test_explore_infeasible_budget_reported(self, chain_file, capsys):
        assert main([
            "explore", chain_file, "--mults", "1", "--alus", "1",
            "--rams", "1", "--budget", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "infeasible" in out
        assert "BudgetExceededError" in out

    def test_explore_sweep_ranges(self, source_file, capsys):
        assert main([
            "explore", source_file, "--mults", "1,3", "--alus", "1-2",
            "--rams", "1",
        ]) == 0
        assert "4 candidates" in capsys.readouterr().out

    def test_explore_bad_sweep_rejected(self, source_file, capsys):
        assert main([
            "explore", source_file, "--mults", "zero",
        ]) == 1
        assert "bad --mults" in capsys.readouterr().err

    def test_explore_reversed_range_rejected(self, source_file, capsys):
        """`1,3-2` used to silently collapse to [1]; it must error."""
        assert main([
            "explore", source_file, "--mults", "1,3-2",
        ]) == 1
        err = capsys.readouterr().err
        assert "reversed range" in err
        assert "3 > 2" in err

    def test_explore_zero_size_sweep_rejected(self, source_file, capsys):
        assert main([
            "explore", source_file, "--rf-sizes", "0,8",
        ]) == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_run_output_invariant_across_levels(self, chain_file, capsys):
        streams = []
        for level in ("0", "2"):
            assert main([
                "run", chain_file, "--core", "fir",
                "-O", level, "--input", "i=0.5,-0.25,0.125",
            ]) == 0
            streams.append(capsys.readouterr().out)
        assert streams[0] == streams[1]
        assert f"o: [{Q15.from_float(0.25)}" in streams[0]

    def test_compile_reports_cache_line(self, source_file, capsys):
        assert main(["compile", source_file, "--core", "fir"]) == 0
        assert "stage cache  : 0/8 stages cached" in capsys.readouterr().out
        assert main(["compile", source_file, "--core", "fir"]) == 0
        assert "stage cache  : 8/8 stages cached" in capsys.readouterr().out

    def test_compile_no_disk_cache_is_cold(self, source_file, capsys):
        for _ in range(2):
            assert main([
                "compile", source_file, "--core", "fir", "--no-disk-cache",
            ]) == 0
            out = capsys.readouterr().out
            assert "stage cache" not in out
            assert "schedule" in out

    def test_stop_after_marks_cache_sources(self, source_file, tmp_path,
                                            capsys):
        cache = str(tmp_path / "cache")
        args = ["compile", source_file, "--core", "fir",
                "--stop-after", "schedule", "--cache-dir", cache]
        assert main(args) == 0
        assert "[disk]" not in capsys.readouterr().out
        assert main(args) == 0
        assert "[disk]" in capsys.readouterr().out

    def test_broken_pipe_is_a_clean_exit(self, source_file, capsys,
                                         monkeypatch):
        """`python -m repro explore ... | head` must not report
        `error: Broken pipe` with exit 1 when the consumer goes away."""
        from repro import cli

        def exploding(args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "cmd_compile", exploding)
        assert cli.main(["compile", source_file, "--core", "fir"]) == 0
        assert "error" not in capsys.readouterr().err

    def test_real_os_errors_still_report(self, source_file, capsys,
                                         monkeypatch):
        from repro import cli

        def exploding(args):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli, "cmd_compile", exploding)
        assert cli.main(["compile", source_file, "--core", "fir"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_budget_failure_is_reported(self, source_file, capsys):
        code = main([
            "compile", source_file, "--core", "fir", "--budget", "1",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_reported(self, capsys):
        assert main(["compile", "/no/such/file.dsp", "--core", "fir"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBatchCommand:
    def test_batch_table(self, source_file, chain_file, capsys):
        assert main([
            "batch", source_file, chain_file, "--core", "fir",
        ]) == 0
        out = capsys.readouterr().out
        assert "application" in out and "cycles" in out
        assert "gain.dsp" in out and "chain.dsp" in out
        assert "2/2 applications compiled" in out

    def test_batch_duplicate_sources_share_stages(self, source_file, capsys):
        assert main([
            "batch", source_file, source_file, "--core", "fir",
            "--no-disk-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "8 memory hits" in out

    def test_batch_json(self, source_file, chain_file, capsys):
        assert main([
            "batch", source_file, chain_file, "--core", "fir", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["core"] == "fir"
        assert [a["ok"] for a in payload["applications"]] == [True, True]
        assert payload["applications"][0]["application"] == "gain"
        assert payload["applications"][0]["n_cycles"] >= 1
        assert payload["cache"]["executed"] == 16

    def test_batch_writes_images(self, source_file, tmp_path, capsys):
        out_dir = tmp_path / "images"
        assert main([
            "batch", source_file, "--core", "fir", "--out-dir", str(out_dir),
        ]) == 0
        payload = json.loads((out_dir / "gain.json").read_text())
        assert payload["image_format_version"] == 1

    def test_batch_colliding_stems_never_clobber(self, tmp_path, capsys):
        a = tmp_path / "a" / "filter.dsp"
        b = tmp_path / "b" / "filter.dsp"
        for path, gain in ((a, "0.5"), (b, "0.25")):
            path.parent.mkdir()
            path.write_text(GAIN.replace("0.5", gain))
        out_dir = tmp_path / "images"
        assert main([
            "batch", str(a), str(b), "--core", "fir",
            "--out-dir", str(out_dir),
        ]) == 0
        first = json.loads((out_dir / "filter.json").read_text())
        second = json.loads((out_dir / "filter-2.json").read_text())
        # Different gains -> different immediates -> different words;
        # the point is that neither image clobbered the other.
        assert first["words"] != second["words"]

    def test_unreadable_source_is_reported(self, tmp_path, capsys):
        # A directory where a source file is expected: OSError, not a
        # traceback (the docs/cli.md exit-code contract).
        assert main(["compile", str(tmp_path), "--core", "fir"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_failure_exit_code(self, source_file, chain_file, capsys):
        assert main([
            "batch", source_file, chain_file, "--core", "fir",
            "--budget", "1",
        ]) == 1
        out = capsys.readouterr().out
        assert "BudgetExceededError" in out
        assert "0/2 applications compiled" in out

    def test_batch_warm_second_run_hits_disk(self, source_file, chain_file,
                                             tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["batch", source_file, chain_file, "--core", "fir",
                "--cache-dir", cache]
        assert main(args) == 0
        assert "16 disk hits" not in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out
        assert "16 disk hits" in out


class TestCrossProcessCache:
    """The acceptance scenario end to end: two real processes, one
    cache directory, bit-identical images."""

    def run_cli(self, *argv, cache_dir):
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, cwd=root, timeout=120,
        )

    def test_pipe_to_head_exits_cleanly(self, source_file, tmp_path):
        """The real thing: `repro explore ... | head -n 0` — the
        consumer is gone before the table prints."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        script = (f"{sys.executable} -u -m repro explore {source_file} "
                  f"--mults 1 --alus 1 --rams 1 | head -n 0; "
                  "exit ${PIPESTATUS[0]}")
        proc = subprocess.run(["bash", "-c", script], capture_output=True,
                              text=True, env=env, cwd=root, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Broken pipe" not in proc.stderr

    def test_second_process_restores_from_disk(self, source_file, tmp_path):
        cache_dir = tmp_path / "cache"
        first_image = tmp_path / "first.json"
        second_image = tmp_path / "second.json"

        first = self.run_cli("compile", source_file, "--core", "fir",
                             "--out", str(first_image), cache_dir=cache_dir)
        assert first.returncode == 0, first.stderr
        assert "stage cache  : 0/8 stages cached" in first.stdout

        second = self.run_cli("compile", source_file, "--core", "fir",
                              "--out", str(second_image), cache_dir=cache_dir)
        assert second.returncode == 0, second.stderr
        assert "stage cache  : 8/8 stages cached (8 disk)" in second.stdout
        assert first_image.read_bytes() == second_image.read_bytes()


class TestOptionValidation:
    """--budget/--repeat range checks are *usage* errors: exit code 2
    with a clear message, before any compilation starts."""

    @pytest.mark.parametrize("argv", [
        ["compile", "x.dsp", "--budget", "0"],
        ["compile", "x.dsp", "--budget", "-5"],
        ["compile", "x.dsp", "--repeat", "0"],
        ["compile", "x.dsp", "--repeat", "-1"],
        ["run", "x.dsp", "--budget", "0"],
        ["batch", "x.dsp", "--budget", "0"],
        ["explore", "x.dsp", "--budget", "0"],
    ])
    def test_out_of_range_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_non_integer_budget_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compile", "x.dsp", "--budget", "lots"])
        assert info.value.code == 2
        assert "expected an integer" in capsys.readouterr().err


class TestOptionsEcho:
    """batch/explore --json emit the one CompileOptions.to_dict schema."""

    def test_batch_json_options_schema(self, source_file, capsys):
        assert main([
            "batch", source_file, "--core", "fir", "--budget", "32",
            "-O", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = CompileOptions(budget=32, opt=2).to_dict()
        assert payload["options"] == expected

    def test_explore_json_options_schema(self, source_file, capsys):
        assert main([
            "explore", source_file, "--mults", "1", "--alus", "1",
            "--rams", "1", "--budget", "32", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["options"] == CompileOptions(budget=32).to_dict()

    def test_batch_and_explore_share_one_schema(self, source_file, capsys):
        assert main(["batch", source_file, "--core", "fir", "--json"]) == 0
        batch = json.loads(capsys.readouterr().out)
        assert main([
            "explore", source_file, "--mults", "1", "--alus", "1",
            "--rams", "1", "--json",
        ]) == 0
        explore = json.loads(capsys.readouterr().out)
        assert sorted(batch["options"]) == sorted(explore["options"]) \
            == sorted(CompileOptions().to_dict())


class TestSingleFlagDeclaration:
    """Every compile-related flag comes from the CompileOptions bridge —
    no subcommand may re-declare budget/opt/cover/mode/repeat/stop-after
    or the cache flags with its own add_argument."""

    BRIDGED = ("--budget", "--opt", "--cover", "--mode", "--repeat",
               "--stop-after", "--cache-dir", "--no-disk-cache")

    def test_no_duplicate_declarations_in_cli_source(self):
        from repro import cli

        source = Path(cli.__file__).read_text()
        for flag in self.BRIDGED:
            assert f'add_argument("{flag}"' not in source, flag
            assert f"add_argument('{flag}')" not in source, flag

    def test_subcommands_agree_on_defaults(self):
        from repro.cli import build_parser

        parser = build_parser()
        actions = parser._subparsers._group_actions[0].choices
        defaults = CompileOptions()
        for command in ("compile", "batch", "explore", "run"):
            sub = actions[command]
            assert sub.get_default("opt") == defaults.opt, command
            assert sub.get_default("budget") == defaults.budget, command


class TestEngineFlagAvailability:
    """--engine numpy without numpy is a *usage* error (exit 2, with the
    remedy named); --engine auto must silently fall back instead."""

    def test_numpy_absent_is_a_usage_error(self, source_file, capsys,
                                           monkeypatch):
        from repro.sim import batch as batch_module

        monkeypatch.setattr(batch_module, "NUMPY_AVAILABLE", False)
        with pytest.raises(SystemExit) as info:
            main(["run", source_file, "--core", "fir",
                  "--input", "i=1,2,3", "--engine", "numpy"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "numpy" in err
        assert "pip install repro[batch]" in err
        assert "--engine auto" in err
        assert "Traceback" not in err

    def test_run_image_shares_the_guard(self, source_file, tmp_path,
                                        capsys, monkeypatch):
        from repro.sim import batch as batch_module

        image = tmp_path / "gain.json"
        assert main(["compile", source_file, "--core", "fir",
                     "--out", str(image)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(batch_module, "NUMPY_AVAILABLE", False)
        with pytest.raises(SystemExit) as info:
            main(["run-image", str(image), "--input", "i=1,2",
                  "--engine", "numpy"])
        assert info.value.code == 2

    def test_auto_falls_back_silently(self, source_file, capsys,
                                      monkeypatch):
        from repro.sim import batch as batch_module

        monkeypatch.setattr(batch_module, "NUMPY_AVAILABLE", False)
        assert main(["run", source_file, "--core", "fir",
                     "--input", "i=1,2,3", "--engine", "auto"]) == 0
        captured = capsys.readouterr()
        assert "o: [" in captured.out
        assert "numpy" not in captured.err

    def test_numpy_present_is_accepted(self, source_file, capsys):
        from repro.sim import NUMPY_AVAILABLE

        if not NUMPY_AVAILABLE:
            pytest.skip("numpy not installed")
        assert main(["run", source_file, "--core", "fir",
                     "--input", "i=1,2,3", "--engine", "numpy"]) == 0

    def test_scalar_engine_is_rejected(self, source_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", source_file, "--core", "fir",
                  "--input", "i=1,2,3", "--engine", "scalar"])
        assert info.value.code == 2
        assert "invalid choice: 'scalar'" in capsys.readouterr().err


class TestFuzzCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--core", "fir", "--count", "5",
                     "--max-ops", "8"]) == 0
        out = capsys.readouterr().out
        assert "5 cases" in out
        assert "0 failures" in out

    def test_injected_failure_reports_and_exits_one(self, tmp_path, capsys):
        report_path = tmp_path / "fuzz_report.json"
        code = main(["fuzz", "--core", "fir", "--count", "6",
                     "--max-ops", "8", "--inject", "mult",
                     "--report", str(report_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILURE seed=" in out
        assert "replay: repro fuzz --core fir --seed" in out
        assert "shrunk" in out
        payload = json.loads(report_path.read_text())
        assert payload["n_failures"] >= 1
        failure = payload["failures"][0]
        assert "mult" in failure["shrunk_source"]
        assert failure["shrunk_nodes"] <= failure["n_nodes"]

    def test_json_output(self, capsys):
        assert main(["fuzz", "--count", "4", "--max-ops", "8",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_cases"] == 4
        assert payload["failures"] == []

    def test_time_budget(self, capsys):
        assert main(["fuzz", "--time", "0.01", "--max-ops", "8"]) == 0
        assert "cases in" in capsys.readouterr().out

    def test_bad_levels_rejected(self, capsys):
        assert main(["fuzz", "--count", "1", "--levels", "0,9"]) == 1
        assert "optimizer levels" in capsys.readouterr().err

    def test_bad_engines_rejected(self, capsys):
        assert main(["fuzz", "--count", "1", "--engines", "auto"]) == 1
        assert "not a" in capsys.readouterr().err
        assert main(["fuzz", "--count", "1", "--engines", "scalar"]) == 1
        assert "unknown engine 'scalar'" in capsys.readouterr().err


class TestCorpusCommand:
    def test_report_written_and_clean(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_corpus.json"
        assert main(["corpus", "--count", "5", "--core", "fir",
                     "--frames", "4", "--lanes", "2",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "mismatches: 0" in out
        payload = json.loads(out_path.read_text())
        assert payload["count"] == 5
        assert payload["mismatches"] == 0
        assert set(payload["compile"]) == {"O0", "O1", "O2"}

    def test_json_output(self, capsys):
        assert main(["corpus", "--count", "4", "--frames", "4",
                     "--lanes", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 4
        assert payload["failures"] == []


class TestCheckCommand:
    def test_clean_source_exits_zero(self, source_file, capsys):
        assert main(["check", source_file, "--core", "fir"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "0 errors" in out

    def test_clean_image_exits_zero(self, source_file, tmp_path, capsys):
        image = tmp_path / "prog.json"
        main(["compile", source_file, "--core", "fir", "--out", str(image)])
        capsys.readouterr()
        assert main(["check", "--image", str(image)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupted_image_exits_one(self, source_file, tmp_path, capsys):
        import dataclasses

        from repro.encode import dump_program, load_program

        image = tmp_path / "prog.json"
        main(["compile", source_file, "--core", "fir", "--out", str(image)])
        capsys.readouterr()
        binary = load_program(image.read_text())
        fmt = binary.format
        victim = next(rf for rf in binary.core.datapath.register_files.values()
                      if rf.writers)
        fields = fmt.decode(binary.words[0])
        fields[f"{victim.name}.wr_en"] = 1
        words = list(binary.words)
        words[0] = fmt.encode(fields)
        bad = tmp_path / "bad.json"
        bad.write_text(dump_program(dataclasses.replace(binary, words=words)))
        assert main(["check", "--image", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "mc.bus-hazard" in out
        assert "1 error" in out

    def test_json_output_shape(self, source_file, capsys):
        assert main(["check", source_file, "--core", "fir", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert payload["findings"] == []

    def test_source_and_image_are_exclusive(self, source_file, capsys):
        assert main(["check", source_file, "--image", "x.json"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_requires_a_subject(self, capsys):
        assert main(["check"]) == 1
        assert "nothing to check" in capsys.readouterr().err


def drop_n_body(image):
    del image["n_body"]


def bad_word(image):
    image["words"][1] = "zz"


def scalar_input_map(image):
    image["input_map"] = 5


def text_rom(image):
    image["rom_words"] = "abc"


class TestMalformedImage:
    """A malformed image is refused with an error naming the field, by
    every command that loads one, never with a traceback."""

    DAMAGE = {
        "missing_n_body": (drop_n_body, "n_body"),
        "word_not_hex": (bad_word, "words"),
        "input_map_not_an_array": (scalar_input_map, "input_map"),
        "rom_words_not_an_array": (text_rom, "rom_words"),
    }
    COMMANDS = {
        "run-image": lambda path: ["run-image", path, "--input", "i=1,2"],
        "check": lambda path: ["check", "--image", path],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_refused_naming_the_field(self, source_file, tmp_path, capsys,
                                      command, damage):
        path = tmp_path / "prog.json"
        assert main(["compile", source_file, "--core", "fir",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        image = json.loads(path.read_text())
        edit, field = self.DAMAGE[damage]
        edit(image)
        path.write_text(json.dumps(image))
        assert main(self.COMMANDS[command](str(path))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: microcode image")
        assert f"field {field!r}" in err


class TestVerifyFlag:
    def test_compile_accepts_verify_strict(self, source_file, capsys):
        assert main(["compile", source_file, "--core", "fir",
                     "--verify", "strict", "--no-disk-cache"]) == 0
        assert "application  : gain" in capsys.readouterr().out

    def test_fuzz_no_lint_flag_accepted(self, capsys):
        assert main(["fuzz", "--core", "fir", "--count", "3",
                     "--max-ops", "8", "--no-lint"]) == 0
        assert "0 failures" in capsys.readouterr().out
