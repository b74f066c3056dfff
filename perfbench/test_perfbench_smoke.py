"""Smoke tests of the benchmark itself (``run.py --smoke``).

They prove the harness, not the compiler's speed: every declared metric
is emitted with its unit, the result line matches the schema
``BENCHMARK.json`` declares, the exact counts repeat across processes
on one seed, and a directory without the sources is refused.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def numpy_missing() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return True
    return False


#: ``sim_batch`` runs the numpy engine, an optional extra of the package.
NEEDS_NUMPY = pytest.mark.skipif(numpy_missing(),
                                 reason="sim_batch needs numpy (repro[batch])")
WORKLOADS = [pytest.param(name, marks=NEEDS_NUMPY) if name == "sim_batch"
             else name for name in metrics.WORKLOADS]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_is_the_catalogue():
    assert MANIFEST == metrics.manifest()
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [w["name"] for w in MANIFEST["workloads"]]
    names += [m["name"] for m in MANIFEST["end_to_end"]]
    names += [m["name"] for m in MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in MANIFEST["workloads"])
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(MANIFEST)) <= 64 * 1024


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    result = result_line(run("--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_exact_counts_repeat_across_processes():
    exact = ("sched_cycles_sum", "code_words_sum", "stagecache.hit",
             "stagecache.miss", "rtgen.copies_inserted",
             "sched.list.attempts", "core.instruction_types")
    first, second = (
        result_line(run("--workload", "compile_mix", "--seed", "3",
                        "--trace", "1", "--smoke"))["metrics"]
        for _ in range(2))
    assert {name: first[name] for name in exact} == \
        {name: second[name] for name in exact}
    assert first["stagecache.hit"]["value"] > 0


def test_refused_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "compile_mix", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
