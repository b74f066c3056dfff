"""Experiment: start-up cost of a process that compiles.

The paper's design loop (retarget a core, compile, read the cycle
count, resize, repeat) starts a new process for every CLI compile,
``repro run``, ``repro worker`` and explore job.  Each one pays the
interpreter's start-up plus whatever ``import repro`` and the compile
path load.  This bench times five commands, each as the median of
:data:`RUNS` fresh subprocesses taken in interleaved rounds (so drift
on a shared machine hits every command alike), and reports each as a
ratio to the bare interpreter:

* ``bare`` — ``python -c pass``, the base of every ratio;
* ``import`` — ``import repro``;
* ``compile`` — ``from repro import Toolchain`` plus one tiny-core
  compile of the quickstart application;
* ``help`` — ``repro --help``;
* ``cli_compile`` — ``repro compile app.dsp --core tiny
  --no-disk-cache``.

Ratios are machine-independent enough to guard: the bounds below catch
a subsystem creeping back onto the compile path (loading everything
eagerly read 9-11x on every command but ``bare``).  Results land in
``BENCH_startup.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = ROOT / "BENCH_startup.json"

#: Fresh subprocesses per command.
RUNS = 5

#: The application of ``examples/quickstart.py``.
QUICKSTART = """
app quickstart;
param gain = 0.5;
input  i;
output o;
loop {
  scaled := add(i, gain);
  o = scaled;
}
"""

#: Upper bounds on each command's ratio to the bare interpreter.
#: Measured on a shared 2-CPU box (Python 3.11, no bytecode cache):
#: import 1.04-1.12x, compile 4.7-5.2x, help 1.8-2.1x (5.0-5.7x while
#: the CLI imported the compile path to build its parser), cli_compile
#: 5.0-5.6x; with eager package inits every one read 9-11x.
MAX_RATIO = {
    "import": 2.0,
    "compile": 7.5,
    "help": 3.0,
    "cli_compile": 8.0,
}


def commands(source_file: Path) -> dict[str, list[str]]:
    python = sys.executable
    return {
        "bare": [python, "-c", "pass"],
        "import": [python, "-c", "import repro"],
        "compile": [python, "-c",
                    "from repro import Toolchain\n"
                    f"Toolchain('tiny', cache=None).compile({QUICKSTART!r})"],
        "help": [python, "-m", "repro", "--help"],
        "cli_compile": [python, "-m", "repro", "compile", str(source_file),
                        "--core", "tiny", "--no-disk-cache"],
    }


def time_commands(argvs: dict[str, list[str]], env: dict[str, str]
                  ) -> dict[str, list[float]]:
    seconds: dict[str, list[float]] = {name: [] for name in argvs}
    for _ in range(RUNS):
        for name, argv in argvs.items():
            start = time.perf_counter()
            subprocess.run(argv, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            seconds[name].append(time.perf_counter() - start)
    return seconds


def test_bench_startup(tmp_path):
    source_file = tmp_path / "quickstart.dsp"
    source_file.write_text(QUICKSTART)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_CACHE_DIR"] = str(tmp_path / "repro-cache")

    seconds = time_commands(commands(source_file), env)
    median = {name: statistics.median(runs) for name, runs in seconds.items()}
    ratio = {name: median[name] / median["bare"]
             for name in median if name != "bare"}

    rows = {
        name: {
            "median_s": round(median[name], 4),
            "runs_s": [round(s, 4) for s in seconds[name]],
            **({"ratio_to_bare": round(ratio[name], 2),
                "max_ratio": MAX_RATIO[name]} if name in ratio else {}),
        }
        for name in median
    }
    RESULTS_PATH.write_text(json.dumps({
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "bytecode_cache": not sys.dont_write_bytecode,
        "runs_per_command": RUNS,
        "commands": rows,
    }, indent=2) + "\n")
    print()
    for name, row in rows.items():
        shown = (f"{row['ratio_to_bare']:5.2f}x (max {row['max_ratio']}x)"
                 if name in ratio else "base")
        print(f"  {name:<12} {1000 * row['median_s']:7.1f} ms  {shown}")

    for name, bound in MAX_RATIO.items():
        assert ratio[name] <= bound, (
            f"{name}: {ratio[name]:.2f}x the bare interpreter "
            f"(bound {bound}x)")
