"""Import layering: ``import repro`` loads no subsystem, and a compile
loads only the compile path (see ``docs/architecture.md``, "Import
layering").

Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: What a compile, or ``repro --help``, must leave unloaded.
NOT_ON_THE_COMPILE_PATH = (
    "numpy",
    "asyncio",
    "http.server",
    "repro.serve",
    "repro.sim",
    "repro.gen",
    "repro.report",
    "repro.analyze.lint",
    "repro.sched.folding",
    "repro.sched.exact",
    "repro.sched.baselines",
)

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


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


LOADED = """
import json, sys
print(json.dumps({"loaded": [name for name in %r if name in sys.modules]}))
""" % (NOT_ON_THE_COMPILE_PATH,)


def test_import_repro_loads_no_subsystem():
    loaded = run_python("import repro, sys, json\n"
                        "print(json.dumps(sorted(m for m in sys.modules "
                        "if m.startswith('repro'))))")
    assert loaded == ["repro", "repro._lazy"]


def test_compile_loads_only_the_compile_path():
    code = (f"import repro\n"
            f"program = repro.Toolchain('tiny').compile({QUICKSTART!r})\n"
            f"assert program.n_cycles > 0\n" + LOADED)
    assert run_python(code) == {"loaded": []}


#: What ``repro --help`` must leave unloaded on top: the compile path.
NOT_FOR_THE_PARSER = ("repro.pipeline.stages", "repro.toolchain",
                      "repro.arch.explore")


def test_cli_help_loads_only_the_parser():
    code = ("import contextlib, io, json, runpy, sys\n"
            "sys.argv = ['repro', '--help']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        runpy.run_module('repro', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0\n"
            f"print(json.dumps({{'loaded': [name for name in "
            f"{NOT_ON_THE_COMPILE_PATH + NOT_FOR_THE_PARSER!r} "
            f"if name in sys.modules]}}))\n")
    assert run_python(code) == {"loaded": []}


def test_import_arch_loads_no_pipeline():
    """The architecture model stands below the pipeline: the explorer
    imports its memo (``repro.pipeline.ExploreCache``) inside the
    sweep, never at import time."""
    loaded = run_python("import json, sys\nimport repro.arch\n"
                        "print(json.dumps([m for m in sys.modules "
                        "if m.startswith('repro.pipeline')]))")
    assert loaded == []


@pytest.mark.parametrize("first, second", [("repro.pipeline", "repro.arch"),
                                           ("repro.arch", "repro.pipeline")])
def test_arch_and_pipeline_import_in_either_order(first, second):
    code = (f"import json, {first}, {second}\n"
            "print(json.dumps([repro.pipeline.ExploreCache.__module__, "
            "repro.arch.ExplorationPoint.__module__]))")
    assert run_python(code) == ["repro.pipeline.session",
                                "repro.arch.explore"]


@pytest.mark.parametrize("package", ["repro", "repro.sched",
                                     "repro.analyze"])
def test_every_exported_name_resolves(package):
    code = f"""
import importlib, json
package = importlib.import_module({package!r})
star = {{}}
exec("from {package} import *", star)
print(json.dumps({{
    "getattr": [n for n in package.__all__ if not hasattr(package, n)],
    "star": [n for n in package.__all__ if n not in star],
    "dir": [n for n in package.__all__ if n not in dir(package)],
}}))
"""
    assert run_python(code) == {"getattr": [], "star": [], "dir": []}


def test_subpackages_resolve_as_attributes():
    import repro

    assert repro.sim.run_batch is repro.run_batch
    assert repro.sched.list_schedule.__module__ == \
        "repro.sched.list_scheduler"
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        repro.nonexistent


def test_cli_engine_choices_are_the_simulators():
    from repro.cli import ENGINE_CHOICES
    from repro.sim import ENGINES

    assert ENGINE_CHOICES == ENGINES


def test_cli_merge_choices_are_the_explorers():
    from repro.arch.explore import MERGE_VARIANTS
    from repro.cli import MERGE_CHOICES

    assert MERGE_CHOICES == tuple(sorted(MERGE_VARIANTS))


def test_stop_after_choices_are_the_pipeline_stages():
    from repro.options import STAGE_CHOICES
    from repro.pipeline import STAGE_NAMES

    assert STAGE_CHOICES == STAGE_NAMES
