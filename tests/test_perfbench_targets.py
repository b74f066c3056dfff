"""The benchmark's traced runs patch names that must exist where it looks.

``perfbench/tracer.py`` wraps module functions through the module and
methods through their class ``__dict__``, so a method a refactor moves
into a base class, or a function it renames, fails a traced run with a
``KeyError`` deep inside a benchmark subprocess.  This test reads the
tracer's own tables and names the offending target instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_functions_live_in_their_module(tracer):
    for module_name, attribute, metric in tracer._FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(module.__dict__.get(attribute)), \
            f"{metric}: {module_name}.{attribute} is not defined there"


def test_traced_methods_live_in_their_class_body(tracer):
    for module_name, class_name, method, metric in tracer._METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        assert callable(owner.__dict__.get(method)), \
            f"{metric}: {class_name}.{method} is not in {class_name}'s " \
            f"own class body (an inherited method cannot be patched there)"
    from repro.core.instruction_set import InstructionSet

    assert isinstance(InstructionSet.__dict__.get("from_desired"),
                      staticmethod)
