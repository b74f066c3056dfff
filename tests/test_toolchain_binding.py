"""A toolchain binds its core once: per-core values are derived once.

What depends only on the core — its fingerprint (``core_to_dict`` +
SHA-256), the RT class table, the instruction set, the lowering's
route table and the assembler's encoding tables — lives on the toolchain's
:class:`~repro.pipeline.artifacts.BoundCore`, shared by every compile
through it and through its ``replace()`` variants that keep the core.
These tests count the builders instead of timing them, so they hold on
any machine.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro import CompileOptions, Toolchain, fir_core, tiny_core
from repro.apps import fir_application
from repro.core.instruction_set import InstructionSet
from repro.core.rtclass import ClassTable
from repro.encode import fields as fields_module
from repro.errors import VerificationError
from repro.pipeline import MemoryBackend, StageCache
from repro.pipeline import artifacts as artifacts_module
from repro.rtgen import generator as generator_module

N_COMPILES = 20


def applications(n: int = N_COMPILES):
    """``n`` distinct FIR filters, so every compile runs every stage."""
    return [fir_application([0.01 * (k + 1), 0.02 * (k + 2), 0.05],
                            name=f"fir_{k}")
            for k in range(n)]


@pytest.fixture
def builds(monkeypatch):
    """Counts of every per-core builder, by name."""
    calls: Counter[str] = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(artifacts_module, "core_to_dict",
                        counted("core_to_dict", artifacts_module.core_to_dict))
    monkeypatch.setattr(ClassTable, "from_core", staticmethod(
        counted("ClassTable.from_core", ClassTable.from_core)))
    monkeypatch.setattr(InstructionSet, "from_desired", staticmethod(
        counted("InstructionSet.from_desired", InstructionSet.from_desired)))
    route_table = counted("route_table", generator_module.route_table)
    monkeypatch.setattr(generator_module, "route_table", route_table)
    monkeypatch.setattr(artifacts_module, "route_table", route_table)
    monkeypatch.setattr(fields_module, "derive_format", counted(
        "derive_format", fields_module.derive_format))
    return calls


def cached_toolchain(core=None, **options) -> Toolchain:
    return Toolchain(fir_core() if core is None else core,
                     CompileOptions(**options),
                     cache=StageCache(disk=MemoryBackend()))


def test_per_core_values_are_built_once_per_toolchain(builds):
    toolchain = cached_toolchain()
    apps = applications()
    for app in apps:
        toolchain.compile(app)
    for app in apps[:3]:
        toolchain.replace(seed=1).compile(app)
    toolchain.replace(stop_after="impose").compile(
        fir_application([0.3, 0.1], name="fir_partial_options"))
    toolchain.replace(stop_after="impose").run_pipeline(
        fir_application([0.2, 0.4], name="fir_partial"))
    assert toolchain.cache.stats.misses > 0
    assert builds == {"core_to_dict": 1, "ClassTable.from_core": 1,
                      "InstructionSet.from_desired": 1, "route_table": 1,
                      "derive_format": 1}


def test_variants_keeping_the_core_share_its_binding():
    toolchain = cached_toolchain()
    assert toolchain.replace(seed=1).bound is toolchain.bound
    assert toolchain.replace(core=toolchain.core).bound is toolchain.bound
    assert toolchain.replace(stop_after="rtgen",
                             cache=None).bound is toolchain.bound


def test_replacing_the_core_rebinds(builds):
    toolchain = cached_toolchain()
    toolchain.compile(applications(1)[0])
    tiny = toolchain.replace(core="tiny")
    assert tiny.bound is not toolchain.bound
    assert tiny.bound.core is tiny.core
    tiny.compile("app p; input i; output o; loop { o = pass(i); }")
    assert builds["ClassTable.from_core"] == 2
    assert builds["core_to_dict"] == 2
    assert toolchain.bound.fingerprint != tiny.bound.fingerprint


def test_uncached_toolchain_never_fingerprints_its_core(builds):
    for opt in (0, 1, 2):
        toolchain = Toolchain(fir_core(), cache=None, opt=opt)
        for app in applications(3):
            toolchain.compile(app)
        toolchain.replace(stop_after="schedule").run_pipeline(
            applications(1)[0])
    assert builds["core_to_dict"] == 0


def test_binaries_match_a_fresh_toolchain_per_compile():
    toolchain = cached_toolchain(budget=8)
    variant = toolchain.replace(seed=1)
    for app in applications(6):
        shared = toolchain.compile(app)
        fresh = Toolchain(fir_core(), cache=None, budget=8).compile(app)
        assert shared.binary.words == fresh.binary.words
        again = variant.compile(app)
        fresh_seed = Toolchain(fir_core(), cache=None, budget=8,
                               seed=1).compile(app)
        assert again.binary.words == fresh_seed.binary.words


def test_dropping_a_toolchain_frees_its_core():
    core = fir_core()
    toolchain = cached_toolchain(core)
    compiled = toolchain.compile(applications(1)[0])
    toolchain.replace(seed=1).compile(applications(1)[0])
    assert toolchain.bound.fingerprint
    assert toolchain.bound.routes and toolchain.bound.instruction_set
    ref = weakref.ref(core)
    del core, toolchain, compiled
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("verify", ["boundaries", "strict"])
def test_mutating_a_bound_core_fails_verification(verify):
    core = tiny_core()
    toolchain = Toolchain(core, cache=None, verify=verify)
    source = "app p; input i; output o; loop { o = pass(i); }"
    toolchain.compile(source)
    core.instruction_types.append(frozenset(core.instruction_types[0]))
    with pytest.raises(VerificationError, match="changed after it was bound"):
        toolchain.compile(source)

