"""The guard that makes one cache version safe.

``PIPELINE_VERSION`` is the one version of everything the caches keep:
stage packs hold pickled artifacts, the explore memo pickled
``ExplorationPoint``s.  Changing the shape of any class those reach
(a field added, renamed or dropped) must bump it, or a store written by
the old code would be served to code that misreads it.  This test
collects those shapes and pins their digest per version, so a shape
change cannot land without the bump.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import io
import json
import pickle

from repro import Toolchain, audio_core
from repro.apps.audio import audio_application, audio_io_binding
from repro.arch import Allocation, ExplorationPoint
from repro.pipeline import PIPELINE_VERSION
from repro.pipeline.session import _SNAPSHOT_REDUCERS

#: ``PIPELINE_VERSION`` -> digest of :func:`cached_shapes`.
SHAPE_DIGESTS = {
    6: "408807cd547f7a139dd024211b9e092b499ba73a11e14529442e1951cb8fd925",
}


def attribute_names(obj) -> set[str]:
    """The attribute names ``obj``'s pickled state reports.  An object
    rebuilt from constructor arguments reports none, so a dataclass
    stands for its fields and an enum for its members."""
    reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    state = reduced[2] if len(reduced) > 2 else None
    if isinstance(state, tuple):  # (__dict__ or None, slot values)
        return {name for part in state for name in part or ()}
    if isinstance(state, dict):
        return set(state)
    if dataclasses.is_dataclass(obj):
        return {f.name for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return {f"{m.name}={m.value!r}" for m in type(obj)}
    return set()


class _ShapeWalker(pickle.Pickler):
    """Pickles as the stage cache does (the core by reference) and
    records every ``repro`` class it meets with its attribute names."""

    def __init__(self):
        super().__init__(io.BytesIO(), pickle.HIGHEST_PROTOCOL)
        self.dispatch_table = _SNAPSHOT_REDUCERS
        self.shapes: dict[str, set[str]] = {}

    def reducer_override(self, obj):
        cls = type(obj)
        if (cls.__module__.partition(".")[0] == "repro"
                and cls not in self.dispatch_table):
            name = f"{cls.__module__}.{cls.__qualname__}"
            self.shapes.setdefault(name, set()).update(attribute_names(obj))
        return NotImplemented


def cached_shapes() -> dict[str, list[str]]:
    """Every class the audio compile's artifacts and one sweep point
    reach, with its sorted attribute names."""
    state = Toolchain(audio_core(), budget=64).run_pipeline(
        audio_application(), io_binding=audio_io_binding())
    point = ExplorationPoint(
        allocation=Allocation(n_alu=2), schedule_lengths={"audio": 63},
        n_opus=9, failures={"fir": "no route"}, n_rfs=4, storage_words=80)
    walker = _ShapeWalker()
    walker.dump(state.artifacts)
    walker.dump(point)
    return {name: sorted(names)
            for name, names in sorted(walker.shapes.items())}


def test_walk_reaches_every_cached_kind():
    shapes = cached_shapes()
    for name in ("repro.lang.dfg.Dfg", "repro.opt.manager.OptReport",
                 "repro.rtgen.program.RTProgram",
                 "repro.core.artificial.ConflictModel",
                 "repro.sched.dependence.DependenceGraph",
                 "repro.sched.schedule.Schedule",
                 "repro.sched.regalloc.Allocation",
                 "repro.encode.assembler.EncodedProgram",
                 "repro.arch.explore.ExplorationPoint",
                 "repro.arch.explore.Allocation"):
        assert name in shapes, name
    assert "repro.arch.library.CoreSpec" not in shapes  # by reference
    assert {"budget", "cycle_of", "length"} <= \
        set(shapes["repro.sched.schedule.Schedule"])
    assert "storage_words" in shapes["repro.arch.explore.ExplorationPoint"]


def test_cached_shapes_are_pinned_per_pipeline_version():
    shapes = cached_shapes()
    digest = hashlib.sha256(
        json.dumps(shapes, sort_keys=True).encode()).hexdigest()
    assert SHAPE_DIGESTS.get(PIPELINE_VERSION) == digest, (
        "the shape of a cached class changed: bump PIPELINE_VERSION and "
        f"re-pin SHAPE_DIGESTS under the new version to {digest!r} "
        f"(shapes: {json.dumps(shapes)})")
