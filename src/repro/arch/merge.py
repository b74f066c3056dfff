"""Register-file and bus merging (paper, sections 4 and 5).

"The architecture modifications mentioned in figure 1b specify the
merging of resources such as busses and register files.  Then these
resources can be shared at the cost of reduction of parallelism."

A :class:`MergeSpec` names groups of register files (and groups of
buses) that the final core implements as one physical resource.  The
spec is *applied to RTs*, not to the datapath: per the paper, merging
"is realized by modification of the RTs" (step 2 of figure 1b), i.e. by
renaming resources in the usage maps so that the scheduler sees the
shared resource.  :func:`repro.core.merge.apply_merges` performs that
rewriting; this module defines and validates the spec and computes the
resource-name mapping.

Semantics of a merged register file:

* one write port — writes that used to go to different files now
  conflict;
* one shared read port — reads of *different* registers now conflict
  (reading the same register is still free, same usage);
* capacity = sum of the parts' capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ArchitectureError
from .datapath import Datapath


@dataclass(frozen=True)
class RegisterFileMerge:
    """Merge the register files ``parts`` into one file ``name``."""

    name: str
    parts: tuple[str, ...]


@dataclass(frozen=True)
class BusMerge:
    """Merge the buses ``parts`` into one bus ``name``."""

    name: str
    parts: tuple[str, ...]


@dataclass
class MergeSpec:
    """A set of register-file and bus merges for one core."""

    register_file_merges: list[RegisterFileMerge] = field(default_factory=list)
    bus_merges: list[BusMerge] = field(default_factory=list)

    def merge_register_files(self, name: str, parts: list[str]) -> "MergeSpec":
        self.register_file_merges.append(RegisterFileMerge(name, tuple(parts)))
        return self

    def merge_buses(self, name: str, parts: list[str]) -> "MergeSpec":
        self.bus_merges.append(BusMerge(name, tuple(parts)))
        return self

    @property
    def is_empty(self) -> bool:
        return not self.register_file_merges and not self.bus_merges

    # ------------------------------------------------------------------

    def validate(self, dp: Datapath) -> None:
        """Check the spec against a datapath."""
        seen_rfs: set[str] = set()
        for merge in self.register_file_merges:
            if len(merge.parts) < 2:
                raise ArchitectureError(
                    f"merge {merge.name!r}: needs at least two register files"
                )
            for part in merge.parts:
                if part not in dp.register_files:
                    raise ArchitectureError(
                        f"merge {merge.name!r}: unknown register file {part!r}"
                    )
                if part in seen_rfs:
                    raise ArchitectureError(
                        f"register file {part!r} appears in two merges"
                    )
                seen_rfs.add(part)
        seen_buses: set[str] = set()
        for merge in self.bus_merges:
            if len(merge.parts) < 2:
                raise ArchitectureError(
                    f"merge {merge.name!r}: needs at least two buses"
                )
            for part in merge.parts:
                if part not in dp.buses:
                    raise ArchitectureError(
                        f"merge {merge.name!r}: unknown bus {part!r}"
                    )
                if part in seen_buses:
                    raise ArchitectureError(f"bus {part!r} appears in two merges")
                seen_buses.add(part)

    def register_file_map(self) -> dict[str, str]:
        """Old register-file name → merged name (identity entries omitted)."""
        mapping: dict[str, str] = {}
        for merge in self.register_file_merges:
            for part in merge.parts:
                mapping[part] = merge.name
        return mapping

    def bus_map(self) -> dict[str, str]:
        """Old bus name → merged name (identity entries omitted)."""
        mapping: dict[str, str] = {}
        for merge in self.bus_merges:
            for part in merge.parts:
                mapping[part] = merge.name
        return mapping
