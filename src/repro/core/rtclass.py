"""RT classes (paper, section 6.1).

"RT classes need to be introduced to be able to specify instruction
sets ...  Every RT generated in step 1 of the compiler belongs to
exactly one RT class.  To which RT class a RT belongs is determined by
the combination of the OPU resource it uses and the way the resource
is used (usage)."

A :class:`ClassTable` is a partition of the (OPU, usage) space, like
figure 5's ``acu_1: add → A, pass → B, addmod → C; ram_1: {read,
write} → E``.  Section 7 builds the audio core's table of 13 classes
and then *groups* E+F into X and H+I+J+K into Y; :meth:`ClassTable.group`
performs that reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.library import ClassDef, CoreSpec
from ..errors import ClassificationError
from ..rtgen.rt import RT


@dataclass(frozen=True)
class RTClass:
    """One RT class: a named (OPU, usage set) pair."""

    name: str
    opu: str
    usages: frozenset[str]

    def matches(self, rt: RT) -> bool:
        return rt.opu == self.opu and rt.operation in self.usages

    def pretty_usages(self) -> str:
        if len(self.usages) == 1:
            return next(iter(self.usages))
        return "{" + ", ".join(sorted(self.usages)) + "}"


class ClassTable:
    """A validated partition of (OPU, usage) pairs into RT classes."""

    def __init__(self, classes: list[RTClass]):
        seen_names: set[str] = set()
        seen_pairs: dict[tuple[str, str], str] = {}
        for cls in classes:
            if cls.name in seen_names:
                raise ClassificationError(f"duplicate RT class name {cls.name!r}")
            seen_names.add(cls.name)
            for usage in cls.usages:
                pair = (cls.opu, usage)
                if pair in seen_pairs:
                    raise ClassificationError(
                        f"(OPU {cls.opu!r}, usage {usage!r}) belongs to both "
                        f"class {seen_pairs[pair]!r} and class {cls.name!r}; "
                        f"classes must partition the usage space"
                    )
                seen_pairs[pair] = cls.name
        self.classes = list(classes)
        self._by_pair = seen_pairs

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_core(core: CoreSpec) -> "ClassTable":
        """The class table carried by the core definition."""
        return ClassTable.from_class_defs(core.class_defs)

    @staticmethod
    def from_class_defs(defs: list[ClassDef]) -> "ClassTable":
        return ClassTable([
            RTClass(d.name, d.opu, frozenset(d.usages)) for d in defs
        ])

    @staticmethod
    def auto(core: CoreSpec) -> "ClassTable":
        """One class per (OPU, operation) pair, named ``opu.operation``.

        This is the *unreduced* classification — applied to the audio
        core it yields the 13 classes of the paper's figure 8 table.
        """
        classes = []
        for opu in core.datapath.opus.values():
            for operation in opu.operations.values():
                classes.append(
                    RTClass(
                        f"{opu.name}.{operation.name}",
                        opu.name,
                        frozenset({operation.name}),
                    )
                )
        return ClassTable(classes)

    def group(self, groups: dict[str, tuple[str, ...]]) -> "ClassTable":
        """Combine classes, e.g. ``{"X": ("E", "F"), "Y": ("H", "I")}``.

        Grouped classes must share one OPU ("the combination of the OPU
        resource it uses and the way the resource is used"); ungrouped
        classes are kept unchanged.
        """
        by_name = {cls.name: cls for cls in self.classes}
        grouped_members: set[str] = set()
        result: list[RTClass] = []
        for new_name, members in groups.items():
            opus = set()
            usages: set[str] = set()
            for member in members:
                if member not in by_name:
                    raise ClassificationError(
                        f"cannot group unknown class {member!r}"
                    )
                if member in grouped_members:
                    raise ClassificationError(
                        f"class {member!r} appears in two groups"
                    )
                grouped_members.add(member)
                opus.add(by_name[member].opu)
                usages |= by_name[member].usages
            if len(opus) != 1:
                raise ClassificationError(
                    f"group {new_name!r} spans OPUs {sorted(opus)}; an RT "
                    f"class is defined per OPU"
                )
            result.append(RTClass(new_name, opus.pop(), frozenset(usages)))
        for cls in self.classes:
            if cls.name not in grouped_members:
                result.append(cls)
        return ClassTable(result)

    # -- queries ------------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return [cls.name for cls in self.classes]

    def by_name(self, name: str) -> RTClass:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise ClassificationError(f"unknown RT class {name!r}")

    def classify(self, rt: RT) -> RTClass:
        """The unique class of ``rt``; raises if unclassifiable."""
        name = self.class_name(rt)
        if name is None:
            raise ClassificationError(
                f"{rt!r}: no RT class covers (OPU {rt.opu!r}, usage "
                f"{rt.operation!r}); extend the core's class table"
            )
        return self.by_name(name)

    def class_name(self, rt: RT) -> str | None:
        """The name of ``rt``'s class; ``None`` when no class covers it."""
        return self._by_pair.get((rt.opu, rt.operation))

    def classify_program(self, rts: list[RT]) -> dict[str, list[RT]]:
        """Annotate ``rt.rt_class`` on every RT; return class → RTs."""
        by_class: dict[str, list[RT]] = {cls.name: [] for cls in self.classes}
        for rt in rts:
            cls = self.classify(rt)
            rt.rt_class = cls.name
            by_class[cls.name].append(rt)
        return by_class

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)
