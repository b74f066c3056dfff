"""Instruction sets and the construction rules (paper, section 6.2).

An *instruction type* is a set of RT classes; an instruction replaces
every class by one RT from that class.  The *instruction set* is the
set of all instruction types.  "Instruction set modelling via fixed
constraints" demands four construction rules:

1. the NOP (empty type) is always allowed;
2. every individual RT class is a valid instruction type;
3. every subset of an allowed type is allowed (sub-instructions);
4. if all 2-subsets of a set are allowed, the set itself is allowed.

Rules 3 + 4 together say that an allowed instruction set is *exactly*
the family of cliques of its class-compatibility graph — which is why
the restrictions can be modelled with fixed pairwise conflicts before
scheduling (section 6.3).  :class:`InstructionSet` holds just that
graph; :func:`closure` enumerates its cliques for reports, and
:meth:`InstructionSet.violations` explains which rule a hand-written
set breaks.
"""

from __future__ import annotations

from itertools import combinations

from ..errors import InstructionSetError

NOP: frozenset[str] = frozenset()


def _check_classes(
    class_names: list[str], types: list[frozenset[str]]
) -> None:
    known = set(class_names)
    if len(known) != len(class_names):
        raise InstructionSetError("duplicate RT class names")
    for instruction_type in types:
        unknown = instruction_type - known
        if unknown:
            raise InstructionSetError(
                f"instruction type {sorted(instruction_type)} uses unknown "
                f"RT classes {sorted(unknown)}"
            )


def compatible_pairs(types: list[frozenset[str]]) -> set[frozenset[str]]:
    """All 2-subsets occurring together in some instruction type."""
    pairs: set[frozenset[str]] = set()
    for instruction_type in types:
        for a, b in combinations(sorted(instruction_type), 2):
            pairs.add(frozenset({a, b}))
    return pairs


def closure(
    class_names: list[str], desired_types: list[frozenset[str]]
) -> set[frozenset[str]]:
    """The smallest allowed instruction set containing ``desired_types``.

    Rules 1-3 add the NOP, the singletons and all subsets; rule 4 then
    adds every clique of the compatibility graph.  Since rule 4 never
    introduces new *pairs*, the result is exactly the family of cliques
    of the pairwise-compatibility graph induced by the desired types —
    computed here by depth-first clique enumeration.
    """
    _check_classes(class_names, desired_types)
    pairs = compatible_pairs(desired_types)
    adjacency: dict[str, set[str]] = {name: set() for name in class_names}
    for pair in pairs:
        a, b = sorted(pair)
        adjacency[a].add(b)
        adjacency[b].add(a)

    result: set[frozenset[str]] = {NOP}
    order = sorted(class_names)

    def extend(clique: tuple[str, ...], candidates: list[str]) -> None:
        result.add(frozenset(clique))
        for position, name in enumerate(candidates):
            if all(name in adjacency[member] for member in clique):
                extend(clique + (name,), candidates[position + 1:])

    for i, name in enumerate(order):
        extend((name,), order[i + 1:])
    return result


class InstructionSet:
    """An instruction set held as its class-compatibility graph :attr:`pairs`;
    hand-written ``types`` stay in :attr:`hand_written` for :meth:`violations`."""

    def __init__(self, class_names: list[str], types: set[frozenset[str]]):
        self.hand_written: set[frozenset[str]] | None = set(types)
        _check_classes(class_names, sorted(self.hand_written, key=sorted))
        self.class_names = list(class_names)
        self.pairs = compatible_pairs(self.hand_written)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_desired(
        class_names: list[str], desired_types: list[frozenset[str]]
    ) -> "InstructionSet":
        """The desired types closed under rules 1-4 by construction."""
        instruction_set = InstructionSet(class_names, desired_types)
        instruction_set.hand_written = None
        return instruction_set

    # -- rule checking ------------------------------------------------------

    def violations(self) -> list[str]:
        """Human-readable construction-rule violations (empty = allowed)."""
        if self.hand_written is None:
            return []
        problems: list[str] = []
        if NOP not in self.hand_written:
            problems.append("rule 1: the NOP (empty instruction) is missing")
        for name in self.class_names:
            if frozenset({name}) not in self.hand_written:
                problems.append(
                    f"rule 2: individual class {{{name}}} is not a valid "
                    f"instruction type"
                )
        for instruction_type in sorted(self.hand_written, key=lambda t: (len(t), sorted(t))):
            for size in range(1, len(instruction_type)):
                for subset in combinations(sorted(instruction_type), size):
                    if frozenset(subset) not in self.hand_written:
                        problems.append(
                            f"rule 3: {set(subset)} (sub-instruction of "
                            f"{set(sorted(instruction_type))}) is missing"
                        )
        required = closure(self.class_names, sorted(self.hand_written, key=sorted))
        for instruction_type in sorted(required - self.hand_written, key=sorted):
            if len(instruction_type) >= 3:
                problems.append(
                    f"rule 4: all pairs of {set(sorted(instruction_type))} "
                    f"are allowed, so the full type must be allowed too"
                )
        return problems

    def validate(self) -> None:
        problems = self.violations()
        if problems:
            raise InstructionSetError(
                "instruction set violates the construction rules "
                "(section 6.2):\n  - " + "\n  - ".join(problems)
            )

    # -- queries ------------------------------------------------------------

    def allows(self, classes: frozenset[str] | set[str]) -> bool:
        """Is ``classes`` a clique of the compatibility graph?"""
        return set(classes) <= set(self.class_names) and all(
            self.compatible(a, b) for a, b in combinations(classes, 2)
        )

    def compatible(self, a: str, b: str) -> bool:
        """Can classes ``a`` and ``b`` appear in one instruction?"""
        return a == b or frozenset({a, b}) in self.pairs

    @property
    def types(self) -> set[frozenset[str]]:
        """Every allowed type, enumerated on demand (for reports)."""
        return closure(self.class_names, list(self.pairs))

    def maximal_types(self) -> list[frozenset[str]]:
        """Types not contained in any other type (compact description)."""
        ordered = sorted(self.types, key=lambda t: (-len(t), sorted(t)))
        maximal: list[frozenset[str]] = []
        for instruction_type in ordered:
            if not any(instruction_type < other for other in maximal):
                maximal.append(instruction_type)
        return maximal

    def pretty(self) -> str:
        """Render like the paper: ``I = {NOP, {S}, ..., {S, U, V}}``."""
        parts = ["NOP"]
        for instruction_type in sorted(
            self.types - {NOP}, key=lambda t: (len(t), sorted(t))
        ):
            parts.append("{" + ", ".join(sorted(instruction_type)) + "}")
        return "I = {" + ", ".join(parts) + "}"

    def __len__(self) -> int:
        return len(self.types)

    def __contains__(self, instruction_type) -> bool:
        return self.allows(instruction_type)
