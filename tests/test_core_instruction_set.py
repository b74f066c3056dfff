"""Tests for instruction sets and construction rules (paper, sect. 6.2).

The running example is the paper's own: classes S, T, U, V, X, Y with
desired instruction types {S,T}, {S,U,V} and {X,Y}; the allowed closure
is

    I = {NOP, {S}, {T}, {U}, {V}, {X}, {Y}, {S,U}, {S,V}, {U,V},
         {S,U,V}, {S,T}, {X,Y}}
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Toolchain
from repro.apps import stress_application
from repro.arch import Allocation, intermediate_architecture
from repro.core import (
    NOP,
    ConflictGraph,
    InstructionSet,
    closure,
    compatible_pairs,
)
from repro.errors import InstructionSetError

CLASSES = ["S", "T", "U", "V", "X", "Y"]
DESIRED = [frozenset("ST"), frozenset("SUV"), frozenset("XY")]

PAPER_I = {
    NOP,
    frozenset("S"), frozenset("T"), frozenset("U"),
    frozenset("V"), frozenset("X"), frozenset("Y"),
    frozenset("SU"), frozenset("SV"), frozenset("UV"),
    frozenset("SUV"), frozenset("ST"), frozenset("XY"),
}


class TestClosure:
    def test_paper_example_exactly(self):
        assert closure(CLASSES, DESIRED) == PAPER_I

    def test_closure_is_idempotent(self):
        once = closure(CLASSES, DESIRED)
        again = closure(CLASSES, sorted(once, key=sorted))
        assert once == again

    def test_closure_contains_nop_and_singletons(self):
        result = closure(CLASSES, [])
        assert result == {NOP} | {frozenset({c}) for c in CLASSES}

    def test_unknown_class_rejected(self):
        with pytest.raises(InstructionSetError, match="unknown"):
            closure(["A"], [frozenset({"A", "Z"})])

    def test_rule4_pairwise_closure(self):
        # {P,Q}, {P,R}, {Q,R} allowed => {P,Q,R} must be allowed.
        result = closure(["P", "Q", "R"],
                         [frozenset("PQ"), frozenset("PR"), frozenset("QR")])
        assert frozenset("PQR") in result


class TestInstructionSet:
    def iset(self):
        return InstructionSet.from_desired(CLASSES, DESIRED)

    def test_from_desired_validates(self):
        self.iset().validate()  # must not raise

    def test_allows(self):
        iset = self.iset()
        assert iset.allows({"S", "U", "V"})
        assert iset.allows(set())           # NOP
        assert not iset.allows({"S", "X"})
        assert not iset.allows({"S", "T", "U"})

    def test_maximal_types(self):
        maximal = set(self.iset().maximal_types())
        assert maximal == {frozenset("SUV"), frozenset("ST"), frozenset("XY")}

    def test_pretty_mentions_nop_first(self):
        assert self.iset().pretty().startswith("I = {NOP, ")

    def test_len_matches_paper(self):
        assert len(self.iset()) == 13

    def test_violations_missing_nop(self):
        bad = InstructionSet(CLASSES, PAPER_I - {NOP})
        assert any("rule 1" in v for v in bad.violations())

    def test_violations_missing_singleton(self):
        bad = InstructionSet(CLASSES, PAPER_I - {frozenset("T")})
        problems = bad.violations()
        assert any("rule 2" in v and "{T}" in v for v in problems)

    def test_violations_missing_subset(self):
        bad = InstructionSet(CLASSES, PAPER_I - {frozenset("SU")})
        problems = bad.violations()
        assert any("rule 3" in v for v in problems)

    def test_violations_missing_pairwise_implied(self):
        bad = InstructionSet(CLASSES, PAPER_I - {frozenset("SUV")})
        problems = bad.violations()
        assert any("rule 4" in v for v in problems)

    def test_validate_raises_with_explanation(self):
        bad = InstructionSet(CLASSES, PAPER_I - {NOP})
        with pytest.raises(InstructionSetError, match="rule 1"):
            bad.validate()

    def test_compatible(self):
        iset = self.iset()
        assert iset.compatible("S", "T")
        assert iset.compatible("S", "S")
        assert not iset.compatible("S", "X")


class TestCompatiblePairs:
    def test_pairs_of_paper_example(self):
        pairs = compatible_pairs(DESIRED)
        assert pairs == {
            frozenset("ST"), frozenset("SU"), frozenset("SV"),
            frozenset("UV"), frozenset("XY"),
        }


@st.composite
def desired_types(draw, max_classes=7):
    n = draw(st.integers(min_value=1, max_value=max_classes))
    classes = [chr(ord("A") + i) for i in range(n)]
    n_types = draw(st.integers(min_value=0, max_value=4))
    types = [
        frozenset(draw(st.sets(st.sampled_from(classes), max_size=n)))
        for _ in range(n_types)
    ]
    return classes, types


class TestClosureProperties:
    @given(desired_types())
    @settings(max_examples=60)
    def test_closure_satisfies_all_rules(self, case):
        classes, types = case
        iset = InstructionSet(classes, closure(classes, types))
        assert iset.violations() == []

    @given(desired_types())
    @settings(max_examples=60)
    def test_closure_contains_desired(self, case):
        classes, types = case
        result = closure(classes, types)
        for t in types:
            assert t in result

    @given(desired_types())
    @settings(max_examples=60)
    def test_closure_adds_no_new_pairs(self, case):
        classes, types = case
        result = closure(classes, types)
        assert compatible_pairs(sorted(result, key=sorted)) == compatible_pairs(types)

    @given(desired_types())
    @settings(max_examples=30)
    def test_closure_idempotent(self, case):
        classes, types = case
        once = closure(classes, types)
        assert closure(classes, sorted(once, key=sorted)) == once


class TestGraphModel:
    """The compatibility-graph model answers every query exactly as
    the enumerated closure does."""

    @given(desired_types(max_classes=10))
    @settings(max_examples=60, deadline=None)
    def test_graph_model_equals_closure(self, case):
        classes, types = case
        iset = InstructionSet.from_desired(classes, types)
        family = closure(classes, types)
        assert iset.types == family
        assert len(iset) == len(family)

        for size in range(len(classes) + 1):
            for subset in combinations(classes, size):
                assert iset.allows(subset) == (frozenset(subset) in family)
        assert not iset.allows({"unknown"})

        pairs = compatible_pairs(sorted(family, key=sorted))
        for a in classes:
            for b in classes:
                expected = a == b or frozenset({a, b}) in pairs
                assert iset.compatible(a, b) == expected

        maximal = {t for t in family if not any(t < other for other in family)}
        assert set(iset.maximal_types()) == maximal

        edges = {
            frozenset(pair) for pair in combinations(sorted(classes), 2)
            if frozenset(pair) not in pairs
        }
        assert ConflictGraph.from_instruction_set(iset) == \
            ConflictGraph(sorted(classes), edges)


def test_compile_never_enumerates_the_instruction_set(monkeypatch):
    """Compiling for a wide fully parallel core builds only the
    compatibility graph: no closure, no type enumeration, no rule
    re-check."""
    def forbidden(*args, **kwargs):
        raise AssertionError("instruction set enumerated while compiling")

    monkeypatch.setattr("repro.core.instruction_set.closure", forbidden)
    monkeypatch.setattr(InstructionSet, "violations", forbidden)
    monkeypatch.setattr(InstructionSet, "types", property(forbidden))
    dfg = stress_application(8, seed=3)
    core = intermediate_architecture(
        [dfg], Allocation(n_mult=3, n_alu=3, n_ram=2))
    compiled = Toolchain(core, cache=None).compile(dfg)
    assert len(compiled.conflict_model.table) >= 15
    assert compiled.n_cycles == 11
