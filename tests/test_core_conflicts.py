"""Tests for conflict graphs, clique covers and artificial resources
(paper, section 6.3 and figure 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import audio_core
from repro.core import (
    ClassTable,
    ConflictGraph,
    InstructionSet,
    clique_resource_name,
    edge_per_clique_cover,
    exact_cover,
    greedy_cover,
    impose_instruction_set,
    verify_cover,
)
from repro.errors import InstructionSetError
from repro.lang import parse_source
from repro.rtgen import conflict_same_cycle, generate_rts

CLASSES = ["S", "T", "U", "V", "X", "Y"]
DESIRED = [frozenset("ST"), frozenset("SUV"), frozenset("XY")]

#: Figure 6: the ten conflict edges of instruction set I.
FIG6_EDGES = {
    frozenset(e) for e in
    ("SX", "SY", "TU", "TV", "TX", "TY", "UX", "UY", "VX", "VY")
}

#: The paper's example cover of section 6.3.
PAPER_COVER = [
    frozenset("SX"), frozenset("SY"), frozenset("TUY"),
    frozenset("TVX"), frozenset("UX"), frozenset("VY"),
]


def example_graph():
    iset = InstructionSet.from_desired(CLASSES, DESIRED)
    return ConflictGraph.from_instruction_set(iset)


class TestConflictGraph:
    def test_figure6_edges_exactly(self):
        assert example_graph().edges == FIG6_EDGES

    def test_compatible_classes_have_no_edge(self):
        graph = example_graph()
        for pair in ("SU", "SV", "UV", "ST", "XY"):
            assert not graph.has_edge(*pair)

    def test_is_clique(self):
        graph = example_graph()
        assert graph.is_clique({"T", "U", "Y"})
        assert graph.is_clique({"T", "V", "X"})
        assert not graph.is_clique({"S", "U"})     # compatible pair
        assert graph.is_clique({"S"})              # trivially

    def test_degree(self):
        graph = example_graph()
        assert graph.degree("T") == 4   # TU TV TX TY
        assert graph.degree("S") == 2   # SX SY

    def test_pretty_lists_edges(self):
        text = example_graph().pretty()
        assert "10 conflict edges" in text
        assert "S -- X" in text


class TestCliqueCovers:
    def test_paper_cover_is_valid(self):
        verify_cover(example_graph(), PAPER_COVER)

    def test_paper_cover_partitions_edges(self):
        # The paper's cover covers each of the 10 edges exactly once.
        graph = example_graph()
        total = sum(len(graph.subgraph_edges(set(c))) for c in PAPER_COVER)
        assert total == len(graph.edges) == 10

    def test_greedy_cover_valid_and_small(self):
        graph = example_graph()
        cover = greedy_cover(graph)
        verify_cover(graph, cover)
        assert len(cover) <= 6   # paper's cover size

    def test_exact_cover_minimal(self):
        graph = example_graph()
        exact = exact_cover(graph)
        verify_cover(graph, exact)
        assert len(exact) <= len(greedy_cover(graph))

    def test_edge_per_clique_cover(self):
        graph = example_graph()
        cover = edge_per_clique_cover(graph)
        verify_cover(graph, cover)
        assert len(cover) == 10

    def test_verify_rejects_non_clique(self):
        with pytest.raises(InstructionSetError, match="not a clique"):
            verify_cover(example_graph(), [frozenset("SU")])

    def test_verify_rejects_uncovered(self):
        with pytest.raises(InstructionSetError, match="not covered"):
            verify_cover(example_graph(), [frozenset("SX")])

    def test_clique_resource_name(self):
        assert clique_resource_name(frozenset("CAB")) == "iset:ABC"


class TestArtificialResources:
    def audio_model(self, **kwargs):
        source = """
        app io;
        input i0;
        output o0, o1;
        loop {
          a := pass_clip(i0);
          o0 = a;
          o1 = a;
        }
        """
        core = audio_core()
        program = generate_rts(parse_source(source), core)
        table = ClassTable.from_core(core)
        iset = InstructionSet.from_desired(table.names, core.instruction_types)
        return impose_instruction_set(program.rts, table, iset, **kwargs)

    def test_audio_core_single_abc_clique(self):
        # Section 7: "A single artificial resource 'ABC' is required."
        model = self.audio_model()
        assert model.cover == [frozenset("ABC")]
        assert set(model.artificial_resources) == {"iset:ABC"}

    def test_io_rts_carry_the_clique_resource(self):
        model = self.audio_model()
        for rt in model.rts:
            uses = {u.resource: u.usage for u in rt.uses}
            if rt.opu in ("ipb", "opb_1", "opb_2"):
                assert uses["iset:ABC"] == rt.rt_class
            else:
                assert "iset:ABC" not in uses

    def test_io_rts_pairwise_conflict(self):
        model = self.audio_model()
        io_rts = [rt for rt in model.rts if rt.opu in ("ipb", "opb_1", "opb_2")]
        assert len(io_rts) == 3
        for i, a in enumerate(io_rts):
            for b in io_rts[i + 1:]:
                assert conflict_same_cycle(a, b)

    def test_non_io_rts_unaffected(self):
        model = self.audio_model()
        alu_rts = [rt for rt in model.rts if rt.opu == "alu"]
        io_rts = [rt for rt in model.rts if rt.opu == "ipb"]
        assert alu_rts and io_rts
        assert not conflict_same_cycle(alu_rts[0], io_rts[0])

    def test_explicit_cover_is_verified(self):
        with pytest.raises(InstructionSetError):
            self.audio_model(cover=[frozenset("AB")])  # BC, AC uncovered

    def test_edge_cover_algorithm(self):
        model = self.audio_model(cover_algorithm="edge")
        assert len(model.cover) == 3  # AB, AC, BC separately

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown cover algorithm"):
            self.audio_model(cover_algorithm="magic")


class TestSection63Example:
    """The worked RT_1/RT_2/RT_3 example of section 6.3."""

    def test_s_and_x_never_together(self):
        from repro.rtgen import RT, ResourceUse

        cover = PAPER_COVER
        # Build three bare RTs of classes S, U and X with no physical
        # resource overlap at all.
        def bare(opu, cls):
            rt = RT(opu=opu, operation="op", operands=(), destinations=(),
                    uses=(ResourceUse(opu, "op"),))
            rt.rt_class = cls
            return rt

        rt1, rt2, rt3 = bare("opu_s", "S"), bare("opu_u", "U"), bare("opu_x", "X")
        membership = {
            cls: [clique_resource_name(c) for c in cover if cls in c]
            for cls in CLASSES
        }
        def imposed(rt):
            from repro.rtgen import ResourceUse as RU
            return rt.with_extra_uses(tuple(
                RU(r, rt.rt_class) for r in sorted(membership[rt.rt_class])
            ))

        rt1m, rt2m, rt3m = imposed(rt1), imposed(rt2), imposed(rt3)
        # "It is clear that RT_1 and RT_3 will never be scheduled in the
        # same instruction as SX = S and SX = X form a conflict."
        assert conflict_same_cycle(rt1m, rt3m)
        assert conflict_same_cycle(rt2m, rt3m)      # UX = U vs UX = X
        assert not conflict_same_cycle(rt1m, rt2m)  # S and U are compatible


class TestCoverProperties:
    @st.composite
    @staticmethod
    def random_graph(draw):
        from itertools import combinations

        n = draw(st.integers(min_value=2, max_value=8))
        nodes = [chr(ord("A") + i) for i in range(n)]
        all_pairs = [frozenset(p) for p in combinations(nodes, 2)]
        edges = set(draw(st.sets(st.sampled_from(all_pairs))))
        return ConflictGraph(nodes, edges)

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_greedy_cover_always_valid(self, graph):
        verify_cover(graph, greedy_cover(graph))

    @given(random_graph())
    @settings(max_examples=30, deadline=None)
    def test_exact_no_larger_than_greedy(self, graph):
        exact = exact_cover(graph)
        verify_cover(graph, exact)
        assert len(exact) <= len(greedy_cover(graph))


def cocktail_party(pairs: int) -> ConflictGraph:
    """The complete graph on ``2 * pairs`` nodes minus a perfect
    matching: every maximal clique takes one node of each pair, so there
    are ``2 ** pairs`` of them."""
    from itertools import combinations

    nodes = [f"{side}{k:02d}" for k in range(pairs) for side in "ab"]
    edges = {frozenset(p) for p in combinations(nodes, 2)
             if p[0][1:] != p[1][1:]}
    return ConflictGraph(nodes, edges)


def count_expand_calls(function, *args):
    """``function(*args)`` and how many times the Bron-Kerbosch
    ``expand`` step of the clique enumeration ran inside it."""
    import sys

    from repro.core import clique_cover

    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if (event == "call" and frame.f_code.co_name == "expand"
                and frame.f_code.co_filename == clique_cover.__file__):
            calls += 1

    sys.setprofile(profile)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return result, calls


class TestExactCoverBudget:
    """``exact_cover`` stops enumerating cliques at ``max_candidates + 1``
    and falls back to the greedy cover."""

    def test_enumeration_stops_past_the_budget(self):
        from repro.core.clique_cover import _maximal_cliques

        graph = cocktail_party(13)
        everything, full_calls = count_expand_calls(
            _maximal_cliques, graph, 1 << 20)
        assert len(everything) == 2 ** 13
        cover, calls = count_expand_calls(exact_cover, graph)
        assert cover == greedy_cover(graph)
        # 4097 of the 8192 cliques, so about half of the expand steps.
        assert calls < 0.6 * full_calls

    @given(TestCoverProperties.random_graph(), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_a_bounded_enumeration_is_a_prefix(self, graph, limit):
        from repro.core.clique_cover import _maximal_cliques

        everything = _maximal_cliques(graph, 1 << 20)
        assert _maximal_cliques(graph, limit) == everything[:limit]

    @given(TestCoverProperties.random_graph())
    @settings(max_examples=30, deadline=None)
    def test_covers_at_the_budget_stay_exact(self, graph):
        from repro.core.clique_cover import _maximal_cliques

        n_cliques = len(_maximal_cliques(graph, 1 << 20))
        assert (exact_cover(graph, max_candidates=n_cliques)
                == exact_cover(graph))
