import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarr import EdgeColoredHypergraph, InputError, build_kequal
from echarr.corpus import ex28, ex28_2, random_hypergraph
from helpers import equivalent, meet_colors

import random


def hypergraphs(max_vertices=6, max_colors=4):
    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda seed: random_hypergraph(random.Random(seed), max_vertices, max_colors)
    )


def subset_of_colors(h):
    return st.sets(st.sampled_from(list(h.colors))) if h.colors else st.just(set())


class TestComponents:
    def test_ex28_red(self, ex28):
        assert set(ex28.components(["R"])) == {frozenset({1, 2}), frozenset({3, 4})}

    def test_empty_colorset(self, ex28):
        assert ex28.components([]) == ()

    def test_overlapping_edges_merge(self, ex28_2):
        assert set(ex28_2.components(["R", "G"])) == {frozenset({1, 2, 3, 4, 5})}

    def test_unknown_color(self, ex28):
        with pytest.raises(InputError):
            ex28.components(["purple"])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), h=hypergraphs())
    def test_components_partition_subset(self, data, h):
        gamma = data.draw(subset_of_colors(h))
        comps = h.components(gamma)
        seen = set()
        for comp in comps:
            assert len(comp) >= 2
            assert not (seen & comp)
            seen |= comp
        assert seen <= set(range(1, h.vertex_count + 1))


class TestCodim:
    def test_ex28_values(self, ex28):
        assert ex28.codim(["R"]) == 2
        assert ex28.codim(["R", "B"]) == 3
        assert ex28.codim([]) == 0

    def test_ex28_2_multiplicative_pair(self, ex28_2):
        assert ex28_2.codim(["R", "G"]) == 4

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), h=hypergraphs())
    def test_monotone_under_inclusion(self, data, h):
        g2 = data.draw(subset_of_colors(h))
        g1 = data.draw(st.sets(st.sampled_from(sorted(g2))) if g2 else st.just(set()))
        assert h.codim(g1) <= h.codim(g2)


class TestRefines:
    def test_ex28_2_examples(self, ex28_2):
        assert ex28_2.refines(["B"], ["R", "G"])
        assert ex28_2.refines([], ["B"])
        assert not ex28_2.refines(["R"], ["B"])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), h=hypergraphs())
    def test_preorder(self, data, h):
        g1 = data.draw(subset_of_colors(h))
        g2 = data.draw(subset_of_colors(h))
        g3 = data.draw(subset_of_colors(h))
        assert h.refines(g1, g1)
        if h.refines(g1, g2) and h.refines(g2, g3):
            assert h.refines(g1, g3)


class TestClosure:
    def test_ex28_2(self, ex28_2):
        assert ex28_2.closure(["R", "G"]) == {"R", "B", "G"}

    def test_empty(self, ex28):
        assert ex28.closure([]) == frozenset()

    def test_ex28_blue(self, ex28):
        assert ex28.closure(["B"]) == {"B"}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), h=hypergraphs())
    def test_closure_operator_laws(self, data, h):
        gamma = data.draw(subset_of_colors(h))
        cl = h.closure(gamma)
        assert gamma <= cl
        assert h.closure(cl) == cl
        assert equivalent(h, gamma, cl)
        bigger = data.draw(subset_of_colors(h))
        if gamma <= bigger:
            assert cl <= h.closure(bigger)


class TestMultiplicativeAndMeet:
    def test_ex28_2(self, ex28_2):
        assert ex28_2.multiplicative(["R"], ["G"])
        assert not ex28_2.multiplicative(["R"], ["B"])
        assert ex28_2.multiplicative(["R", "B"], [])

    def test_meet_examples(self, ex28, ex28_2):
        assert meet_colors(ex28, ["R"], ["B"]) == frozenset()
        assert meet_colors(ex28_2, ["R", "G"], ["B"]) == {"B"}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), h=hypergraphs())
    def test_meet_idempotent(self, data, h):
        gamma = data.draw(subset_of_colors(h))
        assert meet_colors(h, gamma, gamma) == h.closure(gamma)


class TestDeleteContract:
    def test_delete_blue(self, ex28):
        out = ex28.delete_color("B")
        assert out.vertex_count == 4
        assert sorted(map(sorted, out.edges)) == [[1, 2], [3, 4]]
        assert out.colors == ("R",)

    def test_contract_blue(self, ex28):
        out = ex28.contract_color("B")
        assert out.vertex_count == 3
        assert sorted(map(sorted, out.edges)) == [[1, 2], [2, 3]]
        assert set(out.edge_colors) == {"R"}

    def test_contract_red_ex28_2(self, ex28_2):
        out = ex28_2.contract_color("R")
        assert out.vertex_count == 3
        by_color = {c: sorted(e) for e, c in zip(out.edges, out.edge_colors)}
        assert by_color == {"B": [1, 2], "G": [1, 2, 3]}

    def test_unknown_color(self, ex28):
        with pytest.raises(InputError):
            ex28.delete_color("X")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), h=hypergraphs())
    def test_contract_codim_identity(self, data, h):
        if not h.colors:
            return
        lam = data.draw(st.sampled_from(list(h.colors)))
        rest = [c for c in h.colors if c != lam]
        contracted = h.contract_color(lam)
        for gamma in _all_subsets(rest):
            kept = [c for c in gamma if c in contracted.colors]
            assert contracted.codim(kept) == h.codim(set(gamma) | {lam}) - h.codim([lam])


def _all_subsets(items):
    import itertools

    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


class TestValidate:
    def test_ex28_strict_clean(self, ex28):
        assert ex28.validate(strict=True) == []

    def test_small_edge(self):
        h = EdgeColoredHypergraph(4, (frozenset({3}),), ("a",))
        kinds = {v.kind for v in h.validate()}
        assert "edge_size" in kinds

    def test_nested_colors_strict(self):
        h = EdgeColoredHypergraph.from_edge_list(3, [({1, 2}, "a"), ({1, 2, 3}, "b")])
        assert h.validate(strict=False) == []
        kinds = {v.kind for v in h.validate(strict=True)}
        assert kinds == {"color_refinement"}

    def test_out_of_range(self):
        h = EdgeColoredHypergraph.from_edge_list(4, [({1, 9}, "a")])
        kinds = {v.kind for v in h.validate()}
        assert "vertex_range" in kinds


class TestKEqual:
    def test_small(self):
        h = build_kequal(3, 2)
        assert len(h.edges) == 3 and len(h.colors) == 3

    def test_counts(self):
        assert len(build_kequal(4, 3).edges) == 4

    def test_codims(self):
        h = build_kequal(5, 3)
        assert len(h.edges) == 10
        assert all(h.codim([c]) == 2 for c in h.colors)

    def test_range_error(self):
        with pytest.raises(InputError):
            build_kequal(3, 1)
        with pytest.raises(InputError):
            build_kequal(3, 4)
