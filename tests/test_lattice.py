import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarr import IntPolynomial, build_kequal, build_lattice, is_geometric
from echarr.corpus import edgeless, random_hypergraph
from echarr.hypergraph import EdgeColoredHypergraph
from helpers import index_of


def hypergraphs(max_vertices=5, max_colors=3):
    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda seed: random_hypergraph(random.Random(seed), max_vertices, max_colors)
    )


class TestBuild:
    def test_ex28_elements(self, ex28):
        lat = build_lattice(ex28)
        got = {(e.colors_sorted(), e.codim) for e in lat.elements}
        assert got == {((), 0), (("R",), 2), (("B",), 1), (("B", "R"), 3)}

    def test_smalldude_six_elements(self, smalldude):
        lat = build_lattice(smalldude)
        got = {(e.colors_sorted(), e.codim) for e in lat.elements}
        assert got == {
            ((), 0),
            (("a",), 2),
            (("b",), 1),
            (("c",), 1),
            (("b", "c"), 2),
            (("a", "b", "c"), 3),
        }

    def test_edgeless(self):
        lat = build_lattice(edgeless(3))
        assert len(lat) == 1

    def test_atoms_and_join_closure(self, ex28_2):
        lat = build_lattice(ex28_2)
        for i in range(len(lat)):
            for j in range(len(lat)):
                jn = lat.join(i, j)
                assert lat.leq(i, jn) and lat.leq(j, jn)
                expected = lat.hypergraph.closure(
                    lat.elements[i].closed_colors | lat.elements[j].closed_colors
                )
                assert lat.elements[jn].closed_colors == expected

    @settings(max_examples=30, deadline=None)
    @given(h=hypergraphs())
    def test_every_element_join_of_atoms(self, h):
        lat = build_lattice(h)
        for i, e in enumerate(lat.elements):
            if i == 0:
                continue
            acc = 0
            for a in lat.atom_indices:
                if lat.leq(a, i):
                    acc = lat.join(acc, a)
            assert acc == i

    def test_element_count_independent_of_color_order(self, ex28_2, smalldude):
        for h in (ex28_2, smalldude):
            base = build_lattice(h)
            reordered = build_lattice(h.with_color_order(tuple(reversed(h.colors))))
            assert len(base) == len(reordered)
            assert {e.partition for e in base.elements} == {
                e.partition for e in reordered.elements
            }

    def test_join_commutative_associative(self, smalldude):
        lat = build_lattice(smalldude)
        n = len(lat)
        for i in range(n):
            for j in range(n):
                assert lat.join(i, j) == lat.join(j, i)
                for k in range(n):
                    assert lat.join(lat.join(i, j), k) == lat.join(i, lat.join(j, k))


class TestMobius:
    def test_ex28(self, ex28):
        lat = build_lattice(ex28)
        mu = lat.mobius()
        by = {lat.elements[i].colors_sorted(): v for i, v in mu.items()}
        assert by == {(): 1, ("R",): -1, ("B",): -1, ("B", "R"): 1}

    def test_single_atom(self):
        h = EdgeColoredHypergraph.from_edge_list(3, [({1, 2}, "x")])
        mu = build_lattice(h).mobius()
        assert sorted(mu.values()) == [-1, 1]

    def test_smalldude_top(self, smalldude):
        lat = build_lattice(smalldude)
        mu = lat.mobius()
        by = {lat.elements[i].colors_sorted(): v for i, v in mu.items()}
        assert by[("b", "c")] == 1
        assert by[("a", "b", "c")] == 1

    @settings(max_examples=30, deadline=None)
    @given(h=hypergraphs())
    def test_mobius_alternating_sum_vanishes(self, h):
        lat = build_lattice(h)
        if len(lat) >= 2:
            assert sum(lat.mobius().values()) == 0


class TestCharacteristicPolynomial:
    def test_ex28(self, ex28):
        poly = build_lattice(ex28).characteristic_polynomial()
        assert poly == IntPolynomial([0, 1, -1, -1, 1])

    def test_edgeless(self):
        assert build_lattice(edgeless(4)).characteristic_polynomial() == IntPolynomial.monomial(4)

    def test_braid3(self):
        poly = build_lattice(build_kequal(3, 2)).characteristic_polynomial()
        assert poly == IntPolynomial([0, 2, -3, 1])

    @settings(max_examples=30, deadline=None)
    @given(h=hypergraphs())
    def test_monic_with_atom_second_coefficient(self, h):
        lat = build_lattice(h)
        poly = lat.characteristic_polynomial()
        n = h.vertex_count
        assert poly.degree == n
        assert poly.coeffs[n] == 1
        codim1_atoms = sum(1 for a in lat.atom_indices if lat.elements[a].codim == 1)
        second = poly.coeffs[n - 1] if n >= 1 else 0
        assert second == -codim1_atoms


class TestCoversAndGeometric:
    def test_smalldude_cover_examples(self, smalldude):
        lat = build_lattice(smalldude)
        bc = index_of(lat, ["b", "c"])
        b = index_of(lat, ["b"])
        top = index_of(lat, ["a", "b", "c"])
        assert lat.covers(bc, b)
        assert not lat.covers(top, b)
        for a in lat.atom_indices:
            assert lat.covers(a, 0)

    def test_relations_match_definitions(self, full_corpus):
        # covers and Mobius values against their definitions, element by element
        for name, h in full_corpus.items():
            lat = build_lattice(h)
            n = len(lat)
            mu = lat.mobius()
            for upper in range(n):
                if upper:
                    assert mu[upper] == -sum(mu[j] for j in range(n) if j != upper and lat.leq(j, upper))
                for lower in range(n):
                    expected = (
                        lower != upper
                        and lat.leq(lower, upper)
                        and not any(
                            k not in (lower, upper) and lat.leq(lower, k) and lat.leq(k, upper)
                            for k in range(n)
                        )
                    )
                    assert lat.covers(upper, lower) == expected, (name, lower, upper)
            expected_pairs = [(i, j) for i in range(n) for j in range(n) if lat.covers(j, i)]
            assert lat.cover_pairs() == expected_pairs, name

    def test_smalldude_not_geometric(self, smalldude):
        assert not is_geometric(smalldude)
        witness = build_lattice(smalldude).semimodularity_witness()
        assert witness is not None
        assert not (witness["join_covers_x"] and witness["join_covers_y"])

    def test_graphs_distinct_colors_geometric(self):
        assert is_geometric(build_kequal(3, 2))
        assert is_geometric(build_kequal(4, 2))

    def test_line_arrangement_geometric(self):
        assert is_geometric(build_kequal(4, 3))


class TestHasseDot:
    def test_ex28_counts(self, ex28):
        dot = build_lattice(ex28).hasse_dot()
        assert dot.count("label=") == 4
        assert dot.count("->") == 4

    def test_edgeless(self):
        dot = build_lattice(edgeless(2)).hasse_dot()
        assert dot.count("label=") == 1
        assert "->" not in dot

    def test_smalldude_edges(self, smalldude):
        lat = build_lattice(smalldude)
        dot = lat.hasse_dot()
        assert dot.count("->") == 7

    def test_deterministic(self, ex28_2):
        a = build_lattice(ex28_2).hasse_dot()
        b = build_lattice(ex28_2).hasse_dot()
        assert a == b


class TestInputGuards:
    def test_invalid_rejected(self):
        from echarr import InputError

        h = EdgeColoredHypergraph(2, (frozenset({1}),), ("a",))
        with pytest.raises(InputError):
            build_lattice(h)
