import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarr import (
    EnumerationBudget,
    IntPolynomial,
    ResourceLimitError,
    build_kequal,
    build_lattice,
    chromatic_polynomial,
    chromatic_polynomial_by_counting,
    count_proper_colorings,
    integer_point_count,
)
from echarr.corpus import edgeless, random_hypergraph
from helpers import is_proper


def hypergraphs(max_vertices=5, max_colors=3):
    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda seed: random_hypergraph(random.Random(seed), max_vertices, max_colors)
    )


def reference_colorings(h, t):
    """Proper colorings with t colors, by is_proper on one coloring at a time.

    Renaming the t colors permutes the proper colorings, so they are t times
    those that give vertex 1 the color 0.
    """
    if t == 0:
        return 0
    rest = itertools.product(range(t), repeat=h.vertex_count - 1)
    return t * sum(1 for c in rest if is_proper(h, (0,) + c))


def reference_cube_points(h, s):
    """Points of {-s..s}^n off the arrangement, one point at a time: a point
    lies on a color's subspace when it is constant along every component of
    that color's edges."""
    subspaces = [h.components([c]) for c in h.colors]

    def on(point, components):
        return all(len({point[v - 1] for v in comp}) == 1 for comp in components)

    return sum(
        1
        for point in itertools.product(range(-s, s + 1), repeat=h.vertex_count)
        if not any(on(point, components) for components in subspaces)
    )


def assert_matches_enumeration(h, label=None):
    for t in range(h.vertex_count + 2):
        assert count_proper_colorings(h, t) == reference_colorings(h, t), (label, t)
    for s in (1, 2):
        assert integer_point_count(h, s) == reference_cube_points(h, s), (label, s)


class TestIsProper:
    def test_ex28_improper(self, ex28):
        assert not is_proper(ex28, (1, 1, 2, 2))

    def test_ex28_proper(self, ex28):
        assert is_proper(ex28, (1, 2, 1, 2))

    def test_edgeless_vacuous(self):
        assert is_proper(edgeless(3), (1, 1, 1))


class TestCounting:
    def test_ex28_three_colors(self, ex28):
        assert count_proper_colorings(ex28, 3) == 48

    def test_one_color_improper(self, ex28):
        assert count_proper_colorings(ex28, 1) == 0

    def test_edgeless(self):
        assert count_proper_colorings(edgeless(2), 5) == 25

    def test_budget(self, ex28):
        # ex28 has Bell(4) = 15 vertex partitions; the cap counts those, not
        # the 10^4 colorings with 10 colors
        for count in (
            lambda b: count_proper_colorings(ex28, 10, b),
            lambda b: integer_point_count(ex28, 2, b),
            lambda b: chromatic_polynomial_by_counting(ex28, b),
        ):
            with pytest.raises(ResourceLimitError) as err:
                count(EnumerationBudget(max_partitions=14))
            assert err.value.limit == 14
        for cap in (15, 100):
            budget = EnumerationBudget(max_partitions=cap)
            assert count_proper_colorings(ex28, 10, budget) == chromatic_polynomial(ex28)(10)

    def test_matches_bruteforce_python(self, ex28_2):
        t = 3
        expected = sum(
            1
            for c in itertools.product(range(t), repeat=ex28_2.vertex_count)
            if is_proper(ex28_2, c)
        )
        assert count_proper_colorings(ex28_2, t) == expected


class TestAgainstEnumeration:
    """The partition sum against the colorings and points it stands for."""

    def test_corpus(self, full_corpus):
        for name, h in full_corpus.items():
            assert_matches_enumeration(h, name)

    @settings(max_examples=25, deadline=None)
    @given(h=hypergraphs(max_vertices=6, max_colors=4))
    def test_random(self, h):
        assert_matches_enumeration(h)


class TestIntegerPoints:
    def test_ex28_s1(self, ex28):
        assert integer_point_count(ex28, 1) == 48

    def test_edgeless(self):
        assert integer_point_count(edgeless(2), 2) == 25

    def test_braid3_distinct_triples(self):
        assert integer_point_count(build_kequal(3, 2), 1) == 6

    @settings(max_examples=25, deadline=None)
    @given(h=hypergraphs(max_vertices=4))
    def test_equals_polynomial_at_odd_arguments(self, h):
        poly = chromatic_polynomial(h)
        for s in (0, 1, 2):
            assert integer_point_count(h, s) == poly(2 * s + 1)


class TestDeletionContraction:
    def test_ex28(self, ex28):
        assert chromatic_polynomial(ex28) == IntPolynomial([0, 1, -1, -1, 1])

    def test_edgeless(self):
        assert chromatic_polynomial(edgeless(3)) == IntPolynomial.monomial(3)

    def test_braid3(self):
        assert chromatic_polynomial(build_kequal(3, 2)) == IntPolynomial([0, 2, -3, 1])

    def test_pivot_independence(self, ex28_2, smalldude):
        for h in (ex28_2, smalldude):
            default = chromatic_polynomial(h)
            def last_color(g):
                return g.colors[-1]
            assert chromatic_polynomial(h, choose_pivot=last_color) == default

    @settings(max_examples=25, deadline=None)
    @given(h=hypergraphs(max_vertices=4))
    def test_pivot_independence_random(self, h):
        if not h.colors:
            return
        def reversed_order(g):
            return min(g.colors, key=lambda c: (len(g.edges_of(c)), c), default=None) or g.colors[0]
        def first_color(g):
            return g.colors[0]
        assert chromatic_polynomial(h, first_color) == chromatic_polynomial(h, reversed_order)


class TestThreeWayAgreement:
    def test_counting_ex28(self, ex28):
        assert chromatic_polynomial_by_counting(ex28) == IntPolynomial([0, 1, -1, -1, 1])

    def test_contraction_killing_another_color(self):
        # contracting either color collapses the other's only edge, which
        # makes that color unsatisfiable; the recursion must count it as zero
        from echarr.hypergraph import EdgeColoredHypergraph

        h = EdgeColoredHypergraph.from_edge_list(
            3, [({1, 2, 3}, "c1"), ({1, 2, 3}, "c2")]
        )
        assert chromatic_polynomial(h) == IntPolynomial([0, -1, 0, 1])
        assert chromatic_polynomial(h) == build_lattice(h).characteristic_polynomial()

    @settings(max_examples=20, deadline=None)
    @given(h=hypergraphs(max_vertices=5))
    def test_all_methods_agree(self, h):
        dc = chromatic_polynomial(h)
        counted = chromatic_polynomial_by_counting(h)
        mobius = build_lattice(h).characteristic_polynomial()
        assert dc == counted == mobius
        for t in range(h.vertex_count + 2):
            assert dc(t) == count_proper_colorings(h, t)
