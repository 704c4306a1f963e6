import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarr import InputError, ResourceLimitError, build_kequal
from echarr.atomic_complex import AtomicComplex, ComplexConfig
from echarr.corpus import edgeless, ex28, ex28_2, mcs7, random_hypergraph, single_color, smalldude
from helpers import degree_of, differential_of, product_of, rank_of_rows


@pytest.fixture(scope="module")
def cx28():
    return AtomicComplex(ex28())


@pytest.fixture(scope="module")
def cx28_2():
    return AtomicComplex(ex28_2(), order=("R", "B", "G"))


class TestDegrees:
    def test_ex28(self, cx28):
        assert degree_of(cx28, []) == 0
        assert degree_of(cx28, ["B"]) == 1
        assert degree_of(cx28, ["R"]) == 3
        assert degree_of(cx28, ["R", "B"]) == 4

    def test_parity_matches_subset_size(self, cx28_2):
        for mask in range(1 << cx28_2.n):
            assert (cx28_2.degree[mask] - bin(mask).count("1")) % 2 == 0

    def test_negative_degrees_allowed(self):
        # many colors over one join push subset degrees below zero
        cx = AtomicComplex(build_kequal(5, 3))
        assert min(cx.degree) < 0

    def test_single_color(self):
        for c in (2, 3):
            cx = AtomicComplex(single_color(c))
            assert degree_of(cx, ["A"]) == 2 * c - 1

    def test_kequal_atom_degrees(self):
        h = build_kequal(5, 3)
        cx = AtomicComplex(h)
        assert {degree_of(cx, [c]) for c in h.colors} == {3}

    def test_color_cap(self):
        with pytest.raises(ResourceLimitError):
            AtomicComplex(build_kequal(5, 3), config=ComplexConfig(max_colors=5))


class TestDifferential:
    def test_ex28_2_full_set(self, cx28_2):
        assert differential_of(cx28_2, ["R", "B", "G"]) == [(1, ("R", "G"))]

    def test_order_sensitivity(self):
        cx = AtomicComplex(ex28_2())  # lexicographic: B, G, R
        assert differential_of(cx, ["R", "B", "G"]) == [(-1, ("G", "R"))]

    def test_ex28_pair_vanishes(self, cx28):
        assert differential_of(cx28, ["R", "B"]) == []

    def test_singletons_vanish(self, cx28_2):
        for c in ("R", "B", "G"):
            assert differential_of(cx28_2, [c]) == []

    def test_d_squared_zero_everywhere(self, cx28, cx28_2):
        for cx in (cx28, cx28_2, AtomicComplex(smalldude()), AtomicComplex(mcs7())):
            for mask in range(1 << cx.n):
                assert cx.d_chain(cx.d_chain({mask: Fraction(1)})) == {}


class TestProduct:
    def test_multiplicative_pair(self, cx28_2):
        assert product_of(cx28_2, ["R"], ["G"]) == (1, ("R", "G"))

    def test_non_multiplicative(self, cx28_2):
        assert product_of(cx28_2, ["R"], ["B"]) is None

    def test_unit(self, cx28_2):
        for colors in ([], ["R"], ["R", "G"]):
            assert product_of(cx28_2, [], colors) == (1, tuple(colors))

    def test_overlap_is_zero(self, cx28_2):
        assert product_of(cx28_2, ["R"], ["R"]) is None
        assert product_of(cx28_2, ["R", "G"], ["G"]) is None

    def test_graded_commutativity(self):
        for h in (ex28(), ex28_2(), smalldude(), mcs7()):
            cx = AtomicComplex(h)
            for m1 in range(1 << cx.n):
                for m2 in range(1 << cx.n):
                    p12 = cx.product_masks(m1, m2)
                    p21 = cx.product_masks(m2, m1)
                    if p12 is None:
                        assert p21 is None
                        continue
                    koszul = (-1) ** (cx.degree[m1] * cx.degree[m2])
                    assert p21 == (koszul * p12[0], p12[1])

    def test_leibniz(self):
        for h in (ex28(), ex28_2(), smalldude()):
            cx = AtomicComplex(h)
            for m1 in range(1 << cx.n):
                for m2 in range(1 << cx.n):
                    x = {m1: Fraction(1)}
                    y = {m2: Fraction(1)}
                    lhs = cx.d_chain(cx.multiply_chains(x, y))
                    rhs = cx.multiply_chains(cx.d_chain(x), y)
                    sign = Fraction((-1) ** cx.degree[m1])
                    for m, c in cx.multiply_chains(x, cx.d_chain(y)).items():
                        v = rhs.get(m, Fraction(0)) + sign * c
                        if v:
                            rhs[m] = v
                        else:
                            rhs.pop(m, None)
                    assert lhs == rhs

    def test_associativity(self):
        for h in (ex28_2(), smalldude()):
            cx = AtomicComplex(h)
            size = 1 << cx.n
            for m1 in range(size):
                for m2 in range(size):
                    p12 = cx.product_masks(m1, m2)
                    for m3 in range(size):
                        p23 = cx.product_masks(m2, m3)
                        if p12 is None and p23 is None:
                            continue
                        left = (
                            None
                            if p12 is None
                            else _scaled(cx.product_masks(p12[1], m3), p12[0])
                        )
                        right = (
                            None
                            if p23 is None
                            else _scaled(cx.product_masks(m1, p23[1]), p23[0])
                        )
                        assert left == right


def _scaled(p, sign):
    if p is None:
        return None
    return sign * p[0], p[1]


class TestCohomology:
    def test_ex28_betti(self, cx28):
        res = cx28.cohomology(max_degree=4)
        assert [res.betti.get(d, 0) for d in range(5)] == [1, 1, 0, 1, 1]

    def test_single_codim2_sphere(self):
        res = AtomicComplex(single_color(2)).cohomology(max_degree=8)
        assert {d: b for d, b in res.betti.items() if b} == {0: 1, 3: 1}

    def test_single_codim3_sphere(self):
        res = AtomicComplex(single_color(3)).cohomology(max_degree=8)
        assert {d: b for d, b in res.betti.items() if b} == {0: 1, 5: 1}

    def test_representatives_are_reduced_cocycles(self, cx28_2):
        res = cx28_2.cohomology(max_degree=10)
        for d, reps in res.representatives.items():
            for rep in reps:
                assert cx28_2.is_cocycle(rep)
                assert not cx28_2.is_coboundary(rep)

    def test_euler_characteristic_matches_dims(self, cx28_2):
        res = cx28_2.cohomology(max_degree=12)
        from_dims = sum((-1) ** d * n for d, n in res.chain_dims.items())
        assert res.euler_characteristic() == from_dims

    def test_betti_order_invariant(self):
        for h in (ex28_2(), smalldude(), mcs7()):
            base = AtomicComplex(h).cohomology(max_degree=12).betti
            order = list(h.colors)
            random.Random(7).shuffle(order)
            shuffled = AtomicComplex(h, order=order).cohomology(max_degree=12).betti
            assert base == shuffled

    def test_edgeless_trivial(self):
        res = AtomicComplex(edgeless(3)).cohomology(max_degree=4)
        assert {d: b for d, b in res.betti.items() if b} == {0: 1}

    def test_braid_betti_match_classical_factorization(self):
        # complement of the braid arrangement on n strands has Poincare
        # polynomial prod_{k<n} (1 + k t)
        for n in (3, 4):
            betti = AtomicComplex(build_kequal(n, 2)).cohomology(max_degree=6).betti
            coeffs = [1]
            for k in range(1, n):
                coeffs = [a + k * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            assert {d: b for d, b in betti.items() if b} == {
                d: c for d, c in enumerate(coeffs) if c
            }

    def test_kequal_5_3_betti(self):
        # independent oracle: one class per atom in degree 3; three per
        # one-four-vertex-block element in degree 4 (its lower interval is
        # four isolated atoms); six for the top (circle-wedge interval),
        # matching the Mobius value computed by the lattice module
        betti = AtomicComplex(build_kequal(5, 3)).cohomology(max_degree=8).betti
        assert {d: b for d, b in betti.items() if b} == {0: 1, 3: 10, 4: 15, 5: 6}


def _check_against_ranks(cx):
    """Betti numbers are dim C^d - rank d^d - rank d^(d-1), with every rank
    taken from scratch; the coboundaries span the image of d, and the cocycles
    are closed, independent and as many as they should be."""
    rank = {
        d: rank_of_rows([cx.d_chain({m: Fraction(1)}) for m in basis])
        for d, basis in cx.basis_by_degree.items()
    }
    betti = cx.cohomology(max_degree=max(cx.basis_by_degree)).betti
    for d, b in betti.items():
        dim = len(cx.basis_by_degree.get(d, []))
        assert b == dim - rank.get(d, 0) - rank.get(d - 1, 0), d
    for d, basis in cx.basis_by_degree.items():
        image = cx.coboundaries(d + 1)
        assert image.rank == rank[d]
        assert all(image.contains(cx.d_chain({m: Fraction(1)})) for m in basis)
        cocycles = cx.cocycles(d)
        assert len(cocycles) == len(basis) - rank[d]
        assert rank_of_rows(cocycles) == len(cocycles)
        assert all(cx.is_cocycle(z) and set(z) <= set(basis) for z in cocycles)


class TestElimination:
    def test_corpus(self, full_corpus):
        for h in full_corpus.values():
            _check_against_ranks(AtomicComplex(h))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_random(self, seed):
        _check_against_ranks(AtomicComplex(random_hypergraph(random.Random(seed), 5, 4)))


class TestSolve:
    def test_solve_differential(self):
        cx = AtomicComplex(mcs7())
        target = {cx.mask_of(["L1", "L2"]): Fraction(-1)}
        x = cx.solve_d(target, degree_of(cx, ["L1", "L2"]) - 1)
        assert x is not None
        assert cx.d_chain(x) == target

    def test_unsolvable(self):
        cx = AtomicComplex(ex28())
        target = {cx.mask_of(["B"]): Fraction(1)}
        assert cx.solve_d(target, 0) is None


class TestGuards:
    def test_bad_order(self):
        with pytest.raises(InputError):
            AtomicComplex(ex28(), order=("R",))

    def test_invalid_hypergraph(self):
        from echarr.hypergraph import EdgeColoredHypergraph

        with pytest.raises(InputError):
            AtomicComplex(EdgeColoredHypergraph(2, (frozenset({1}),), ("a",)))
