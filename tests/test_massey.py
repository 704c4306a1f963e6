from fractions import Fraction

import pytest

from echarr.atomic_complex import AtomicComplex
from echarr.bicomplex import word_dMu, word_dW
from echarr.corpus import disjoint_pair, ex28_2, mcs7
from echarr.errors import InputError
from echarr.hypergraph import build_kequal
from echarr.linalg import Echelon, kernel_of_rows, vec_axpy
from echarr.massey import (
    MasseyColorSystem,
    _class_dies_on_page_two,
    find_massey_color_systems,
    indeterminacy_span,
    kequal_no_massey,
    kequal_top_degree,
    massey_d2_class,
    massey_triple_product,
    nonformality_report,
    ordered_complex,
)


@pytest.fixture(scope="module")
def mcs7_setup():
    h = mcs7()
    system = MasseyColorSystem(("L1", "L2", "L3"), ("L4", "L5"), True)
    return h, system, ordered_complex(h, system)


def _with_extra_colors(h, extra_edges):
    edges = list(zip(map(sorted, h.edges), h.edge_colors))
    edges += [(e, f"X{i}") for i, e in enumerate(extra_edges)]
    return type(h).from_edge_list(h.vertex_count, edges)


# mcs7 plus fixed extra colors: 1, 8 and 10 Massey systems
MCS7_FAMILY = [[], [[1, 2]], [[1, 2], [1, 7]]]


def _fresh_coboundaries(cx, degree):
    span = Echelon()
    for m in cx.basis_by_degree.get(degree - 1, []):
        span.add(cx.d_chain({m: Fraction(1)}))
    return span


def _dies_on_page_two_reference(cx, z, degree):
    """One span holding the coboundaries and the merged two-letter cycles."""
    span = _fresh_coboundaries(cx, degree)
    letters = [m for m in range(1 << cx.n) if cx.degree[m] >= 1]
    pairs = [(m1, m2) for m1 in letters for m2 in letters if cx.degree[m1] + cx.degree[m2] == degree]
    relations = Echelon()
    for m1 in letters:
        for m2 in letters:
            if m2 >= m1 and cx.degree[m1] + cx.degree[m2] == degree + 1:
                koszul = (cx.degree[m1] - 1) * (cx.degree[m2] - 1)
                rel = {(m1, m2): Fraction(1)}
                vec_axpy(rel, {(m2, m1): Fraction(1)}, Fraction((-1) ** koszul))
                relations.add(rel)
    rows = [relations.reduce(word_dW(cx, {pair: 1})) for pair in pairs]
    for combo in kernel_of_rows(rows):
        merged = word_dMu(cx, {pairs[i]: c for i, c in combo.items()})
        span.add({word[0]: c for word, c in merged.items()})
    return span.contains(z)


class TestFindSystems:
    def test_mcs7_found(self):
        systems = find_massey_color_systems(mcs7())
        assert (
            MasseyColorSystem(("L1", "L2", "L3"), ("L4", "L5"), True) in systems
        )
        assert all(s.nocolors_hypothesis for s in systems)

    def test_three_colors_insufficient(self):
        assert find_massey_color_systems(ex28_2()) == []

    def test_braid_has_none(self):
        assert find_massey_color_systems(build_kequal(4, 2)) == []

    def test_scan_matches_bruteforce(self):
        import itertools

        from echarr.corpus import full_corpus
        from echarr.massey import _nocolors_hypothesis, _satisfies_system

        for name, h in list(full_corpus().items()):
            if len(h.colors) > 6:
                continue
            expected = sorted(
                (
                    MasseyColorSystem(
                        (a, b, c), (d, e), _nocolors_hypothesis(h, (a, b, c, d, e))
                    )
                    for a, b, c in itertools.permutations(h.colors, 3)
                    for d, e in itertools.permutations(
                        [x for x in h.colors if x not in (a, b, c)], 2
                    )
                    if _satisfies_system(h, a, b, c, d, e)
                ),
                key=lambda s: s.colors,
            )
            assert find_massey_color_systems(h) == expected, name

    def test_three_edge_paths_in_larger_kequal(self):
        # 6 vertices cannot host the codim-6 triple join, 7 can
        assert find_massey_color_systems(build_kequal(6, 3)) == []
        systems = find_massey_color_systems(build_kequal(7, 3))
        assert systems
        assert all(not s.nocolors_hypothesis for s in systems)

    def test_extra_refining_color_breaks_nocolors(self):
        systems = find_massey_color_systems(_with_extra_colors(mcs7(), [[1, 2]]))
        entry = next(s for s in systems if s.triple == ("L1", "L2", "L3"))
        assert entry.nocolors_hypothesis is False


class TestD2Class:
    def test_certificate(self, mcs7_setup):
        _, system, cx = mcs7_setup
        cert = massey_d2_class(cx, system)
        assert cert.degree == 8
        assert cert.closed and cert.nonzero_class
        assert cert.d1_vanishes and cert.zigzag_matches
        support = {cx.colors_of(m): c for m, c in cert.cocycle.items()}
        assert support == {
            ("L1", "L2", "L3", "L4"): Fraction(-1),
            ("L1", "L2", "L3", "L5"): Fraction(1),
        }

    def test_summand_degrees(self, mcs7_setup):
        _, _, cx = mcs7_setup
        # each summand: codim 6, four colors, degree 2*6-4 = 8; the word
        # a1|a2|a3 sits in column -2 with total degree 7, hitting degree 8
        for colors in (("L1", "L2", "L3", "L4"), ("L1", "L2", "L3", "L5")):
            assert cx.hypergraph.codim(colors) == 6
            assert cx.degree_of(colors) == 8
        assert sum(cx.degree_of([c]) for c in ("L1", "L2", "L3")) - 2 == 7

    def test_class_is_decomposable_hence_zero_on_page_two(self, mcs7_setup):
        _, system, cx = mcs7_setup
        cert = massey_d2_class(cx, system)
        assert cert.zero_on_e2
        # explicitly: the class equals a product of two lower classes
        p = cx.product_masks(cx.mask_of(["L1", "L4"]), cx.mask_of(["L3", "L5"]))
        assert p is not None

    @pytest.mark.parametrize("extra", MCS7_FAMILY, ids=["mcs7", "plus_one", "plus_two"])
    def test_zero_on_page_two_matches_single_span_route(self, extra):
        h = _with_extra_colors(mcs7(), extra)
        seen = set()
        for system in find_massey_color_systems(h):
            cx = ordered_complex(h, system)
            cert = massey_d2_class(cx, system)
            assert cert.zero_on_e2 == _dies_on_page_two_reference(cx, cert.cocycle, cert.degree)
            seen.add(cert.zero_on_e2)
            # a single letter is indecomposable, so both answers are reached
            letter = cx.mask_of(system.triple[:1])
            z, degree = {letter: Fraction(1)}, cx.degree[letter]
            value = _class_dies_on_page_two(cx, z, degree)
            assert value == _dies_on_page_two_reference(cx, z, degree)
            seen.add(value)
        assert seen == {True, False}

    def test_rejects_wrong_order(self, mcs7_setup):
        h, system, _ = mcs7_setup
        bad = AtomicComplex(h, order=("L5", "L4", "L3", "L2", "L1"))
        with pytest.raises(InputError):
            massey_d2_class(bad, system)

    def test_rejects_non_system(self, mcs7_setup):
        _, _, cx = mcs7_setup
        fake = MasseyColorSystem(("L1", "L3", "L2"), ("L4", "L5"), True)
        with pytest.raises(InputError):
            massey_d2_class(cx, fake)


class TestTripleProduct:
    def test_matches_d2_class(self, mcs7_setup):
        _, system, cx = mcs7_setup
        one = Fraction(1)
        u, v, w = ({cx.mask_of([c]): one} for c in system.triple)
        result = massey_triple_product(cx, u, v, w)
        assert result.defined
        cert = massey_d2_class(cx, system)
        assert result.representative == cert.cocycle

    def test_undefined_when_product_survives(self, mcs7_setup):
        _, _, cx = mcs7_setup
        one = Fraction(1)
        u = {cx.mask_of(["L1"]): one}
        v = {cx.mask_of(["L3"]): one}
        w = {cx.mask_of(["L5"]): one}
        assert not massey_triple_product(cx, u, v, w).defined

    def test_zero_when_everything_vanishes(self, mcs7_setup):
        _, _, cx = mcs7_setup
        one = Fraction(1)
        u = {cx.mask_of(["L1"]): one}
        v = {cx.mask_of(["L4"]): one}
        w = {cx.mask_of(["L2"]): one}
        result = massey_triple_product(cx, u, v, w)
        assert result.defined
        assert result.representative == {}

    def test_bounding_choice_invariance(self):
        # mcs7 alone admits one bounding choice only; the extra colors add
        # cocycles in the bounding degrees
        one = Fraction(1)
        changed = 0
        for extra in MCS7_FAMILY:
            h = _with_extra_colors(mcs7(), extra)
            for system in find_massey_color_systems(h):
                cx = ordered_complex(h, system)
                u, v, w = ({cx.mask_of([c]): one} for c in system.triple)
                du, dv, dw = (cx.chain_degree(c) for c in (u, v, w))
                first = massey_triple_product(cx, u, v, w)
                assert first.defined
                x, y = first.bounding_first, first.bounding_second
                span = indeterminacy_span(cx, u, w, du + dv + dw - 1)
                sign = Fraction((-1) ** du)
                # every other bounding choice differs from x or y by a cocycle
                for bounding, degree in ((x, du + dv - 1), (y, dv + dw - 1)):
                    for cocycle in cx.cocycles(degree):
                        other = dict(bounding)
                        vec_axpy(other, cocycle, one)
                        assert cx.d_chain(other) == cx.d_chain(bounding)
                        x2, y2 = (other, y) if bounding is x else (x, other)
                        diff = dict(first.representative)
                        vec_axpy(diff, cx.multiply_chains(u, y2), -one)
                        vec_axpy(diff, cx.multiply_chains(x2, w), sign)
                        assert span.contains(diff)
                        changed += bool(diff)
        assert changed

    def test_rejects_non_cocycles(self, mcs7_setup):
        _, _, cx = mcs7_setup
        one = Fraction(1)
        not_closed = {cx.mask_of(["L1", "L2", "L4"]): one}
        with pytest.raises(InputError):
            massey_triple_product(cx, not_closed, not_closed, not_closed)


class TestSharedElimination:
    @pytest.mark.parametrize("extra", MCS7_FAMILY, ids=["mcs7", "plus_one", "plus_two"])
    def test_report_pass_leaves_cache_intact(self, extra):
        h = _with_extra_colors(mcs7(), extra)
        for system in find_massey_color_systems(h):
            cx = ordered_complex(h, system)
            cert = massey_d2_class(cx, system)
            u, v, w = ({cx.mask_of([c]): Fraction(1)} for c in system.triple)
            massey_triple_product(cx, u, v, w)
            # the returned span is the caller's own to extend
            indeterminacy_span(cx, u, w, cert.degree).add({cx.mask_of(system.colors): Fraction(1)})
            for degree, basis in cx.basis_by_degree.items():
                fresh = Echelon(track=True)
                for m in basis:
                    fresh.add(cx.d_chain({m: Fraction(1)}), tag=m)
                cached = cx.coboundaries(degree + 1)
                assert (cached.rows, cached.combos) == (fresh.rows, fresh.combos)
                assert cx.cocycles(degree) == fresh.kernel


class TestKEqualBound:
    def test_values(self):
        assert kequal_no_massey(6, 3) is True
        assert kequal_no_massey(7, 3) is False
        assert kequal_no_massey(10, 4) is True

    def test_top_degree(self):
        assert kequal_top_degree(6, 3) == 7
        assert kequal_top_degree(5, 3) == 5

    def test_range_guard(self):
        with pytest.raises(InputError):
            kequal_no_massey(3, 1)


class TestReport:
    def test_mcs7_nonformal(self):
        report = nonformality_report(mcs7())
        assert report["nonformal"] is True
        entry = report["systems"][0]
        assert entry["nocolors_hypothesis"] is True
        assert entry["nonzero_in_cohomology"] is True
        assert entry["triple_product_matches_mod_ideal"] is True
        assert entry["massey_product_nontrivial"] is True

    def test_braid_stays_formal_flagged(self):
        assert nonformality_report(build_kequal(4, 2))["nonformal"] is False

    def test_no_systems_for_disjoint_pair(self):
        report = nonformality_report(disjoint_pair())
        assert report == {"systems": [], "nonformal": False}
