import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarr.atomic_complex import AtomicComplex
from echarr.bicomplex import word_dMu, word_dW
from echarr.corpus import disjoint_pair, ex28_2, full_corpus, mcs7, random_hypergraph
from echarr.errors import InputError
from echarr.hypergraph import EdgeColoredHypergraph, build_kequal
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
)
from helpers import degree_of, ordered_complex

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


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


def _pool_hypergraphs(group, count):
    """The first shapes of one group of the `model` benchmark pool."""
    out = {}
    for i, shape in enumerate(workloads.pool("model")[group][:count]):
        edges = [(e, f"c{c}") for e, c in shape.edges]
        out[f"{group}-{i}"] = EdgeColoredHypergraph.from_edge_list(shape.vertices, edges)
    return out


def _permutation_sign(colors, order):
    pos = [order.index(c) for c in colors]
    inversions = sum(1 for i in range(len(pos)) for j in range(i + 1, len(pos)) if pos[i] > pos[j])
    return (-1) ** inversions


def _transport(chain, source, target):
    """Image of a chain of `source` in `target` under g_m -> e(m) g_m, the
    sign of sorting m's colors from the source order into the target's."""
    out = {}
    for m, c in chain.items():
        colors = source.colors_of(m)
        out[target.mask_of(colors)] = c * _permutation_sign(colors, target.order)
    return out


def _fresh_coboundaries(cx, degree):
    span = Echelon()
    for m in cx.basis_by_degree.get(degree - 1, []):
        span.add(cx.d_chain({m: Fraction(1)}))
    return span


def _page_two_reference_span(cx, degree):
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
    return span


def _dies_on_page_two_reference(cx, z, degree):
    return _page_two_reference_span(cx, degree).contains(z)


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
            assert degree_of(cx, colors) == 8
        assert sum(degree_of(cx, [c]) for c in ("L1", "L2", "L3")) - 2 == 7

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

    def test_decomposables_built_once_per_degree(self, monkeypatch):
        h = _with_extra_colors(mcs7(), MCS7_FAMILY[2])
        systems = find_massey_color_systems(h)
        assert len(systems) == 10
        cx = AtomicComplex(h)
        asked = []
        monkeypatch.setattr(cx, "cocycles", lambda degree: asked.append(degree) or AtomicComplex.cocycles(cx, degree))
        spans = {}
        for system in systems:
            asked.clear()
            cert = massey_d2_class(cx, system)
            # only the first certificate of a degree builds its span
            assert bool(asked) == (cert.degree not in spans)
            span = spans.setdefault(cert.degree, cx.decomposables(cert.degree))
            assert cx.decomposables(cert.degree) is span
            cocycles = AtomicComplex.cocycles(cx, cert.degree)
            assert len(cocycles) > 1
            reference = _page_two_reference_span(cx, cert.degree)
            for z in cocycles:
                assert _class_dies_on_page_two(cx, z, cert.degree) == reference.contains(z)
        assert set(cx._decomposables) == set(spans)

    def test_report_builds_one_complex(self, monkeypatch):
        h = _with_extra_colors(mcs7(), MCS7_FAMILY[2])
        built = []
        init = AtomicComplex.__init__
        monkeypatch.setattr(AtomicComplex, "__init__", lambda cx, *a, **k: built.append(1) or init(cx, *a, **k))
        assert len(nonformality_report(h)["systems"]) == 10
        assert len(built) == 1

    def test_rejects_non_system(self, mcs7_setup):
        _, _, cx = mcs7_setup
        fake = MasseyColorSystem(("L1", "L3", "L2"), ("L4", "L5"), True)
        with pytest.raises(InputError):
            massey_d2_class(cx, fake)


class TestOrderIndependence:
    """A certificate does not depend on the order of the complex's colors."""

    CASES = {
        **{f"mcs7+{len(extra)}": _with_extra_colors(mcs7(), extra) for extra in MCS7_FAMILY},
        **_pool_hypergraphs("chain+2", 2),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_canonical_matches_system_order(self, name):
        h = self.CASES[name]
        cx = AtomicComplex(h)
        systems = find_massey_color_systems(h)
        assert any(list(s.colors) != sorted(s.colors, key=cx.order.index) for s in systems)
        flags = ("degree", "closed", "nonzero_class", "d1_vanishes", "zigzag_matches", "zero_on_e2")
        for system in systems:
            ocx = ordered_complex(h, system)
            ours, theirs = massey_d2_class(cx, system), massey_d2_class(ocx, system)
            assert ours.cocycle == _transport(theirs.cocycle, ocx, cx)
            assert [getattr(ours, f) for f in flags] == [getattr(theirs, f) for f in flags]


class TestPageTwoDifferential:
    """The decomposable route against the two-letter-cycle reference."""

    @staticmethod
    def _compare(cx):
        """Both routes on every basis cocycle, on the sums of neighbouring
        ones and on the sum of all, at every degree; returns the answers."""
        answers = set()
        for degree in cx.basis_by_degree:
            cocycles = cx.cocycles(degree)
            if not cocycles:
                continue
            sums = []
            total: dict = {}
            for z1, z2 in zip(cocycles, cocycles[1:]):
                pair = dict(z1)
                vec_axpy(pair, z2, 1)
                sums.append(pair)
            for z in cocycles:
                vec_axpy(total, z, 1)
            reference = _page_two_reference_span(cx, degree)
            for z in [*cocycles, *sums, total]:
                answer = _class_dies_on_page_two(cx, z, degree)
                assert answer == reference.contains(z), (degree, z)
                answers.add(answer)
        return answers

    def test_corpus_and_model_pool(self):
        cases = {name: h for name, h in full_corpus().items() if len(h.colors) <= 7}
        for group in ("mcs7", "chain+1", "chain+2"):
            cases.update(_pool_hypergraphs(group, 3))
        answers = set()
        for h in cases.values():
            answers |= self._compare(AtomicComplex(h))
        assert answers == {True, False}

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_random_hypergraphs(self, seed):
        self._compare(AtomicComplex(random_hypergraph(random.Random(seed), 7, 6)))


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
        # every system runs in the one complex, as the report does
        h = _with_extra_colors(mcs7(), extra)
        cx = AtomicComplex(h)
        for system in find_massey_color_systems(h):
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
