"""Spectral pages: sphere oracles, and the persistence pairing against the
explicit subquotient route it replaced.

The reference realises every space of the weight-filtration spectral sequence
as a span inside the truncated total complex.  With F_n the words of weight at
most n in total degree m,

    Z_r(n)  = {x in F_n : D x in F_{n-r}}
    E_r(n)  = Z_r(n) / (Z_{r-1}(n-1) + D Z_{r-1}(n+r-1)),

and d_r is D on representatives, read in the target's E_r coordinates.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarr.atomic_complex import AtomicComplex
from echarr.bicomplex import BicomplexConfig, WordBicomplex
from echarr.corpus import disjoint_pair, ex28, full_corpus, mcs7, single_color
from echarr.errors import InputError, ResourceLimitError
from echarr.hypergraph import EdgeColoredHypergraph
from echarr.linalg import Echelon, Vec, kernel_of_rows, vec_axpy
from echarr.spectral import SpectralPages, homotopy_ranks
from helpers import rank_of_rows

BlockKey = tuple[int, int]  # (weight n, internal degree q)

# (total degree, weight) caps of the corpus windows, and their word budget
WINDOW_CAPS = [(5, 4), (6, 3), (4, 6), (6, 2)]
WINDOW_WORDS = 20_000


class ReferencePages:
    """Z_r bases, E_r presentations and d_r matrices of a built bicomplex."""

    def __init__(self, bc: WordBicomplex):
        self.bc = bc
        self.report_degree = bc.config.max_total_degree
        self._coords: dict[int, dict[BlockKey, tuple[int, int]]] = {}
        self._z_cache: dict[tuple[int, int, int], list[Vec]] = {}
        self._pres_cache: dict[tuple[int, int, int], tuple[list[Vec], list[Vec]]] = {}

    def coords(self, m: int) -> dict[BlockKey, tuple[int, int]]:
        """Block offsets of the total-degree-m part of the quotient complex."""
        if m not in self._coords:
            layout: dict[BlockKey, tuple[int, int]] = {}
            offset = 0
            for (n, q) in sorted(self.bc.quotients):
                if q - n + 1 != m:
                    continue
                dim = self.bc.quotients[(n, q)].dim
                if dim:
                    layout[(n, q)] = (offset, dim)
                    offset += dim
            self._coords[m] = layout
        return self._coords[m]

    def _locate(self, m: int, index: int) -> tuple[BlockKey, int]:
        for key, (start, dim) in self.coords(m).items():
            if start <= index < start + dim:
                return key, index - start
        raise KeyError(index)

    def apply_D(self, m: int, vec: Vec) -> Vec:
        """Total differential into the degree-(m+1) coordinates."""
        out: Vec = {}
        target = self.coords(m + 1)
        for index, coeff in vec.items():
            (n, q), local = self._locate(m, index)
            for mapped, tkey in ((self.bc.dW[(n, q)][local], (n, q + 1)),
                                 (self.bc.dMu[(n, q)][local], (n - 1, q))):
                if not mapped:
                    continue
                start, _ = target[tkey]
                for j, c in mapped.items():
                    vec_axpy(out, {start + j: c}, coeff)
        return out

    def z_basis(self, r: int, n: int, q: int) -> list[Vec]:
        """Span of {x in weights <= n : D x vanishes on weights > n - r}."""
        key = (r, n, q)
        if key in self._z_cache:
            return self._z_cache[key]
        m = q - n + 1
        layout = self.coords(m)
        variables = [
            (start + i, bkey)
            for bkey, (start, dim) in layout.items()
            if bkey[0] <= n
            for i in range(dim)
        ]
        if r <= 0:
            basis = [{idx: 1} for idx, _ in variables]
            self._z_cache[key] = basis
            return basis
        if m > self.report_degree:
            raise InputError(
                "Z space requested beyond the built window; increase max_total_degree"
            )
        target_layout = self.coords(m + 1)
        constrained = {bkey for bkey in target_layout if n - r < bkey[0] <= n}
        rows = []
        for idx, _ in variables:
            image = self.apply_D(m, {idx: 1})
            restricted: Vec = {}
            for j, c in image.items():
                tkey, _ = self._locate(m + 1, j)
                if tkey in constrained:
                    restricted[j] = c
            rows.append(restricted)
        basis = [
            {variables[i][0]: c for i, c in combo.items()} for combo in kernel_of_rows(rows)
        ]
        self._z_cache[key] = basis
        return basis

    def presentation(self, r: int, n: int, q: int) -> tuple[list[Vec], list[Vec]]:
        """(denominator span, representative lifts) of E_r at the bidegree."""
        key = (r, n, q)
        if key in self._pres_cache:
            return self._pres_cache[key]
        if r == 0:
            dim = self.bc.quotients.get((n, q), None)
            start = self.coords(q - n + 1).get((n, q), (0, 0))[0]
            reps = [{start + i: 1} for i in range(dim.dim if dim else 0)]
            self._pres_cache[key] = ([], reps)
            return self._pres_cache[key]
        m = q - n + 1
        den: list[Vec] = list(self.z_basis(r - 1, n - 1, q - 1))
        for z in self.z_basis(r - 1, n + r - 1, q + r - 2):
            image = self.apply_D(m - 1, z)
            if image:
                den.append(image)
        ech = Echelon()
        for v in den:
            ech.add(v)
        reps = [z for z in self.z_basis(r, n, q) if ech.add(z)]
        self._pres_cache[key] = (den, reps)
        return self._pres_cache[key]

    def rank(self, r: int, n: int, q: int) -> int:
        if (n, q) not in self.coords(q - n + 1):
            return 0
        return len(self.presentation(r, n, q)[1])

    def page_ranks(self, r: int) -> dict[tuple[int, int], int]:
        out = {}
        for (n, q) in sorted(self.bc.quotients):
            if q - n + 1 > self.report_degree or self.bc.quotients[(n, q)].dim == 0:
                continue
            out[(-(n - 1), q)] = self.rank(r, n, q)
        return out

    def d_matrix(self, r: int, n: int, q: int) -> list[Vec]:
        """Rows: images of E_r representatives in target E_r coordinates."""
        if r < 1:
            raise InputError("d_r matrices start at r = 1")
        m = q - n + 1
        if m + 1 > self.report_degree:
            raise InputError(
                "d_r target lies beyond the built window; increase max_total_degree"
            )
        _, reps = self.presentation(r, n, q)
        tn, tq = n - r, q - r + 1
        if tn < 1 or not reps:
            return [{} for _ in reps]
        den_t, reps_t = self.presentation(r, tn, tq)
        solver = Echelon(track=True)
        for i, v in enumerate(den_t):
            solver.add(v, tag=-(i + 1))
        for j, v in enumerate(reps_t):
            solver.add(v, tag=j)
        rows = []
        for x in reps:
            y = self.apply_D(m, x)
            residue, combo = solver.reduce_with_combo(y)
            if residue:
                raise AssertionError(
                    f"d_{r} image leaves Z at bidegree (weight {n}, q {q})"
                )
            rows.append({j: -c for j, c in combo.items() if j >= 0 and c})
        return rows

    def check_dr_squared(self, max_page: int) -> None:
        for r in range(1, max_page + 1):
            for (n, q) in sorted(self.bc.quotients):
                if q - n + 1 > self.report_degree - 2:
                    continue
                first = self.d_matrix(r, n, q)
                tn, tq = n - r, q - r + 1
                if tn < 1 or (tn, tq) not in self.bc.quotients:
                    continue
                second = self.d_matrix(r, tn, tq)
                for row in first:
                    acc: Vec = {}
                    for j, c in row.items():
                        vec_axpy(acc, second[j], c)
                    if acc:
                        raise AssertionError(f"d_{r} o d_{r} != 0 at (weight {n}, q {q})")


def assert_pages_match_reference(bc: WordBicomplex) -> None:
    """Every page of the pairing equals the reference's, and E_0 alone is
    defined at total degree report_degree + 1."""
    pages, ref = SpectralPages(bc), ReferencePages(bc)
    for r in range(0, pages.stable_page + 3):
        assert pages.page_ranks(r) == ref.page_ranks(r), f"page {r}"
    for (n, q), quo in bc.quotients.items():
        if q - n + 1 == pages.report_degree + 1 and quo.dim:
            assert pages.rank(0, n, q) == quo.dim
            with pytest.raises(InputError):
                pages.rank(1, n, q)


@pytest.fixture(scope="module")
def pair_bc():
    return WordBicomplex(AtomicComplex(disjoint_pair()), BicomplexConfig(max_total_degree=8))


@pytest.fixture(scope="module")
def pair_pages(pair_bc):
    return SpectralPages(pair_bc)


@pytest.fixture(scope="module")
def pair_ref(pair_bc):
    return ReferencePages(pair_bc)


class TestSphereOracles:
    def test_single_codim2(self):
        rep = homotopy_ranks(single_color(2), max_total_degree=8)
        assert rep.pi_ranks == {3: 1, **{d: 0 for d in (1, 2, 4, 5, 6, 7, 8)}}
        assert rep.caveats == []

    def test_single_codim3(self):
        rep = homotopy_ranks(single_color(3), max_total_degree=8)
        assert rep.pi_ranks[5] == 1
        assert all(v == 0 for d, v in rep.pi_ranks.items() if d != 5)

    def test_disjoint_pair_product_of_spheres(self):
        rep = homotopy_ranks(disjoint_pair(), max_total_degree=8)
        assert rep.pi_ranks[3] == 2
        assert all(rep.pi_ranks[d] == 0 for d in range(4, 9))

    def test_edgeless_everything_vanishes(self):
        from echarr.corpus import edgeless

        rep = homotopy_ranks(edgeless(3), max_total_degree=6)
        assert all(v == 0 for v in rep.pi_ranks.values())

    def test_two_disjoint_hyperplanes_torus(self):
        h = EdgeColoredHypergraph.from_edge_list(4, [({1, 2}, "A"), ({3, 4}, "B")])
        rep = homotopy_ranks(h, max_total_degree=4, max_weight=6)
        # rationally a two-torus times affine space: rank 2 in degree one only
        assert rep.pi_ranks == {1: 2, 2: 0, 3: 0, 4: 0}
        assert rep.caveats

    def test_mixed_codim_sphere_product(self):
        h = EdgeColoredHypergraph.from_edge_list(
            7, [({1, 2, 3}, "A"), ({4, 5, 6, 7}, "B")]
        )
        rep = homotopy_ranks(h, max_total_degree=8)
        # product of a 3-sphere and a 5-sphere
        assert rep.pi_ranks == {3: 1, 5: 1, **{d: 0 for d in (1, 2, 4, 6, 7, 8)}}


class TestEx28:
    def test_circle_times_sphere(self):
        rep = homotopy_ranks(ex28(), max_total_degree=5, max_weight=8)
        assert rep.pi_ranks == {1: 1, 2: 0, 3: 1, 4: 0, 5: 0}
        assert rep.caveats  # degree-one letter triggers the convergence caveat

    def test_stable_across_weight_caps(self):
        a = homotopy_ranks(ex28(), max_total_degree=4, max_weight=5).pi_ranks
        b = homotopy_ranks(ex28(), max_total_degree=4, max_weight=7).pi_ranks
        assert a == b


class TestPageStructure:
    def test_ranks_weakly_decrease(self, pair_pages):
        for r in range(0, pair_pages.stable_page):
            now = pair_pages.page_ranks(r)
            nxt = pair_pages.page_ranks(r + 1)
            for key, rank in nxt.items():
                assert rank <= now.get(key, 0)

    def test_dr_squared_zero(self, pair_ref):
        pair_ref.check_dr_squared(max_page=4)

    def test_d1_kills_decomposable(self, pair_pages, pair_ref):
        # [a|b] at column -1 maps onto the product class in column 0
        mat = pair_ref.d_matrix(1, 2, 6)
        assert len(mat) == 1 and rank_of_rows(mat) == 1
        assert pair_pages.rank(2, 2, 6) == 0
        assert pair_pages.rank(2, 1, 6) == 0

    def test_mcs7_dr_squared(self):
        bc = WordBicomplex(AtomicComplex(mcs7()), BicomplexConfig(max_total_degree=7))
        ReferencePages(bc).check_dr_squared(max_page=3)


class TestColumnZeroIsBetti:
    @pytest.mark.parametrize(
        "build", [single_color(2), disjoint_pair(), mcs7()], ids=["s2", "pair", "mcs7"]
    )
    def test_weight_one_page_one_equals_positive_betti(self, build):
        cx = AtomicComplex(build)
        bc = WordBicomplex(cx, BicomplexConfig(max_total_degree=7))
        pages = SpectralPages(bc)
        betti = cx.cohomology(max_degree=7).betti
        degree_zero_nonunit = [
            m for m in cx.basis_by_degree.get(0, []) if m != 0
        ]
        adjust = rank_of_rows(
            [
                {m2: Fraction(s) for s, m2 in cx.diff_mask(m)}
                for m in degree_zero_nonunit
            ]
        )
        for q in range(1, 7):
            expected = betti.get(q, 0) + (adjust if q == 1 else 0)
            assert pages.rank(1, 1, q) == expected


class TestMcs7Regression:
    def test_low_degrees(self):
        rep = homotopy_ranks(mcs7(), max_total_degree=5, max_weight=4)
        # five degree-3 atom classes are indecomposable, as are the four
        # degree-4 pair classes; degree 5 carries the surviving word classes
        assert rep.pi_ranks[3] == 5
        assert rep.pi_ranks[4] == 4


class TestKEqualDegreeBound:
    def test_no_dr_lands_above_top_degree(self):
        from echarr.hypergraph import build_kequal
        from echarr.massey import kequal_top_degree

        h = build_kequal(4, 3)
        top = kequal_top_degree(4, 3)
        cx = AtomicComplex(h)
        betti = cx.cohomology(max_degree=10).betti
        assert all(b == 0 for d, b in betti.items() if d > top)
        bc = WordBicomplex(cx, BicomplexConfig(max_total_degree=6))
        ref = ReferencePages(bc)
        for r in range(1, 4):
            for (n, q) in bc.quotients:
                m = q - n + 1
                if m + 1 > top and m + 1 <= ref.report_degree - 1:
                    for row in ref.d_matrix(r, n, q):
                        assert row == {}


def _window(h: EdgeColoredHypergraph, degree: int, weight: int) -> WordBicomplex | None:
    config = BicomplexConfig(max_total_degree=degree, max_weight=weight, max_words=WINDOW_WORDS)
    try:
        return WordBicomplex(AtomicComplex(h), config)
    except ResourceLimitError:
        return None


@st.composite
def hypergraphs_with_both_letter_kinds(draw):
    """A degree-one letter (color A, one 2-edge) and a multi-color letter of
    even degree ({A, B}: two disjoint 2-edges, codim 2, degree 2), plus up to
    two random colors."""
    n = draw(st.integers(min_value=4, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    vertices = rng.sample(range(1, n + 1), 4)
    edges = [(vertices[:2], "A"), (vertices[2:], "B")]
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        for _ in range(rng.randint(1, 2)):
            edges.append((rng.sample(range(1, n + 1), rng.randint(2, 3)), f"c{i}"))
    return EdgeColoredHypergraph.from_edge_list(n, edges)


class TestPairingMatchesReference:
    """`page_ranks(r)` of the pairing equals the subquotient route's for
    every r from 0 to stable_page + 2."""

    @pytest.mark.parametrize("caps", WINDOW_CAPS, ids=[f"{d}-{w}" for d, w in WINDOW_CAPS])
    def test_corpus_windows(self, caps):
        built = 0
        for h in full_corpus().values():
            bc = _window(h, *caps)
            if bc is None:
                continue
            built += 1
            assert_pages_match_reference(bc)
        assert built >= 20

    @settings(max_examples=25, deadline=None)
    @given(h=hypergraphs_with_both_letter_kinds(), caps=st.sampled_from(WINDOW_CAPS))
    def test_hypothesis_hypergraphs(self, h, caps):
        bc = _window(h, *caps)
        if bc is not None:
            assert_pages_match_reference(bc)
