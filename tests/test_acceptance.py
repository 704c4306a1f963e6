"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Each test prints a PASS line (visible with -s or -rA) naming the criterion.
"""

import json
import time
from fractions import Fraction

import pytest

from echarr import corpus
from echarr.atomic_complex import AtomicComplex
from echarr.bicomplex import BicomplexConfig, WordBicomplex
from echarr.chromatic import (
    chromatic_polynomial,
    chromatic_polynomial_by_counting,
    count_proper_colorings,
    integer_point_count,
)
from echarr.hypergraph import build_kequal
from echarr.lattice import build_lattice, is_geometric
from echarr.massey import (
    MasseyColorSystem,
    find_massey_color_systems,
    indeterminacy_span,
    kequal_no_massey,
    kequal_top_degree,
    massey_d2_class,
    massey_triple_product,
)
from echarr.polynomial import IntPolynomial
from echarr.spectral import homotopy_ranks
from echarr import cli
from helpers import degree_of, ordered_complex


@pytest.fixture(scope="module")
def instances():
    return corpus.full_corpus()


def test_criterion_01_three_way_chromatic_agreement(instances):
    start = time.monotonic()
    for name, h in instances.items():
        dc = chromatic_polynomial(h)
        counted = chromatic_polynomial_by_counting(h)
        mobius = build_lattice(h).characteristic_polynomial()
        assert dc == counted == mobius, name
        for t in range(h.vertex_count + 2):
            assert dc(t) == count_proper_colorings(h, t), (name, t)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"PASS criterion 1: three chromatic routes agree on {len(instances)} "
          f"instances in {elapsed:.1f}s")


def test_criterion_02_cube_point_counts(instances):
    checked = 0
    for name, h in instances.items():
        poly = chromatic_polynomial(h)
        for s in (1, 2):
            if (2 * s + 1) ** h.vertex_count > 10**7:
                continue
            assert integer_point_count(h, s) == poly(2 * s + 1), (name, s)
            checked += 1
    print(f"PASS criterion 2: polynomial at 2s+1 equals cube point count "
          f"({checked} instance/s pairs)")


def test_criterion_03_ex28_explicit_values():
    h = corpus.ex28()
    poly = chromatic_polynomial(h)
    assert poly == IntPolynomial([0, 1, -1, -1, 1])  # t^4 - t^3 - t^2 + t
    assert poly(3) == 48
    assert count_proper_colorings(h, 3) == 48
    print("PASS criterion 3: ex28 polynomial t^4-t^3-t^2+t with value 48 at t=3")


def test_criterion_04_geometricity(instances):
    assert not is_geometric(corpus.smalldude())
    graphs = 0
    for name, h in instances.items():
        if not h.colors:
            continue
        is_plain_graph = all(len(e) == 2 for e in h.edges) and all(
            len(h.edges_of(c)) == 1 for c in h.colors
        )
        if is_plain_graph:
            assert is_geometric(h), name
            graphs += 1
    assert graphs >= 2  # at least the two bundled braid arrangements
    print(f"PASS criterion 4: smalldude non-geometric; {graphs} "
          f"distinct-color graphs geometric")


def test_criterion_05_dga_validity_suite(instances):
    start = time.monotonic()
    for name, h in instances.items():
        cx = AtomicComplex(h)
        size = 1 << cx.n
        diffs = [cx.diff_mask(m) for m in range(size)]

        for m in range(size):
            assert not cx.d_chain(cx.d_chain({m: Fraction(1)})), (name, m)

        mult_pairs = []
        for m1 in range(size):
            deg1 = cx.degree[m1]
            sign = 1 if deg1 % 2 == 0 else -1
            for m2 in range(size):
                p12 = cx.product_masks(m1, m2)
                p21 = cx.product_masks(m2, m1)
                # graded commutativity
                if p12 is None:
                    assert p21 is None, (name, m1, m2)
                else:
                    koszul = (-1) ** (deg1 * cx.degree[m2])
                    assert p21 == (koszul * p12[0], p12[1]), (name, m1, m2)
                    if m1 and m2:
                        mult_pairs.append((m1, m2, p12))
                # graded Leibniz rule on the pair
                lhs: dict[int, int] = {}
                if p12 is not None:
                    for s, mm in diffs[p12[1]]:
                        lhs[mm] = lhs.get(mm, 0) + p12[0] * s
                rhs: dict[int, int] = {}
                for s, mm in diffs[m1]:
                    q = cx.product_masks(mm, m2)
                    if q is not None:
                        rhs[q[1]] = rhs.get(q[1], 0) + s * q[0]
                for s, mm in diffs[m2]:
                    q = cx.product_masks(m1, mm)
                    if q is not None:
                        rhs[q[1]] = rhs.get(q[1], 0) + sign * s * q[0]
                assert {k: v for k, v in lhs.items() if v} == {
                    k: v for k, v in rhs.items() if v
                }, (name, m1, m2)

        # associativity: triples with xy = 0 = yz have both sides zero by
        # construction, so checking around nonzero products is complete
        def scaled(p, c):
            return None if p is None else (c * p[0], p[1])

        for m1, m2, p12 in mult_pairs:
            for m3 in range(size):
                p23 = cx.product_masks(m2, m3)
                left = scaled(cx.product_masks(p12[1], m3), p12[0])
                right = None if p23 is None else scaled(
                    cx.product_masks(m1, p23[1]), p23[0]
                )
                assert left == right, (name, m1, m2, m3)
        for m2, m3, p23 in mult_pairs:
            for m1 in range(size):
                p12 = cx.product_masks(m1, m2)
                left = None if p12 is None else scaled(
                    cx.product_masks(p12[1], m3), p12[0]
                )
                right = scaled(cx.product_masks(m1, p23[1]), p23[0])
                assert left == right, (name, m1, m2, m3)

    # atom-order invariance of Betti numbers
    import random as _random

    for name in ("ex28", "ex28_2", "smalldude", "mcs7", "kequal_5_3"):
        h = instances[name]
        base = AtomicComplex(h).cohomology(max_degree=12).betti
        order = list(h.colors)
        _random.Random(11).shuffle(order)
        shuffled = AtomicComplex(h, order=order).cohomology(max_degree=12).betti
        assert base == shuffled, name

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s"
    print(f"PASS criterion 5: DGA validity suite on {len(instances)} instances "
          f"in {elapsed:.1f}s")


def test_criterion_06_kequal_vanishing():
    h = build_kequal(5, 3)
    cx = AtomicComplex(h)
    assert {degree_of(cx, [c]) for c in h.colors} == {3}  # 2k-3 with k=3
    top = kequal_top_degree(5, 3)
    assert top == 5
    result = cx.cohomology(max_degree=12)
    for d, b in result.betti.items():
        if d > top:
            assert b == 0, (d, b)
    assert result.betti.get(top, 0) > 0
    print("PASS criterion 6: kequal(5,3) cohomology vanishes above degree 5, "
          "atoms in degree 3")


def test_criterion_07_sphere_oracles():
    for c in (2, 3):
        cx = AtomicComplex(corpus.single_color(c))
        betti = cx.cohomology(max_degree=10).betti
        assert {d: b for d, b in betti.items() if b} == {0: 1, 2 * c - 1: 1}
        rep = homotopy_ranks(corpus.single_color(c), max_total_degree=8)
        expected = {d: (1 if d == 2 * c - 1 else 0) for d in range(1, 9)}
        assert rep.pi_ranks == expected, (c, rep.pi_ranks)
    rep = homotopy_ranks(corpus.disjoint_pair(), max_total_degree=8)
    assert rep.pi_ranks == {3: 2, **{d: 0 for d in (1, 2, 4, 5, 6, 7, 8)}}
    print("PASS criterion 7: sphere and product-of-spheres homotopy oracles")


def _estimate_words(shifted_histogram, max_weight, shift_cap):
    # sequences over the letter alphabet with bounded length and shifted sum
    total = 0
    layer = {0: 1}
    for _ in range(max_weight):
        nxt: dict[int, int] = {}
        for ssum, ways in layer.items():
            for s, count in shifted_histogram.items():
                if ssum + s <= shift_cap:
                    nxt[ssum + s] = nxt.get(ssum + s, 0) + ways * count
        total += sum(nxt.values())
        layer = nxt
        if not layer:
            break
    return total


def test_criterion_08_bicomplex_self_validation(instances):
    # the window budget keeps weight caps honest where degree-one letters
    # make the full total-degree window infinite; see the report line
    budget_words = 6_000
    start = time.monotonic()
    windows = {}
    for name, h in instances.items():
        if not h.colors:
            continue
        cx = AtomicComplex(h)
        hist: dict[int, int] = {}
        for m in range(1 << cx.n):
            if cx.degree[m] >= 1:
                s = cx.degree[m] - 1
                hist[s] = hist.get(s, 0) + 1
        if not hist:
            continue
        max_weight = 8
        while max_weight > 1 and _estimate_words(hist, max_weight, 8) > budget_words:
            max_weight -= 1
        config = BicomplexConfig(
            max_total_degree=8,
            max_weight=max_weight,
            max_words=2 * budget_words,
            validate=True,  # build fails loudly on any sign identity breach
        )
        WordBicomplex(cx, config)
        windows[name] = max_weight
    elapsed = time.monotonic() - start
    capped = {n: w for n, w in windows.items() if w < 8}
    print(f"PASS criterion 8: sign self-validation on {len(windows)} instances "
          f"in {elapsed:.1f}s (weight-capped: {capped})")


def test_criterion_09_massey_pipeline_mcs7(tmp_path, capsys):
    start = time.monotonic()
    h = corpus.mcs7()
    systems = find_massey_color_systems(h)
    target = MasseyColorSystem(("L1", "L2", "L3"), ("L4", "L5"), True)
    assert target in systems
    cx = ordered_complex(h, target)
    cert = massey_d2_class(cx, target)

    # d1 of the three-letter word vanishes; the explicit zig-zag lift matches
    assert cert.d1_vanishes
    assert cert.zigzag_matches

    # the page-two differential hits the closed unit combination supported on
    # the two four-color generators, nonzero in H^8
    support = {cx.colors_of(m): c for m, c in cert.cocycle.items()}
    assert set(support) == {
        ("L1", "L2", "L3", "L4"),
        ("L1", "L2", "L3", "L5"),
    }
    assert {abs(c) for c in support.values()} == {Fraction(1)}
    assert cert.closed and cert.degree == 8
    assert cert.nonzero_class

    # triple product representative lands in the same class modulo the ideal
    one = Fraction(1)
    u, v, w = ({cx.mask_of([c]): one} for c in target.triple)
    triple = massey_triple_product(cx, u, v, w)
    assert triple.defined
    span = indeterminacy_span(cx, u, w, cert.degree)
    diff = dict(cert.cocycle)
    for m, c in triple.representative.items():
        val = diff.get(m, Fraction(0)) - c
        if val:
            diff[m] = val
        else:
            diff.pop(m, None)
    assert span.contains(diff)

    # CLI reports a non-formality certificate
    path = tmp_path / "mcs7.json"
    path.write_text(
        json.dumps(
            {
                "vertices": 7,
                "edges": [
                    {"vertices": sorted(e), "color": c}
                    for e, c in zip(h.edges, h.edge_colors)
                ],
                "order": list(h.colors),
            }
        )
    )
    assert cli.main(["massey", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nonformal"] is True
    assert any(e["massey_product_nontrivial"] for e in out["systems"])

    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"criterion 9 took {elapsed:.1f}s"
    print(f"PASS criterion 9: Massey pipeline on mcs7 in {elapsed:.1f}s")


def test_criterion_10_kequal_checker():
    assert kequal_no_massey(6, 3) is True
    assert kequal_no_massey(7, 3) is False
    assert kequal_no_massey(10, 4) is True
    print("PASS criterion 10: no-Massey inequality checker values")
