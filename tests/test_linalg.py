import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from echarr.linalg import (
    Echelon,
    QuotientSpace,
    kernel_of_rows,
    rank_of_rows,
    vec_from_ints,
)
from echarr.polynomial import IntPolynomial, interpolate_integer


def random_rows(seed, nrows=5, ncols=5):
    rng = random.Random(seed)
    return [
        vec_from_ints((j, rng.randint(-3, 3)) for j in range(ncols))
        for _ in range(nrows)
    ]


def test_rank_simple():
    rows = [vec_from_ints([(0, 1), (1, 2)]), vec_from_ints([(0, 2), (1, 4)])]
    assert rank_of_rows(rows) == 1


def test_kernel_combination_is_exact():
    rows = [
        vec_from_ints([(0, 1), (1, 1)]),
        vec_from_ints([(1, 1), (2, 1)]),
        vec_from_ints([(0, 1), (2, -1)]),  # = row0 - row1
    ]
    kernel = kernel_of_rows(rows)
    assert len(kernel) == 1
    combo = kernel[0]
    acc: dict[int, Fraction] = {}
    for i, c in combo.items():
        for k, x in rows[i].items():
            acc[k] = acc.get(k, Fraction(0)) + c * x
    assert all(v == 0 for v in acc.values())


def test_kernel_of_empty_rows():
    assert kernel_of_rows([{}, {0: Fraction(1)}, {}]) == [{0: Fraction(1)}, {2: Fraction(1)}]


def test_tracked_echelon_expresses_target():
    rows = [vec_from_ints([(0, 1), (1, 1)]), vec_from_ints([(1, 1)])]
    ech = Echelon(track=True)
    for i, r in enumerate(rows):
        ech.add(r, tag=i)
    residue, combo = ech.reduce_with_combo(vec_from_ints([(0, 2), (1, 5)]))
    assert residue == {}
    assert {i: -c for i, c in combo.items()} == {0: Fraction(2), 1: Fraction(3)}
    ech = Echelon(track=True)
    ech.add(rows[0], tag=0)
    residue, _ = ech.reduce_with_combo(vec_from_ints([(1, 1)]))
    assert residue


def test_quotient_space():
    # kill e0 - e1 inside a 3-dim space
    q = QuotientSpace(3, [vec_from_ints([(0, 1), (1, -1)])])
    assert q.dim == 2
    assert q.project(vec_from_ints([(0, 1)])) == q.project(vec_from_ints([(1, 1)]))
    assert q.project(vec_from_ints([(0, 1), (1, -1)])) == {}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_rank_plus_kernel_is_row_count(seed):
    rows = random_rows(seed)
    assert rank_of_rows(rows) + len(kernel_of_rows(rows)) == len(rows)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_echelon_membership(seed):
    rows = random_rows(seed, nrows=4, ncols=6)
    ech = Echelon()
    for r in rows:
        ech.add(r)
    rng = random.Random(seed + 1)
    combo: dict[int, Fraction] = {}
    for r in rows:
        c = rng.randint(-2, 2)
        for k, x in r.items():
            combo[k] = combo.get(k, Fraction(0)) + c * x
    combo = {k: v for k, v in combo.items() if v}
    assert ech.contains(combo)


def test_interpolation_roundtrip():
    poly = IntPolynomial([3, -2, 0, 5])
    points = [(t, poly(t)) for t in range(5)]
    assert interpolate_integer(points) == poly
