import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarr.atomic_complex import AtomicComplex
from echarr.bicomplex import BicomplexConfig, WordBicomplex
from echarr.corpus import ex28, full_corpus
from echarr.linalg import Echelon, QuotientSpace, kernel_of_rows
from helpers import rank_of_rows

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from reference import kernel_mod_p, mod_p, rank_mod_p  # noqa: E402


def random_rows(seed, nrows=5, ncols=5):
    rng = random.Random(seed)
    rows = []
    for _ in range(nrows):
        entries = ((j, rng.randint(-3, 3)) for j in range(ncols))
        rows.append({j: c for j, c in entries if c})
    return rows


def test_rank_simple():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
    assert rank_of_rows(rows) == 1


def test_kernel_combination_is_exact():
    rows = [
        {0: 1, 1: 1},
        {1: 1, 2: 1},
        {0: 1, 2: -1},  # = row0 - row1
    ]
    kernel = kernel_of_rows(rows)
    assert len(kernel) == 1
    combo = kernel[0]
    acc: dict[int, Fraction] = {}
    for i, c in combo.items():
        for k, x in rows[i].items():
            acc[k] = acc.get(k, 0) + c * x
    assert all(v == 0 for v in acc.values())


def test_kernel_of_empty_rows():
    assert kernel_of_rows([{}, {0: Fraction(1)}, {}]) == [{0: 1}, {2: 1}]


def test_tracked_echelon_expresses_target():
    rows = [{0: 1, 1: 1}, {1: 1}]
    ech = Echelon(track=True)
    for i, r in enumerate(rows):
        ech.add(r, tag=i)
    residue, combo = ech.reduce_with_combo({0: 2, 1: 5})
    assert residue == {}
    assert {i: -c for i, c in combo.items()} == {0: 2, 1: 3}
    ech = Echelon(track=True)
    ech.add(rows[0], tag=0)
    residue, _ = ech.reduce_with_combo({1: 1})
    assert residue


def test_quotient_space():
    # kill e0 - e1 inside a 3-dim space
    q = QuotientSpace(3, [{0: 1, 1: -1}])
    assert q.dim == 2
    assert q.project({0: 1}) == q.project({1: 1})
    assert q.project({0: 1, 1: -1}) == {}


def test_rows_are_primitive_integer_with_positive_pivot():
    ech = Echelon(track=True)
    for i, r in enumerate([{0: 2, 1: 4}, {0: 3, 2: Fraction(3, 2)}, {1: -6, 2: 9}]):
        ech.add(r, tag=i)
    for p, row in ech.rows.items():
        assert min(row) == p and row[p] > 0
        assert all(type(x) is int for x in row.values())
        assert all(type(x) is int for x in ech.combos[p].values())
    assert _canonical(ech.reduce({2: 1, 3: 4}))


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
    combo: dict[int, int] = {}
    for r in rows:
        c = rng.randint(-2, 2)
        for k, x in r.items():
            combo[k] = combo.get(k, 0) + c * x
    combo = {k: v for k, v in combo.items() if v}
    assert ech.contains(combo)


# -- differential test against the Fraction elimination it replaced -------------


def _axpy(acc, v, c):
    for k, x in v.items():
        y = acc.get(k, Fraction(0)) + c * x
        if y:
            acc[k] = y
        else:
            acc.pop(k, None)


class FractionEchelon:
    """Reduced row echelon form over Fraction, pivots 1, rows kept mutually
    reduced by back-substitution: the elimination the integer kernel replaced."""

    def __init__(self, track=False):
        self.rows, self.combos, self.kernel = {}, {}, []
        self.track = track
        self._n_seen = 0

    def reduce_with_combo(self, vec, combo=None):
        residue = {k: Fraction(x) for k, x in vec.items()}
        combination = dict(combo or {})
        for p in sorted(residue):
            if p in self.rows and p in residue:
                c = residue[p]
                _axpy(residue, self.rows[p], -c)
                if self.track:
                    _axpy(combination, self.combos[p], -c)
        return residue, combination

    def reduce(self, vec):
        return self.reduce_with_combo(vec)[0]

    def add(self, vec, tag=None):
        base = {tag if tag is not None else self._n_seen: Fraction(1)}
        residue, combination = self.reduce_with_combo(vec, base)
        self._n_seen += 1
        if not residue:
            if self.track:
                self.kernel.append(combination)
            return False
        p = min(residue)
        inv = 1 / residue[p]
        row = {k: inv * x for k, x in residue.items()}
        comb = {k: inv * x for k, x in combination.items()}
        for q, other in self.rows.items():
            if p in other:
                c = other[p]
                _axpy(other, row, -c)
                if self.track:
                    _axpy(self.combos[q], comb, -c)
        self.rows[p] = row
        self.combos[p] = comb
        return True


def _canonical(vec):
    """Entries are int where integral and Fraction otherwise."""
    return all(type(x) is int or x.denominator != 1 for x in vec.values())


def assert_same_elimination(vectors, probes):
    old, new = FractionEchelon(track=True), Echelon(track=True)
    for i, v in enumerate(vectors):
        assert new.add(v, tag=i) == old.add(v, tag=i)
    assert new.rank == len(old.rows)
    assert set(new.rows) == set(old.rows)
    assert new.kernel == old.kernel
    assert all(_canonical(k) for k in new.kernel)
    assert kernel_of_rows(vectors) == old.kernel
    for p, row in new.rows.items():
        assert min(row) == p and row[p] > 0
    for probe in probes:
        residue, combo = new.reduce_with_combo(probe)
        assert (residue, combo) == old.reduce_with_combo(probe)
        assert _canonical(residue) and _canonical(combo)
        assert new.reduce(probe) == residue
        assert new.contains(probe) == (not residue)


def assert_same_quotient(ncols, relations, probes):
    quotient = QuotientSpace(ncols, relations)
    old = FractionEchelon()
    for r in relations:
        old.add(r)
    assert quotient.free_cols == [c for c in range(ncols) if c not in old.rows]
    index = {c: i for i, c in enumerate(quotient.free_cols)}
    for probe in probes:
        expected = {index[c]: x for c, x in old.reduce(probe).items()}
        assert quotient.project(probe) == expected


def _mod_p(vectors):
    return [{i: mod_p(c) for i, c in v.items()} for v in vectors]


def _differential_blocks(h):
    cx = AtomicComplex(h)
    for degree, basis in cx.basis_by_degree.items():
        rows = [{m2: s for s, m2 in cx.diff_mask(m)} for m in basis]
        targets = cx.basis_by_degree.get(degree + 1, [])
        yield rows, [{m: 1} for m in targets] + [cx.d_chain({m: 1}) for m in basis]


@pytest.mark.parametrize("name", sorted(full_corpus()))
def test_differential_blocks_match_fraction_route(name):
    h = full_corpus()[name]
    for rows, probes in _differential_blocks(h):
        assert_same_elimination(rows, probes)
        assert rank_of_rows(rows) == rank_mod_p(rows)
        assert _mod_p(kernel_of_rows(rows)) == kernel_mod_p(rows)


@pytest.mark.parametrize("name", ["ex28", "random_04", "random_15"])
def test_shuffle_relations_match_fraction_route(name):
    h = ex28() if name == "ex28" else full_corpus()[name]
    config = BicomplexConfig(max_total_degree=6, max_weight=6, validate=False)
    bc = WordBicomplex(AtomicComplex(h), config)
    rng = random.Random(name)
    checked = 0
    for key, words in bc.words_by_bidegree.items():
        relations = list(bc._shuffle_relations(key))
        ncols = len(words)
        probes = [{c: 1} for c in range(ncols)]
        probes += [{c: rng.randint(-3, 3) or 1 for c in rng.sample(range(ncols), min(3, ncols))}]
        assert_same_quotient(ncols, relations, probes)
        assert_same_elimination(relations, probes)
        checked += len(relations)
    assert checked


_ENTRY = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
_VECTOR = st.dictionaries(st.integers(0, 6), _ENTRY, max_size=5).map(
    lambda v: {k: x for k, x in v.items() if x}
)


@settings(max_examples=200, deadline=None)
@given(vectors=st.lists(_VECTOR, max_size=8), probes=st.lists(_VECTOR, max_size=4))
def test_hypothesis_matrices_match_fraction_route(vectors, probes):
    assert_same_elimination(vectors, probes + vectors)
    assert_same_quotient(7, vectors, probes + [{c: 1} for c in range(7)])


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.dictionaries(st.integers(0, 6), st.integers(-5, 5), max_size=5), max_size=8))
def test_ranks_and_kernels_match_mod_p(rows):
    rows = [{k: x for k, x in r.items() if x} for r in rows]
    assert rank_of_rows(rows) == rank_mod_p(rows)
    assert _mod_p(kernel_of_rows(rows)) == kernel_mod_p(rows)
