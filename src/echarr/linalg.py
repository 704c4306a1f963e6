"""Exact linear algebra over the rationals on sparse vectors.

Vectors are dicts mapping a column key -> nonzero Fraction.  Keys are usually
ints but only need to be hashable and totally ordered (word tuples work).
Everything here is exact; Betti numbers and spectral-sequence ranks must never
go through floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = dict[int, Fraction]


def vec_scale(v: Vec, c: Fraction) -> Vec:
    if c == 0:
        return {}
    return {k: c * x for k, x in v.items()}


def vec_axpy(acc: Vec, v: Vec, c: Fraction) -> None:
    """acc += c*v in place, dropping cancelled entries."""
    if c == 0:
        return
    for k, x in v.items():
        y = acc.get(k, Fraction(0)) + c * x
        if y:
            acc[k] = y
        else:
            acc.pop(k, None)


def vec_from_ints(items: Iterable[tuple[int, int]]) -> Vec:
    out: Vec = {}
    for k, c in items:
        if c:
            out[k] = out.get(k, Fraction(0)) + Fraction(c)
            if not out[k]:
                del out[k]
    return out


class Echelon:
    """Growing reduced row-echelon span with optional combination tracking.

    Rows are normalized to pivot 1 (pivot = smallest column index) and kept
    mutually reduced, so `reduce` returns a canonical residue modulo the span.
    With tracking, ``combos[p]`` gives row p as a combination of the added
    vectors, keyed by their tags, and ``kernel`` collects the combinations of
    added vectors that reduced to zero.
    """

    def __init__(self, track: bool = False):
        self.rows: dict[int, Vec] = {}
        self.combos: dict[int, Vec] = {}
        self.kernel: list[Vec] = []
        self.track = track
        self._n_seen = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        residue = dict(vec)
        for p in sorted(residue):
            if p in self.rows and p in residue:
                vec_axpy(residue, self.rows[p], -residue[p])
        # a single sorted pass suffices: rows are in RREF, so eliminating a
        # pivot can only introduce columns larger than it
        return residue

    def reduce_with_combo(self, vec: Vec, combo: Vec | None = None) -> tuple[Vec, Vec]:
        residue = dict(vec)
        combination: Vec = dict(combo or {})
        for p in sorted(residue):
            if p in self.rows and p in residue:
                c = residue[p]
                vec_axpy(residue, self.rows[p], -c)
                vec_axpy(combination, self.combos[p], -c)
        return residue, combination

    def add(self, vec: Vec, tag: int | None = None) -> bool:
        """Insert vec into the span; returns True if the rank grew."""
        if self.track:
            base: Vec = {tag if tag is not None else self._n_seen: Fraction(1)}
            residue, combination = self.reduce_with_combo(vec, base)
        else:
            residue = self.reduce(vec)
            combination = {}
        self._n_seen += 1
        if not residue:
            if self.track:
                self.kernel.append(combination)
            return False
        p = min(residue)
        inv = Fraction(1) / residue[p]
        row = vec_scale(residue, inv)
        comb = vec_scale(combination, inv)
        # back-substitute to keep full RREF
        for q, other in self.rows.items():
            if p in other:
                c = other[p]
                vec_axpy(other, row, -c)
                if self.track:
                    vec_axpy(self.combos[q], comb, -c)
        self.rows[p] = row
        if self.track:
            self.combos[p] = comb
        return True

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)


def rank_of_rows(rows: Sequence[Vec]) -> int:
    ech = Echelon()
    for r in rows:
        ech.add(r)
    return ech.rank


def kernel_of_rows(rows: Sequence[Vec]) -> list[Vec]:
    """Basis of {x : sum_i x[i] * rows[i] = 0} (left kernel)."""
    ech = Echelon(track=True)
    for r in rows:
        ech.add(r)
    return ech.kernel


class QuotientSpace:
    """Quotient of a coordinate space by the span of relation vectors.

    The quotient basis is the set of relation-free columns; `project` gives
    canonical coordinates of any vector's class.
    """

    def __init__(self, ncols: int, relations: Iterable[Vec]):
        self.ncols = ncols
        self._ech = Echelon()
        for r in relations:
            self._ech.add(r)
            if self._ech.rank == ncols:
                break
        pivots = set(self._ech.rows)
        self.free_cols = [c for c in range(ncols) if c not in pivots]
        self._index = {c: i for i, c in enumerate(self.free_cols)}

    @property
    def dim(self) -> int:
        return len(self.free_cols)

    def project(self, vec: Vec) -> Vec:
        residue = self._ech.reduce(vec)
        return {self._index[c]: x for c, x in residue.items()}
