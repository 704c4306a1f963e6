"""Exact linear algebra over the rationals on sparse vectors.

Vectors are dicts mapping a column key -> nonzero rational coefficient (`int`
or `Fraction`).  Keys are usually ints but only need to be hashable and
totally ordered (word tuples work).  Everything here is exact; Betti numbers
and spectral-sequence ranks must never go through floating point.

One integer elimination kernel serves `Echelon`, `kernel_of_rows` and
`QuotientSpace`.  Input vectors are cleared of denominators on entry.  Stored
rows are primitive integer vectors with a positive pivot at their smallest
column, and a vector is reduced against them fraction-free (Bareiss 1968): to
clear column p it becomes (a/g)*vec - (c/g)*row, where a is the row's pivot, c
the vector's entry at p and g = gcd(a, c).  Rows are not reduced against each
other, so pivots are cleared in increasing order and clearing one may fill in
a later one.  The residue that vanishes at every pivot column is unique, so it
does not depend on the order rows were added in.  Rationals appear only at the
boundary: residues, combinations and kernel vectors come back with `int`
entries where integral and `Fraction` entries otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Sequence

Vec = dict[int, int | Fraction]


def vec_axpy(acc: Vec, v: Vec, c) -> None:
    """acc += c*v in place, dropping cancelled entries."""
    if c == 0:
        return
    for k, x in v.items():
        y = acc.get(k, 0) + c * x
        if y:
            acc[k] = y
        else:
            acc.pop(k, None)


def _clear(vec: Vec) -> tuple[dict[int, int], int]:
    """(integer vector, positive denominator) whose quotient is vec."""
    for x in vec.values():
        if type(x) is not int or not x:
            break
    else:
        return dict(vec), 1
    den = 1
    for x in vec.values():
        d = x.denominator
        if d != 1:
            den = den // gcd(den, d) * d
    return {k: x.numerator * (den // x.denominator) for k, x in vec.items() if x}, den


def _rational(vec: dict[int, int], den: int) -> Vec:
    """vec / den, entries as int where integral and Fraction otherwise."""
    if den == 1:
        return vec
    out: Vec = {}
    for k, x in vec.items():
        q, rem = divmod(x, den)
        out[k] = Fraction(x, den) if rem else q
    return out


def _eliminate(rows: dict, combos: dict, vec: dict[int, int], combo: dict | None) -> int:
    """Clear every pivot column of the integer vector in place.

    Returns the scale s > 0 of the step: afterwards vec = s*vec_before minus a
    combination of rows, and combo (when tracked) has been carried through the
    same steps with the rows' combos.
    """
    heap = [p for p in vec if p in rows]
    if not heap:
        return 1
    heapify(heap)
    scale = 1
    while heap:
        p = heappop(heap)
        c = vec.get(p)
        if c is None:  # a duplicate entry, already cleared
            continue
        row = rows[p]
        a = row[p]
        if a != 1:
            g = gcd(a, c)
            a //= g
            c //= g
            if a != 1:
                scale *= a
                for k in vec:
                    vec[k] *= a
                if combo is not None:
                    for k in combo:
                        combo[k] *= a
        for k, x in row.items():
            v = vec.get(k)
            if v is None:
                vec[k] = -c * x
                if k in rows:
                    heappush(heap, k)
            else:
                v -= c * x
                if v:
                    vec[k] = v
                else:
                    del vec[k]
        if combo is not None:
            for k, x in combos[p].items():
                v = combo.get(k, 0) - c * x
                if v:
                    combo[k] = v
                else:
                    del combo[k]
    return scale


class Echelon:
    """Growing echelon span with optional combination tracking.

    ``rows[p]`` is the stored integer row with pivot p.  With tracking,
    ``combos[p]`` is the integer combination of the added vectors, keyed by
    their tags, that equals ``rows[p]``, and ``kernel`` collects the
    combinations of added vectors that reduced to zero, each with coefficient
    1 on its own tag.
    """

    def __init__(self, track: bool = False):
        self.rows: dict[int, dict[int, int]] = {}
        self.combos: dict[int, dict[int, int]] = {}
        self.kernel: list[Vec] = []
        self.track = track
        self._n_seen = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """The unique residue of vec modulo the span that vanishes at every pivot."""
        residue, den = _clear(vec)
        den *= _eliminate(self.rows, self.combos, residue, None)
        return _rational(residue, den)

    def reduce_with_combo(self, vec: Vec) -> tuple[Vec, Vec]:
        """(residue, combination) with vec + combination of added vectors = residue."""
        residue, den = _clear(vec)
        combination: dict = {}
        den *= _eliminate(self.rows, self.combos, residue, combination)
        return _rational(residue, den), _rational(combination, den)

    def add(self, vec: Vec, tag: int | None = None) -> bool:
        """Insert vec into the span; returns True if the rank grew."""
        row, den = _clear(vec)
        combo = {tag if tag is not None else self._n_seen: den} if self.track else None
        den *= _eliminate(self.rows, self.combos, row, combo)
        self._n_seen += 1
        if not row:
            if self.track:
                self.kernel.append(_rational(combo, den))
            return False
        p = min(row)
        g = gcd(*row.values(), *combo.values()) if self.track else gcd(*row.values())
        if row[p] < 0:
            g = -g
        if g != 1:
            row = {k: x // g for k, x in row.items()}
            if self.track:
                combo = {k: x // g for k, x in combo.items()}
        self.rows[p] = row
        if self.track:
            self.combos[p] = combo
        return True

    def contains(self, vec: Vec) -> bool:
        residue, _ = _clear(vec)
        _eliminate(self.rows, self.combos, residue, None)
        return not residue


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
