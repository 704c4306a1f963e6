"""Finite rational cochain model of the arrangement complement.

One generator per subset of colors, graded by twice the codimension of the
joint subspace minus the subset size.  The differential drops a color whose
subspace already contains the join of the others; the product is supported on
transverse pairs.  Cohomology is computed with exact integer elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, ResourceLimitError
from .hypergraph import EdgeColoredHypergraph
from .linalg import Echelon, Vec

Chain = Vec  # generator bitmask -> rational coefficient


@dataclass(frozen=True)
class ComplexConfig:
    max_colors: int = 20
    max_degree: int = 16


DEFAULT_CONFIG = ComplexConfig()


@dataclass
class Cohomology:
    betti: dict[int, int]
    representatives: dict[int, list[Chain]]
    chain_dims: dict[int, int]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * b for d, b in self.betti.items())


class AtomicComplex:
    """Graded-commutative DGA over Q indexed by color subsets (bitmasks).

    Bit i of a mask refers to ``order[i]``; generators with the same join are
    deliberately not identified.
    """

    def __init__(
        self,
        h: EdgeColoredHypergraph,
        order: Sequence[str] | None = None,
        config: ComplexConfig = DEFAULT_CONFIG,
    ):
        problems = h.validate(strict=False)
        if problems:
            raise InputError("invalid hypergraph: " + "; ".join(v.message for v in problems))
        self.hypergraph = h
        self.order = tuple(order) if order is not None else h.colors
        if sorted(self.order) != sorted(h.colors):
            raise InputError("order must be a permutation of the colors")
        n = len(self.order)
        if n > config.max_colors:
            raise ResourceLimitError(
                f"{n} colors exceed the generator cap of {config.max_colors} "
                f"(2^{n} generators)",
                limit=config.max_colors,
            )
        self.config = config
        self.n = n
        self._pos = {c: i for i, c in enumerate(self.order)}

        self.codim: list[int] = []
        self._block_of: list[dict[int, int]] = []
        for mask in range(1 << n):
            gamma = [self.order[i] for i in range(n) if mask >> i & 1]
            comps = h.components(gamma)
            self.codim.append(sum(len(v) - 1 for v in comps))
            blocks: dict[int, int] = {}
            for bi, comp in enumerate(comps):
                for v in comp:
                    blocks[v] = bi
            self._block_of.append(blocks)
        self.degree = [2 * self.codim[m] - bin(m).count("1") for m in range(1 << n)]
        self._color_components = [
            tuple(h.components([c])) for c in self.order
        ]
        self._diff: dict[int, list[tuple[int, int]]] = {}
        self._prod: dict[tuple[int, int], tuple[int, int] | None] = {}
        self._elim: dict[int, Echelon] = {}
        self._decomposables: dict[int, Echelon] = {}

        by_degree: dict[int, list[int]] = {}
        for m in range(1 << n):
            by_degree.setdefault(self.degree[m], []).append(m)
        self.basis_by_degree = {d: sorted(ms) for d, ms in sorted(by_degree.items())}

    # -- mask utilities ------------------------------------------------------

    def mask_of(self, colors: Iterable[str]) -> int:
        mask = 0
        for c in colors:
            if c not in self._pos:
                raise InputError(f"unknown color {c!r}")
            mask |= 1 << self._pos[c]
        return mask

    def colors_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.order[i] for i in range(self.n) if mask >> i & 1)

    # -- differential ---------------------------------------------------------

    def _removable(self, bit: int, rest_mask: int) -> bool:
        blocks = self._block_of[rest_mask]
        for comp in self._color_components[bit]:
            ids = {blocks.get(v) for v in comp}
            if len(ids) != 1 or None in ids:
                return False
        return True

    def diff_mask(self, mask: int) -> list[tuple[int, int]]:
        """Signed terms of the differential: alternating removal of colors
        whose subspace contains the join of the remaining ones."""
        if mask not in self._diff:
            terms = []
            bits = [i for i in range(self.n) if mask >> i & 1]
            for j, bit in enumerate(bits, start=1):
                rest = mask ^ (1 << bit)
                if self._removable(bit, rest):
                    terms.append(((-1) ** j, rest))
            self._diff[mask] = terms
        return self._diff[mask]

    # -- product ----------------------------------------------------------------

    def product_masks(self, m1: int, m2: int) -> tuple[int, int] | None:
        """(sign, union mask) when the joins are transverse, else None."""
        key = (m1, m2)
        if key not in self._prod:
            if self.codim[m1] + self.codim[m2] != self.codim[m1 | m2]:
                self._prod[key] = None
            else:
                eps = 0
                t = m2
                while t:
                    low = t & -t
                    eps += bin(m1 >> (low.bit_length())).count("1")
                    t ^= low
                self._prod[key] = ((-1) ** (eps & 1), m1 | m2)
        return self._prod[key]

    # -- chain arithmetic -----------------------------------------------------

    def d_chain(self, chain: Chain) -> Chain:
        out: Chain = {}
        for mask, coeff in chain.items():
            for sign, m2 in self.diff_mask(mask):
                v = out.get(m2, 0) + coeff * sign
                if v:
                    out[m2] = v
                else:
                    out.pop(m2, None)
        return out

    def multiply_chains(self, a: Chain, b: Chain) -> Chain:
        out: Chain = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                p = self.product_masks(m1, m2)
                if p is None:
                    continue
                sign, m = p
                v = out.get(m, 0) + c1 * c2 * sign
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return out

    def chain_degree(self, chain: Chain) -> int | None:
        degs = {self.degree[m] for m in chain}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("chain is not homogeneous")
        return degs.pop()

    # -- cohomology -------------------------------------------------------------

    def _elimination(self, degree: int) -> Echelon:
        """Tracked elimination of d on the degree's basis, built once per
        degree.  Its rows span d(C^degree), its combos (keyed by generator
        mask) solve d(x) = target, and its kernel holds the cocycles."""
        ech = self._elim.get(degree)
        if ech is None:
            ech = Echelon(track=True)
            for m in self.basis_by_degree.get(degree, []):
                ech.add({m2: s for s, m2 in self.diff_mask(m)}, tag=m)
            self._elim[degree] = ech
        return ech

    def coboundaries(self, degree: int) -> Echelon:
        """Echelon spanning d(C^{degree-1}); shared by every caller, so it
        must not be added to."""
        return self._elimination(degree - 1)

    def cocycles(self, degree: int) -> list[Chain]:
        """Basis of the cocycles of the given degree; shared, read only."""
        return self._elimination(degree).kernel

    def decomposables(self, degree: int) -> Echelon:
        """Products of positive-degree cocycles modulo the coboundaries, built
        once per degree; shared, read only.  Products commute up to sign, so
        the lower factor's degree runs to half the degree."""
        span = self._decomposables.get(degree)
        if span is None:
            span = Echelon()
            coboundaries = self.coboundaries(degree)
            for low in range(1, degree // 2 + 1):
                for c1 in self.cocycles(low):
                    for c2 in self.cocycles(degree - low):
                        span.add(coboundaries.reduce(self.multiply_chains(c1, c2)))
            self._decomposables[degree] = span
        return span

    def cohomology(self, max_degree: int | None = None) -> Cohomology:
        """Betti numbers and reduced cocycle representatives per degree."""
        if max_degree is None:
            max_degree = self.config.max_degree
        degrees = [d for d in self.basis_by_degree if d <= max_degree + 1]
        if not degrees:
            return Cohomology({}, {}, {})
        lo = min(degrees)
        betti: dict[int, int] = {}
        reps: dict[int, list[Chain]] = {}
        for d in range(lo, max_degree + 1):
            image_prev = self.coboundaries(d)
            chosen: list[Chain] = []
            seen = Echelon()
            for cocycle in self.cocycles(d):
                residue = image_prev.reduce(cocycle)
                if residue and seen.add(residue):
                    chosen.append(residue)
            betti[d] = len(chosen)
            reps[d] = chosen
        dims = {d: len(self.basis_by_degree.get(d, [])) for d in range(lo, max_degree + 1)}
        return Cohomology(betti, reps, dims)

    def is_cocycle(self, chain: Chain) -> bool:
        return not self.d_chain(chain)

    def is_coboundary(self, chain: Chain) -> bool:
        """Exactness test by solving d(x) = chain over the previous degree."""
        if not chain:
            return True
        d = self.chain_degree(chain)
        return self.solve_d(chain, d - 1) is not None

    def solve_d(self, target: Chain, source_degree: int) -> Chain | None:
        """Some x of the given degree with d(x) = target, or None."""
        residue, combo = self._elimination(source_degree).reduce_with_combo(target)
        if residue:
            return None
        return {m: -c for m, c in combo.items() if c}
