"""Pages of the weight-filtration spectral sequence of the word bicomplex.

The filtration is by word weight (column p = -(weight-1)): the total
differential D = d_W + d_mu keeps or lowers weight, d_0 is the letterwise
differential and d_1 is induced by merging.  Every page comes from one
persistence pairing per total degree (Zomorodian and Carlsson, "Computing
persistent homology", 2005): the images under D of the degree-m quotient basis,
taken in increasing weight, are reduced against the earlier ones, and each
nonzero residue pairs its source, of weight n, with its "low", the basis
element of highest weight left in it, of weight n'.  The gap n - n' is the
page whose differential joins the two, so both count on E_r for r <= gap and
on no later page; an unpaired element survives to E_infinity.  Anti-diagonal
sums of stabilized ranks give the dual homotopy ranks of the complement, with
a caveat flag when weight-one letters of degree one (hyperplane-like atoms)
make convergence unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atomic_complex import AtomicComplex
from .bicomplex import BicomplexConfig, DEFAULT_BICOMPLEX_CONFIG, WordBicomplex
from .errors import InputError
from .hypergraph import EdgeColoredHypergraph
# perfbench's tracer test reads and patches kernel_of_rows through this module
from .linalg import Echelon, kernel_of_rows  # noqa: F401

BlockKey = tuple[int, int]  # (weight n, internal degree q)


class SpectralPages:
    """Exact page ranks within the built window."""

    def __init__(self, bc: WordBicomplex, max_page: int | None = None):
        self.bc = bc
        self.report_degree = bc.config.max_total_degree
        weights = [n for (n, _) in bc.quotients] or [1]
        self.max_weight_built = max(weights)
        self.stable_page = self.max_weight_built + 1
        self.max_page = max_page if max_page is not None else self.stable_page
        self._gaps = self._pair()

    def _pair(self) -> dict[BlockKey, list[int]]:
        """Gaps of the paired basis elements, per block.

        The degree-(m+1) coordinates are numbered from the highest weight down
        and, inside a block, from the last index down, so the Echelon pivot
        min(residue) is the latest coordinate in the (weight, index) order the
        sources are taken in: the persistence low.  Pairs are counted per
        block; the low's weight, and so every count, depends only on the
        weight filtration, and the in-block order makes each element a member
        of at most one pair.
        """
        weights: dict[int, list[int]] = {}
        for (n, q), quo in self.bc.quotients.items():
            if quo.dim:
                weights.setdefault(q - n + 1, []).append(n)
        gaps: dict[BlockKey, list[int]] = {}
        for m in range(1, self.report_degree + 1):
            last: dict[int, int] = {}  # weight -> coordinate of the block's index 0
            weight_of: list[int] = []  # coordinate -> weight
            for n in sorted(weights.get(m + 1, ()), reverse=True):
                dim = self.bc.quotients[(n, m + n)].dim
                last[n] = len(weight_of) + dim - 1
                weight_of.extend([n] * dim)
            ech = Echelon()
            for n in sorted(weights.get(m, ())):
                q = m + n - 1
                for dw, dmu in zip(self.bc.dW[(n, q)], self.bc.dMu[(n, q)]):
                    image = {last[n] - j: c for j, c in dw.items()}
                    image.update((last[n - 1] - j, c) for j, c in dmu.items())
                    residue = ech.reduce(image)
                    if residue:
                        ech.add(residue)
                        low = weight_of[min(residue)]
                        gaps.setdefault((n, q), []).append(n - low)
                        gaps.setdefault((low, m + low), []).append(n - low)
        return gaps

    def rank(self, r: int, n: int, q: int) -> int:
        quo = self.bc.quotients.get((n, q))
        if quo is None or not quo.dim:
            return 0
        if r >= 1 and q - n + 1 > self.report_degree:
            raise InputError(
                "page ranks past E_0 need the differential out of this total "
                "degree, which lies beyond the built window; increase max_total_degree"
            )
        return quo.dim - sum(1 for gap in self._gaps.get((n, q), ()) if gap < r)

    def page_ranks(self, r: int) -> dict[tuple[int, int], int]:
        """Ranks per (column p, internal degree q) within the report window."""
        out = {}
        for (n, q) in sorted(self.bc.quotients):
            if q - n + 1 > self.report_degree or self.bc.quotients[(n, q)].dim == 0:
                continue
            out[(-(n - 1), q)] = self.rank(r, n, q)
        return out

    # -- limits -------------------------------------------------------------------

    def e_infinity_ranks(self) -> dict[tuple[int, int], int]:
        """Stabilized ranks; when degree-one letters force a genuine weight
        cutoff, the boundary column is dropped (its killers are cut off)."""
        if self.bc.has_degree_one_letters and self.max_weight_built == 1:
            raise InputError(
                "degree-one letters make the weight cap a genuine cutoff whose "
                "boundary column is dropped, and at weight 1 that column is the "
                "only one; use a weight cap of at least 2"
            )
        ranks = self.page_ranks(self.stable_page)
        if self.bc.has_degree_one_letters:
            boundary = -(self.max_weight_built - 1)
            ranks = {pq: v for pq, v in ranks.items() if pq[0] != boundary}
        return ranks

    def pi_ranks(self, max_degree: int | None = None) -> dict[int, int]:
        """Stabilized ranks summed along anti-diagonals of total degree."""
        hi = max_degree if max_degree is not None else self.report_degree
        table = {d: 0 for d in range(1, hi + 1)}
        for (p, q), rank in self.e_infinity_ranks().items():
            total = p + q
            if 1 <= total <= hi:
                table[total] += rank
        return table

    def caveats(self) -> list[str]:
        out = []
        if self.bc.has_degree_one_letters:
            out.append(
                "degree-one generators present: the complement may fail to be "
                "simply connected and weight truncation is a genuine cutoff; "
                "degree-1 ranks are reported without homotopy meaning"
            )
        return out


@dataclass
class HomotopyReport:
    pi_ranks: dict[int, int]
    e_infinity: dict[tuple[int, int], int]
    caveats: list[str]


def homotopy_ranks(
    h: EdgeColoredHypergraph,
    max_total_degree: int = 8,
    max_weight: int | None = None,
    max_page: int | None = None,
) -> HomotopyReport:
    """Build everything and report dual homotopy ranks up to the truncation."""
    cx = AtomicComplex(h)
    config = BicomplexConfig(
        max_total_degree=max_total_degree,
        max_weight=max_weight if max_weight is not None else DEFAULT_BICOMPLEX_CONFIG.max_weight,
    )
    bc = WordBicomplex(cx, config)
    pages = SpectralPages(bc, max_page=max_page)
    return HomotopyReport(
        pi_ranks=pages.pi_ranks(max_total_degree),
        e_infinity=pages.e_infinity_ranks(),
        caveats=pages.caveats(),
    )
