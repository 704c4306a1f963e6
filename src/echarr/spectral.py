"""Pages of the column-filtration spectral sequence of the word bicomplex.

The filtration is by word weight (column p = -(weight-1)); d_0 is the
letterwise differential, d_1 is induced by merging, and higher differentials
are computed from the standard exact subquotients

    E_r = Z_r / (Z_{r-1}(one column right) + D Z_{r-1}(r-1 columns left))

with every space realized as an explicit span over the rationals inside the
truncated total complex.  Anti-diagonal sums of stabilized ranks give the
dual homotopy ranks of the complement, with a caveat flag when weight-one
letters of degree one (hyperplane-like atoms) make convergence unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atomic_complex import AtomicComplex
from .bicomplex import BicomplexConfig, DEFAULT_BICOMPLEX_CONFIG, WordBicomplex
from .errors import InputError
from .hypergraph import EdgeColoredHypergraph
from .linalg import Echelon, Vec, kernel_of_rows, vec_axpy

BlockKey = tuple[int, int]  # (weight n, internal degree q)


class SpectralPages:
    """Exact page ranks and differentials within the built window."""

    def __init__(self, bc: WordBicomplex, max_page: int | None = None):
        self.bc = bc
        self.report_degree = bc.config.max_total_degree
        weights = [n for (n, _) in bc.quotients] or [1]
        self.max_weight_built = max(weights)
        self.stable_page = self.max_weight_built + 1
        self.max_page = max_page if max_page is not None else self.stable_page
        self._coords: dict[int, dict[BlockKey, tuple[int, int]]] = {}
        self._z_cache: dict[tuple[int, int, int], list[Vec]] = {}
        self._pres_cache: dict[tuple[int, int, int], tuple[list[Vec], list[Vec]]] = {}

    # -- total-complex coordinates ---------------------------------------------

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

    # -- Z spaces -----------------------------------------------------------------

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
        constrained = {
            bkey for bkey in target_layout if n - r < bkey[0] <= n
        }
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

    # -- E_r presentations -----------------------------------------------------------

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
        """Ranks per (column p, internal degree q) within the report window."""
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

    def check_dr_squared(self, max_page: int | None = None) -> None:
        pages = max_page if max_page is not None else self.max_page
        for r in range(1, pages + 1):
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
