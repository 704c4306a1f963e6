"""Reference computations for the oracles, written without echarr's code.

The rational model is rebuilt from the arrangement text alone: one generator
per color subset, degree 2*codim - |subset|, and the differential that drops a
color whose components each lie inside one component of the remaining colors,
with sign (-1)^j for the j-th color of the subset in the complex's order.
Ranks are taken modulo a large prime with sparse elimination, which cannot
exceed the rational rank; an oracle failure is therefore either a program
defect or a (vanishingly unlikely) prime dividing a minor, and the shape pool
is fixed, so the latter would show on every run that draws that shape.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

PRIME = 2_147_483_647


def parse(text: str) -> tuple[int, dict[str, list[tuple[int, ...]]]]:
    """(vertex count, color -> edges) from arrangement JSON text."""
    data = json.loads(text)
    by_color: dict[str, list[tuple[int, ...]]] = {}
    for record in data["edges"]:
        by_color.setdefault(record["color"], []).append(tuple(record["vertices"]))
    return data["vertices"], by_color


def _blocks(edges: list[tuple[int, ...]]) -> dict[int, int]:
    """Vertex -> block representative for the components of the edges."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        for v in e[1:]:
            a, b = find(e[0]), find(v)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return {v: find(v) for v in parent}


def _codim(blocks: dict[int, int]) -> int:
    return len(blocks) - len(set(blocks.values()))


class ReferenceHypergraph:
    """Codimension and refinement of color sets, from union-find alone."""

    def __init__(self, by_color: dict[str, list[tuple[int, ...]]]):
        self.by_color = by_color
        self._blocks: dict[frozenset, dict[int, int]] = {}

    def blocks(self, colors) -> dict[int, int]:
        key = frozenset(colors)
        if key not in self._blocks:
            self._blocks[key] = _blocks([e for c in key for e in self.by_color[c]])
        return self._blocks[key]

    def codim(self, colors) -> int:
        return _codim(self.blocks(colors))

    def multiplicative(self, g1, g2) -> bool:
        return self.codim(g1) + self.codim(g2) == self.codim(set(g1) | set(g2))

    def refines(self, g1, g2) -> bool:
        inner, outer = self.blocks(g1), self.blocks(g2)
        groups: dict[int, set] = {}
        for v, root in inner.items():
            groups.setdefault(root, set()).add(outer.get(v))
        return all(len(ids) == 1 and None not in ids for ids in groups.values())

    def massey_systems(self) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
        """(triple, embedded) of every five distinct colors a, b, c, d, e with
        a, b and ab, c transverse, d inside ab but containing neither a nor b
        alongside the other, and e likewise for bc."""
        out = set()
        colors = sorted(self.by_color)
        for a, b, c, d, e in itertools.permutations(colors, 5):
            if (
                self.multiplicative([a], [b])
                and self.multiplicative([a, b], [c])
                and self.refines([d], [a, b])
                and not self.refines([a], [b, d])
                and not self.refines([b], [a, d])
                and self.refines([e], [b, c])
                and not self.refines([b], [c, e])
                and not self.refines([c], [b, e])
            ):
                out.add(((a, b, c), (d, e)))
        return out


class ReferenceModel:
    """The atomic model over a given color order, subsets as bitmasks."""

    def __init__(self, by_color: dict[str, list[tuple[int, ...]]], order: list[str] | None = None):
        self.order = list(order) if order is not None else sorted(by_color)
        self.k = len(self.order)
        self.hypergraph = ReferenceHypergraph(by_color)
        self.degree = [
            2 * self.hypergraph.codim(self.colors(m)) - bin(m).count("1") for m in range(1 << self.k)
        ]

    def colors(self, mask: int) -> list[str]:
        return [self.order[i] for i in range(self.k) if mask >> i & 1]

    def d(self, mask: int) -> dict[int, int]:
        out: dict[int, int] = {}
        bits = [i for i in range(self.k) if mask >> i & 1]
        for j, bit in enumerate(bits, start=1):
            rest = mask ^ (1 << bit)
            if self.hypergraph.refines([self.order[bit]], self.colors(rest)):
                out[rest] = out.get(rest, 0) + (-1) ** j
        return out

    def d_chain(self, chain: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for mask, c in chain.items():
            for m2, s in self.d(mask).items():
                out[m2] = out.get(m2, Fraction(0)) + c * s
        return {m: c for m, c in out.items() if c}

    def mask_of(self, colors: list[str]) -> int:
        return sum(1 << self.order.index(c) for c in colors)

    def product(self, m1: int, m2: int) -> tuple[int, int] | None:
        """(sign, union) of two generators, or None when they are not
        transverse.  The sign is that of sorting the concatenated color
        list: one factor -1 per pair (i in m1, j in m2) with i after j."""
        if m1 & m2:
            return None
        colors1, colors2 = self.colors(m1), self.colors(m2)
        h = self.hypergraph
        if h.codim(colors1) + h.codim(colors2) != h.codim(colors1 + colors2):
            return None
        inversions = sum(1 for i in range(self.k) if m1 >> i & 1 for j in range(i) if m2 >> j & 1)
        return (-1) ** inversions, m1 | m2

    def multiply(self, a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                p = self.product(m1, m2)
                if p is not None:
                    out[p[1]] = out.get(p[1], Fraction(0)) + p[0] * c1 * c2
        return {m: c for m, c in out.items() if c}

    def basis(self, degree: int) -> list[int]:
        return [m for m, deg in enumerate(self.degree) if deg == degree]

    def cocycles(self, degree: int) -> list[dict[int, int]]:
        """A basis mod PRIME of the closed chains of one degree."""
        basis = self.basis(degree)
        return [{basis[i]: c for i, c in combo.items()} for combo in kernel_mod_p([self.d(m) for m in basis])]

    def coboundaries(self, degree: int) -> list[dict[int, int]]:
        """Rows spanning the image of d in `degree`."""
        return [self.d(m) for m in self.basis(degree - 1)]

    def betti(self, degrees: range, min_generator_degree: int | None = None) -> dict[int, int]:
        """Betti numbers of the subcomplex of generators of degree >= the minimum."""
        lo = min_generator_degree
        basis: dict[int, list[int]] = {}
        for m, deg in enumerate(self.degree):
            if lo is None or deg >= lo:
                basis.setdefault(deg, []).append(m)

        def rank_d(deg: int) -> int:
            if lo is not None and deg < lo:
                return 0
            return rank_mod_p([self.d(m) for m in basis.get(deg, [])])

        return {
            deg: len(basis.get(deg, [])) - rank_d(deg) - rank_d(deg - 1)
            for deg in degrees
        }


def in_span_mod_p(rows: list[dict[int, int]], chain: dict) -> bool:
    """Whether `chain` (integer or Fraction coefficients) lies in the span of rows mod PRIME."""
    row = {m: mod_p(c) for m, c in chain.items()}
    return rank_mod_p(rows + [row]) == rank_mod_p(rows)


def mod_p(c) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, PRIME - 2, PRIME) % PRIME


def kernel_mod_p(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """A basis of {x : sum_i x_i rows[i] = 0} mod PRIME, each as index -> coefficient."""
    pivots: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    kernel = []
    for i, row in enumerate(rows):
        r = {c: v % PRIME for c, v in row.items() if v % PRIME}
        combo = {i: 1}
        while r:
            col = min(r)
            if col not in pivots:
                inv = pow(r[col], PRIME - 2, PRIME)
                pivots[col] = ({c: v * inv % PRIME for c, v in r.items()}, {j: v * inv % PRIME for j, v in combo.items()})
                break
            f = r[col]
            prow, pcombo = pivots[col]
            for c, v in prow.items():
                nv = (r.get(c, 0) - f * v) % PRIME
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
            for j, v in pcombo.items():
                nv = (combo.get(j, 0) - f * v) % PRIME
                if nv:
                    combo[j] = nv
                else:
                    combo.pop(j, None)
        else:
            kernel.append(combo)
    return kernel


def model_degrees(edge_lists: list[list[tuple[int, ...]]]) -> list[int]:
    """Generator degrees of the model whose i-th color has edge_lists[i]."""
    model = ReferenceModel({str(i): es for i, es in enumerate(edge_lists)}, [str(i) for i in range(len(edge_lists))])
    return model.degree


def rank_mod_p(rows: list[dict[int, int]]) -> int:
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {c: v % PRIME for c, v in row.items() if v % PRIME}
        while r:
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(r[col], PRIME - 2, PRIME)
                pivots[col] = {c: v * inv % PRIME for c, v in r.items()}
                break
            f = r[col]
            for c, v in pivot.items():
                nv = (r.get(c, 0) - f * v) % PRIME
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
    return len(pivots)


def polynomial_value(coeffs: list[int], t: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * t + c
    return value
