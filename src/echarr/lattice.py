"""Intersection lattice of the arrangement encoded by an edge-colored hypergraph.

Elements are the closed color sets reachable from the atoms by joins, keyed by
their vertex partition and labeled by codimension.  The order is refinement of
partitions, equivalently containment of closed color sets.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import InputError
from .hypergraph import ColorSet, EdgeColoredHypergraph
from .polynomial import IntPolynomial


@dataclass(frozen=True)
class LatticeElement:
    closed_colors: ColorSet
    partition: tuple[tuple[int, ...], ...]
    codim: int

    def colors_sorted(self) -> tuple[str, ...]:
        return tuple(sorted(self.closed_colors))


class IntersectionLattice:
    """Finite lattice of closed color sets, bottom (empty set) first.

    Built by closing the atom set under pairwise union-then-closure; no
    artificial top is added (the join of all atoms is the natural top).
    """

    def __init__(self, h: EdgeColoredHypergraph):
        problems = h.validate(strict=False)
        if problems:
            raise InputError("invalid hypergraph: " + "; ".join(v.message for v in problems))
        self.hypergraph = h
        closed: set[ColorSet] = {h.closure([c]) for c in h.colors}
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(sorted(closed, key=sorted), 2):
                u = h.closure(a | b)
                if u not in closed:
                    closed.add(u)
                    changed = True
        closed.add(frozenset())
        elems = [
            LatticeElement(cs, h.partition(cs), h.codim(cs))
            for cs in closed
        ]
        elems.sort(key=lambda e: (e.codim, e.colors_sorted()))
        # closures are partition-determined, so partitions key the elements
        self.elements: list[LatticeElement] = elems
        self._by_colors = {e.closed_colors: i for i, e in enumerate(elems)}
        self.atom_indices = sorted({self._by_colors[h.closure([c])] for c in h.colors})
        self._mobius: dict[int, int] | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        """i <= j iff the partition of i refines that of j."""
        return self.elements[i].closed_colors <= self.elements[j].closed_colors

    def join(self, i: int, j: int) -> int:
        u = self.hypergraph.closure(
            self.elements[i].closed_colors | self.elements[j].closed_colors
        )
        return self._by_colors[u]

    def meet(self, i: int, j: int) -> int:
        m = self.elements[i].closed_colors & self.elements[j].closed_colors
        return self._by_colors[m]

    @functools.cached_property
    def _below(self) -> list[set[int]]:
        """Indices strictly below each element.  Elements are sorted by codim
        and strict order raises codim, so they all come earlier in the list."""
        return [{j for j in range(i) if self.leq(j, i)} for i in range(len(self.elements))]

    @functools.cached_property
    def _covered(self) -> list[set[int]]:
        """Indices each element covers: below it with nothing in between."""
        below = self._below
        return [b.difference(*(below[j] for j in b)) for b in below]

    def covers(self, upper: int, lower: int) -> bool:
        """True iff upper covers lower: lower < upper with nothing between."""
        return lower in self._covered[upper]

    def cover_pairs(self) -> list[tuple[int, int]]:
        """(lower, upper) pairs of the Hasse diagram."""
        return sorted((lower, upper) for upper, lows in enumerate(self._covered) for lower in lows)

    def mobius(self) -> dict[int, int]:
        """mu(bottom) = 1, mu(X) = -sum of mu over elements strictly below X."""
        if self._mobius is None:
            values: dict[int, int] = {0: 1}
            for i in range(1, len(self.elements)):
                values[i] = -sum(values[j] for j in self._below[i])
            self._mobius = values
        return self._mobius

    def characteristic_polynomial(self) -> IntPolynomial:
        """Sum of mu(X) * t^(dim X) with dim X = vertex_count - codim X."""
        n = self.hypergraph.vertex_count
        mu = self.mobius()
        poly = IntPolynomial.zero()
        for i, e in enumerate(self.elements):
            poly = poly + IntPolynomial.monomial(n - e.codim, mu[i])
        return poly

    def semimodularity_witness(self) -> dict | None:
        """First pair violating the cover condition, or None if geometric."""
        for i, j in itertools.combinations(range(len(self.elements)), 2):
            m = self.meet(i, j)
            if not (self.covers(i, m) and self.covers(j, m)):
                continue
            jn = self.join(i, j)
            if not (self.covers(jn, i) and self.covers(jn, j)):
                return {
                    "x": self.elements[i].colors_sorted(),
                    "y": self.elements[j].colors_sorted(),
                    "meet": self.elements[m].colors_sorted(),
                    "join": self.elements[jn].colors_sorted(),
                    "join_covers_x": self.covers(jn, i),
                    "join_covers_y": self.covers(jn, j),
                }
        return None

    def hasse_dot(self) -> str:
        """DOT digraph of cover relations, labeled with codim and colors."""
        lines = ["digraph lattice {"]
        for i, e in enumerate(self.elements):
            label = "{" + ",".join(e.colors_sorted()) + "} codim " + str(e.codim)
            lines.append(f'  n{i} [label="{label}"];')
        for lower, upper in self.cover_pairs():
            lines.append(f"  n{lower} -> n{upper};")
        lines.append("}")
        return "\n".join(lines)


def build_lattice(h: EdgeColoredHypergraph) -> IntersectionLattice:
    return IntersectionLattice(h)


def characteristic_polynomial(h: EdgeColoredHypergraph) -> IntPolynomial:
    return build_lattice(h).characteristic_polynomial()


def is_geometric(h: EdgeColoredHypergraph) -> bool:
    """Semimodularity of covers over the built lattice."""
    return build_lattice(h).semimodularity_witness() is None
