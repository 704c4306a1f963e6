"""Edge-colored hypergraphs and the combinatorics of their subspace arrangements.

A hypergraph on vertices {1..n} with edges of size >= 2 plus a color for each
edge encodes a subspace arrangement inside the braid arrangement: each color
contributes the subspace where the coordinates are equal along every connected
component of that color's edges.  All arrangement combinatorics (codimension,
containment, closure, transversality) reduce to component bookkeeping on the
hypergraph, which is what this module implements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InputError

ColorSet = frozenset[str]


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


class _DisjointSet:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


@dataclass(frozen=True)
class EdgeColoredHypergraph:
    """Immutable edge-colored hypergraph; every operation is a pure function.

    Vertices are 1-indexed integers.  Colors are strings with a stable
    canonical order: lexicographic unless `color_order` overrides it.
    """

    vertex_count: int
    edges: tuple[frozenset[int], ...]
    edge_colors: tuple[str, ...]
    color_order: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(frozenset(e) for e in self.edges))
        object.__setattr__(self, "edge_colors", tuple(str(c) for c in self.edge_colors))
        if len(self.edges) != len(self.edge_colors):
            raise InputError("edges and edge_colors must have the same length")
        if self.color_order is not None:
            order = tuple(self.color_order)
            used = set(self.edge_colors)
            if set(order) != used or len(set(order)) != len(order):
                raise InputError("color_order must be a permutation of the used colors")
            object.__setattr__(self, "color_order", order)

    @classmethod
    def from_edge_list(
        cls,
        vertex_count: int,
        colored_edges: Iterable[tuple[Iterable[int], str]],
        color_order: Sequence[str] | None = None,
    ) -> "EdgeColoredHypergraph":
        edges = []
        colors = []
        for vertices, color in colored_edges:
            edges.append(frozenset(int(v) for v in vertices))
            colors.append(color)
        return cls(
            vertex_count,
            tuple(edges),
            tuple(colors),
            tuple(color_order) if color_order is not None else None,
        )

    @property
    def colors(self) -> tuple[str, ...]:
        if self.color_order is not None:
            return self.color_order
        return tuple(sorted(set(self.edge_colors)))

    def with_color_order(self, order: Sequence[str]) -> "EdgeColoredHypergraph":
        return EdgeColoredHypergraph(self.vertex_count, self.edges, self.edge_colors, tuple(order))

    def edges_of(self, color: str) -> tuple[frozenset[int], ...]:
        self._check_colors([color])
        return tuple(e for e, c in zip(self.edges, self.edge_colors) if c == color)

    def _check_colors(self, colors: Iterable[str]) -> ColorSet:
        gamma = frozenset(colors)
        unknown = gamma - set(self.colors)
        if unknown:
            raise InputError(f"unknown color identifier(s): {sorted(unknown)}")
        return gamma

    # -- component combinatorics ------------------------------------------

    def components(self, colors: Iterable[str]) -> tuple[frozenset[int], ...]:
        """Vertex sets of the connected components of the selected edges.

        Components are maximal connected sets of edges; each returned vertex
        set has size >= 2.  The empty color set selects no edges.
        """
        gamma = self._check_colors(colors)
        return _components(self, gamma)

    def codim(self, colors: Iterable[str]) -> int:
        """Codimension of the intersection subspace: sum of (|block| - 1)."""
        return sum(len(v) - 1 for v in self.components(colors))

    def partition(self, colors: Iterable[str]) -> tuple[tuple[int, ...], ...]:
        """Vertex partition: component blocks padded with singletons."""
        blocks = [tuple(sorted(v)) for v in self.components(colors)]
        covered = set().union(*blocks) if blocks else set()
        blocks.extend((v,) for v in range(1, self.vertex_count + 1) if v not in covered)
        return tuple(sorted(blocks))

    def refines(self, gamma1: Iterable[str], gamma2: Iterable[str]) -> bool:
        """True iff every component of gamma1 lies inside a component of gamma2.

        Equivalently the subspace of gamma1 contains the subspace of gamma2.
        """
        comps2 = self.components(gamma2)
        block_of: dict[int, int] = {}
        for i, comp in enumerate(comps2):
            for v in comp:
                block_of[v] = i
        for comp in self.components(gamma1):
            ids = {block_of.get(v) for v in comp}
            if len(ids) != 1 or None in ids:
                return False
        return True

    def closure(self, colors: Iterable[str]) -> ColorSet:
        """Maximal color set with the same components; a closure operator."""
        gamma = self._check_colors(colors)
        return frozenset(c for c in self.colors if self.refines([c], gamma))

    def multiplicative(self, gamma1: Iterable[str], gamma2: Iterable[str]) -> bool:
        """True iff codimensions add exactly under union (transversality)."""
        g1 = self._check_colors(gamma1)
        g2 = self._check_colors(gamma2)
        return self.codim(g1) + self.codim(g2) == self.codim(g1 | g2)

    # -- deletion and contraction -----------------------------------------

    def delete_color(self, color: str) -> "EdgeColoredHypergraph":
        self._check_colors([color])
        kept = [(e, c) for e, c in zip(self.edges, self.edge_colors) if c != color]
        order = None
        if self.color_order is not None:
            order = tuple(c for c in self.color_order if c != color)
        return EdgeColoredHypergraph(
            self.vertex_count,
            tuple(e for e, _ in kept),
            tuple(c for _, c in kept),
            order,
        )

    def contract_color(self, color: str) -> "EdgeColoredHypergraph":
        """Identify each component of the color to one vertex, then re-index.

        Merged vertices are named by the minimum of their block, survivors are
        re-indexed densely into {1..n'}.  Edges that shrink below two distinct
        vertices are dropped, along with colors left edgeless.
        """
        self._check_colors([color])
        rep = {v: v for v in range(1, self.vertex_count + 1)}
        for comp in self.components([color]):
            m = min(comp)
            for v in comp:
                rep[v] = m
        survivors = sorted(set(rep.values()))
        relabel = {old: i + 1 for i, old in enumerate(survivors)}
        edges = []
        colors = []
        for e, c in zip(self.edges, self.edge_colors):
            if c == color:
                continue
            image = frozenset(relabel[rep[v]] for v in e)
            if len(image) >= 2:
                edges.append(image)
                colors.append(c)
        order = None
        if self.color_order is not None:
            order = tuple(c for c in self.color_order if c in set(colors))
        return EdgeColoredHypergraph(len(survivors), tuple(edges), tuple(colors), order)

    # -- validation ---------------------------------------------------------

    def validate(self, strict: bool = False) -> list[Violation]:
        """Diagnostics, not exceptions.

        Strict mode additionally flags distinct colors where one refines the
        other, which would put an inclusion between arrangement subspaces.
        """
        out: list[Violation] = []
        for i, e in enumerate(self.edges):
            if len(e) < 2:
                out.append(Violation("edge_size", f"edge {i} has fewer than 2 distinct vertices"))
            bad = [v for v in e if not 1 <= v <= self.vertex_count]
            if bad:
                out.append(Violation("vertex_range", f"edge {i} has out-of-range vertices {sorted(bad)}"))
        used = set(self.edge_colors)
        for c in self.colors:
            if c not in used:
                out.append(Violation("edgeless_color", f"color {c!r} has no edges"))
        if strict and not out:
            for a, b in itertools.permutations(self.colors, 2):
                if self.refines([a], [b]):
                    out.append(Violation("color_refinement", f"color {a!r} refines color {b!r}"))
        return out


@lru_cache(maxsize=None)
def _components(h: EdgeColoredHypergraph, gamma: ColorSet) -> tuple[frozenset[int], ...]:
    ds = _DisjointSet()
    touched: set[int] = set()
    for e, c in zip(h.edges, h.edge_colors):
        if c not in gamma:
            continue
        vs = sorted(e)
        touched.update(vs)
        for v in vs[1:]:
            ds.union(vs[0], v)
    groups: dict[int, set[int]] = {}
    for v in touched:
        groups.setdefault(ds.find(v), set()).add(v)
    return tuple(frozenset(g) for _, g in sorted(groups.items()))


def build_kequal(vertex_count: int, k: int) -> EdgeColoredHypergraph:
    """All k-subsets of {1..n} as edges, one fresh color per edge."""
    if not 2 <= k <= vertex_count:
        raise InputError(f"need 2 <= k <= vertex_count, got k={k}, n={vertex_count}")
    sep = "" if vertex_count <= 9 else "."
    edges = []
    colors = []
    for combo in itertools.combinations(range(1, vertex_count + 1), k):
        edges.append(frozenset(combo))
        colors.append("e" + sep.join(str(v) for v in combo))
    return EdgeColoredHypergraph(vertex_count, tuple(edges), tuple(colors))
