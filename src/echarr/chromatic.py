"""Generalized chromatic polynomial of an edge-colored hypergraph.

Three independent routes are provided: counting proper vertex colorings,
deletion-contraction recursion, and (in the lattice module) the
Mobius-function characteristic polynomial.

Whether a coloring is proper depends only on its kernel partition (which
vertices share a color), so the counting route walks the vertex partitions
once and tabulates N_k, the proper partitions with k blocks; then
P(t) = sum_k N_k (t)_k with (t)_k the falling factorial (Read, *An
introduction to chromatic polynomials*, 1968).  A point of the symmetric cube
{-s..s}^n lies on a color's subspace exactly when its kernel partition leaves
every component of that color monochromatic, so the points avoiding the
arrangement are the same partition sum at t = 2s+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ResourceLimitError
from .hypergraph import EdgeColoredHypergraph
from .polynomial import IntPolynomial


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard cap for the counting kernel: vertex partitions enumerated.

    The default admits 12 vertices: Bell(12) = 4,213,597 partitions take 2-3 s
    on a 2-vCPU VM, and Bell(13) is 6.5 times as many.
    """

    max_partitions: int = 5_000_000


DEFAULT_BUDGET = EnumerationBudget()


def _bell(n: int) -> int:
    """Number of partitions of an n-set, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _partition_counts(
    h: EdgeColoredHypergraph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[int]:
    """N[k]: vertex partitions with k blocks under which every color keeps a
    component that is not inside one block, for k = 0..n.

    Walks the restricted-growth strings of the vertices 1..n once; vertex i
    breaks a component of a color when it lands in another block than the
    component's smallest vertex.
    """
    n = h.vertex_count
    partitions = _bell(n)
    if partitions > budget.max_partitions:
        raise ResourceLimitError(
            f"{partitions} partitions of {n} vertices exceed the budget of {budget.max_partitions}",
            limit=budget.max_partitions,
        )
    table = [h.components([c]) for c in h.colors]
    counts = [0] * (n + 1)
    full = (1 << len(table)) - 1
    if n == 0:
        counts[0] = int(full == 0)
        return counts
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bit, components in enumerate(table):
        for comp in components:
            first, *rest = sorted(comp)
            for v in rest:
                checks[v - 1].append((first - 1, 1 << bit))
    block = [0] * n

    def walk(i: int, k: int, broken: int) -> None:
        # vertex i joins one of the blocks 0..k-1 or opens block k
        pairs = checks[i]
        last = i + 1 == n
        for b in range(k + 1):
            mask = broken
            for j, bit in pairs:
                if block[j] != b:
                    mask |= bit
            if not last:
                block[i] = b
                walk(i + 1, k + (b == k), mask)
            elif mask == full:
                counts[k + (b == k)] += 1

    walk(0, 0, 0)
    return counts


def _falling_sum(counts: list[int], t: int) -> int:
    """sum_k counts[k] (t)_k."""
    total, falling = 0, 1
    for k, count in enumerate(counts):
        total += count * falling
        falling *= t - k
    return total


def count_proper_colorings(
    h: EdgeColoredHypergraph, t: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> int:
    """Exact count of proper colorings with t colors: sum_k N_k (t)_k."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return _falling_sum(_partition_counts(h, budget), t)


def integer_point_count(
    h: EdgeColoredHypergraph, s: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> int:
    """Points of {-s..s}^n lying on none of the arrangement's subspaces.

    A point lies on a color's subspace iff it is constant along every
    connected component of that color's edges, that is, iff as a coloring
    with the 2s+1 values it leaves that color's components monochromatic.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    return _falling_sum(_partition_counts(h, budget), 2 * s + 1)


def _canonical_key(h: EdgeColoredHypergraph):
    structures = sorted(
        tuple(sorted(tuple(sorted(e)) for e in h.edges_of(c))) for c in h.colors
    )
    relabel: dict[int, int] = {}
    for edges in structures:
        for e in edges:
            for v in e:
                if v not in relabel:
                    relabel[v] = len(relabel) + 1
    rebuilt = sorted(
        tuple(sorted(tuple(sorted(relabel[v] for v in e)) for e in edges))
        for edges in structures
    )
    return h.vertex_count, tuple(rebuilt)


def chromatic_polynomial(
    h: EdgeColoredHypergraph,
    choose_pivot: Callable[[EdgeColoredHypergraph], str] | None = None,
) -> IntPolynomial:
    """Deletion-contraction recursion with base case t^n for edgeless inputs.

    The default pivot is the color with fewest edges, ties broken by the
    canonical color order; the result is pivot-independent.
    """
    memo: dict = {}

    def default_pivot(g: EdgeColoredHypergraph) -> str:
        order = {c: i for i, c in enumerate(g.colors)}
        return min(g.colors, key=lambda c: (len(g.edges_of(c)), order[c]))

    pick = choose_pivot or default_pivot

    def rec(g: EdgeColoredHypergraph) -> IntPolynomial:
        if not g.colors:
            return IntPolynomial.monomial(g.vertex_count)
        key = _canonical_key(g)
        if key not in memo:
            pivot = pick(g)
            contracted = g.contract_color(pivot)
            # a color whose every edge collapsed inside a pivot component can
            # never witness a non-monochromatic component again, so the whole
            # contraction branch counts zero colorings
            killed = (set(g.colors) - {pivot}) - set(contracted.colors)
            right = IntPolynomial.zero() if killed else rec(contracted)
            memo[key] = rec(g.delete_color(pivot)) - right
        return memo[key]

    return rec(h)


def chromatic_polynomial_by_counting(
    h: EdgeColoredHypergraph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> IntPolynomial:
    """sum_k N_k (t)_k over the proper partition counts, expanded exactly."""
    coeffs = [0] * (h.vertex_count + 1)
    falling = [1]  # coefficients of (t)_k, low to high
    for k, count in enumerate(_partition_counts(h, budget)):
        for d, c in enumerate(falling):
            coeffs[d] += count * c
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
    return IntPolynomial(coeffs)
