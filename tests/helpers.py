"""Small library conveniences that only the tests call, kept out of `src/`."""

from __future__ import annotations

from typing import Iterable, Sequence

from echarr.atomic_complex import AtomicComplex
from echarr.errors import InputError
from echarr.hypergraph import ColorSet, EdgeColoredHypergraph
from echarr.lattice import IntersectionLattice
from echarr.linalg import Echelon, Vec
from echarr.massey import MasseyColorSystem


def rank_of_rows(rows: Sequence[Vec]) -> int:
    ech = Echelon()
    for r in rows:
        ech.add(r)
    return ech.rank


def degree_of(cx: AtomicComplex, colors: Iterable[str]) -> int:
    return cx.degree[cx.mask_of(colors)]


def differential_of(cx: AtomicComplex, colors: Iterable[str]) -> list[tuple[int, tuple[str, ...]]]:
    return [(c, cx.colors_of(m)) for c, m in cx.diff_mask(cx.mask_of(colors))]


def product_of(cx: AtomicComplex, colors1: Iterable[str], colors2: Iterable[str]):
    out = cx.product_masks(cx.mask_of(colors1), cx.mask_of(colors2))
    if out is None:
        return None
    sign, mask = out
    return sign, cx.colors_of(mask)


def index_of(lat: IntersectionLattice, colors) -> int:
    key = lat.hypergraph.closure(colors)
    if key not in lat._by_colors:
        raise InputError(f"no lattice element for colors {sorted(colors)}")
    return lat._by_colors[key]


def equivalent(h: EdgeColoredHypergraph, gamma1: Iterable[str], gamma2: Iterable[str]) -> bool:
    return h.refines(gamma1, gamma2) and h.refines(gamma2, gamma1)


def meet_colors(h: EdgeColoredHypergraph, gamma1: Iterable[str], gamma2: Iterable[str]) -> ColorSet:
    """Closed color set of the meet; empty encodes the ambient space."""
    return h.closure(gamma1) & h.closure(gamma2)


def is_proper(h: EdgeColoredHypergraph, coloring: Sequence[int]) -> bool:
    """True iff every color has some connected component that is not
    monochromatic under the vertex coloring (vertex v gets coloring[v-1])."""
    if len(coloring) != h.vertex_count:
        raise ValueError("coloring must assign a value to every vertex")
    for c in h.colors:
        components = h.components([c])
        if not any(len({coloring[v - 1] for v in comp}) > 1 for comp in components):
            return False
    return True


def ordered_complex(h: EdgeColoredHypergraph, system: MasseyColorSystem) -> AtomicComplex:
    """Atomic complex whose order puts the system's five colors first."""
    five = list(system.colors)
    rest = sorted(set(h.colors) - set(five))
    return AtomicComplex(h, order=five + rest)
