"""Massey color systems, triple products, and non-formality certificates.

A Massey color system is five colors whose transversality and containment
pattern forces the classical triple-product construction through explicit
generators: the products a1*a2 and a2*a3 bound against the two embedded
colors, and the resulting cocycle is supported on the two four-color
generators.  When its class survives in cohomology and avoids the
indeterminacy ideal, the complement admits a non-trivial Massey product and
cannot be formal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .atomic_complex import AtomicComplex, Chain, ComplexConfig, DEFAULT_CONFIG
from .bicomplex import word_dMu, word_dW
from .errors import InputError, MismatchError
from .hypergraph import EdgeColoredHypergraph
from .linalg import Echelon, kernel_of_rows, vec_axpy


@dataclass(frozen=True)
class MasseyColorSystem:
    triple: tuple[str, str, str]
    embedded: tuple[str, str]
    nocolors_hypothesis: bool

    @property
    def colors(self) -> tuple[str, str, str, str, str]:
        return self.triple + self.embedded


def _satisfies_system(h: EdgeColoredHypergraph, a: str, b: str, c: str, d: str, e: str) -> bool:
    if not (h.multiplicative([a], [b]) and h.multiplicative([a, b], [c])):
        return False
    if not h.refines([d], [a, b]):
        return False
    if h.refines([a], [b, d]) or h.refines([b], [a, d]):
        return False
    if not h.refines([e], [b, c]):
        return False
    if h.refines([b], [c, e]) or h.refines([c], [b, e]):
        return False
    return True


def _nocolors_hypothesis(h: EdgeColoredHypergraph, colors: tuple[str, ...]) -> bool:
    """No leftover color refines either four-color set.

    Refinement of a color set reduces to refinement of its single colors, so
    scanning single colors decides the hypothesis for all nonempty subsets.
    """
    a, b, c, d, e = colors
    rest = [x for x in h.colors if x not in set(colors)]
    for x in rest:
        if h.refines([x], [a, b, c, d]) or h.refines([x], [a, b, c, e]):
            return False
    return True


def find_massey_color_systems(h: EdgeColoredHypergraph) -> list[MasseyColorSystem]:
    """Exhaustive scan over ordered triples with embedded-color candidates.

    Embedded candidates depend only on the pair they bound against, so they
    are collected once per pair; the full five-tuple conditions are never
    re-tested beyond that.
    """
    out = []
    colors = h.colors
    for a, b in itertools.permutations(colors, 2):
        if not h.multiplicative([a], [b]):
            continue
        d_candidates = [
            d
            for d in colors
            if d not in (a, b)
            and h.refines([d], [a, b])
            and not h.refines([a], [b, d])
            and not h.refines([b], [a, d])
        ]
        if not d_candidates:
            continue
        for c in colors:
            if c in (a, b) or not h.multiplicative([a, b], [c]):
                continue
            e_candidates = [
                e
                for e in colors
                if e not in (a, b, c)
                and h.refines([e], [b, c])
                and not h.refines([b], [c, e])
                and not h.refines([c], [b, e])
            ]
            for d in d_candidates:
                if d == c:
                    continue
                for e in e_candidates:
                    if e != d:
                        out.append(
                            MasseyColorSystem(
                                (a, b, c),
                                (d, e),
                                _nocolors_hypothesis(h, (a, b, c, d, e)),
                            )
                        )
    out.sort(key=lambda s: s.colors)
    return out


def ordered_complex(
    h: EdgeColoredHypergraph,
    system: MasseyColorSystem,
    config: ComplexConfig = DEFAULT_CONFIG,
) -> AtomicComplex:
    """Atomic complex whose order puts the system's five colors first."""
    five = list(system.colors)
    rest = sorted(set(h.colors) - set(five))
    return AtomicComplex(h, order=five + rest, config=config)


@dataclass
class D2Certificate:
    system: MasseyColorSystem
    cocycle: Chain
    degree: int
    closed: bool
    nonzero_class: bool
    d1_vanishes: bool
    zigzag_matches: bool
    zero_on_e2: bool

    def ok(self) -> bool:
        return self.closed and self.d1_vanishes and self.zigzag_matches


def _check_system_order(cx: AtomicComplex, system: MasseyColorSystem) -> None:
    pos = [cx.order.index(c) for c in system.colors]
    if pos != sorted(pos):
        raise InputError(
            "complex order must list the system colors ascending; "
            "use ordered_complex()"
        )


def massey_d2_class(cx: AtomicComplex, system: MasseyColorSystem) -> D2Certificate:
    """Cocycle hit by the page-two differential of the three-letter word.

    Returns the closed unit-coefficient combination supported on the two
    four-color generators, checks it against the explicit zig-zag lift of
    a1|a2|a3, and decides whether its class is nonzero and whether it dies on
    the second page by being a product of lower classes.
    """
    h = cx.hypergraph
    a, b, c = system.triple
    d, e = system.embedded
    if not _satisfies_system(h, a, b, c, d, e):
        raise InputError("not a Massey color system for this hypergraph")
    _check_system_order(cx, system)
    u, v, w = (cx.mask_of([x]) for x in (a, b, c))
    x_mask = cx.mask_of([a, b, d])
    y_mask = cx.mask_of([b, c, e])

    uv = cx.multiply_chains({u: 1}, {v: 1})
    if cx.d_chain({x_mask: 1}) != {m: -cc for m, cc in uv.items()}:
        raise MismatchError("embedded color does not bound the first product")
    vw = cx.multiply_chains({v: 1}, {w: 1})
    if cx.d_chain({y_mask: 1}) != {m: -cc for m, cc in vw.items()}:
        raise MismatchError("embedded color does not bound the second product")

    # z = u*y - (-1)^{|u|} x*w, the standard triple-product representative
    z: Chain = dict(cx.multiply_chains({u: 1}, {y_mask: 1}))
    vec_axpy(z, cx.multiply_chains({x_mask: 1}, {w: 1}), -((-1) ** cx.degree[u]))
    degree = cx.chain_degree(z)
    closed = cx.is_cocycle(z)
    nonzero = closed and not cx.is_coboundary(z)

    word = (u, v, w)
    d_mu_word = word_dMu(cx, {word: 1})
    lift = {(x_mask, w): -1, (u, y_mask): -1}
    d_w_lift = word_dW(cx, lift)
    target = {ww: -cc for ww, cc in d_mu_word.items()}
    d1_vanishes = not word_dW(cx, {word: 1}) and d_w_lift == target
    zigzag = word_dMu(cx, lift)
    zigzag_chain = {ww[0]: cc for ww, cc in zigzag.items()}
    zigzag_matches = zigzag_chain == z

    return D2Certificate(
        system=system,
        cocycle=z,
        degree=degree,
        closed=closed,
        nonzero_class=nonzero,
        d1_vanishes=d1_vanishes,
        zigzag_matches=zigzag_matches,
        zero_on_e2=_class_dies_on_page_two(cx, z, degree),
    )


def _class_dies_on_page_two(cx: AtomicComplex, z: Chain, degree: int) -> bool:
    """True iff z is a coboundary plus the merge of a two-letter cycle,
    i.e. the page-two class of z dies against the decomposables.

    Two-letter cycles only need their letterwise differential to vanish
    modulo the weight-two shuffle relations; merging kills those relations
    identically, so no further correction terms appear.
    """
    # z lies in coboundaries + merged cycles iff its residue modulo the
    # coboundaries lies in the span of the merged cycles' residues
    residues = cx._merged_cycles.get(degree)
    if residues is None:
        residues = cx._merged_cycles[degree] = _merged_cycle_residues(cx, degree)
    return residues.contains(cx.coboundaries(degree).reduce(z))


def _merged_cycle_residues(cx: AtomicComplex, degree: int) -> Echelon:
    """Span of the merged two-letter cycles of the degree modulo coboundaries."""
    coboundaries = cx.coboundaries(degree)
    letters = [m for m in range(1 << cx.n) if cx.degree[m] >= 1]
    by_degree: dict[int, list[int]] = {}
    for m in letters:
        by_degree.setdefault(cx.degree[m], []).append(m)
    pairs = [(m1, m2) for m1 in letters for m2 in by_degree.get(degree - cx.degree[m1], ())]
    relations = Echelon()
    for m1 in letters:
        for m2 in by_degree.get(degree + 1 - cx.degree[m1], ()):
            if m2 < m1:
                continue
            koszul = (cx.degree[m1] - 1) * (cx.degree[m2] - 1)
            rel = {(m1, m2): 1}
            rel[(m2, m1)] = rel.get((m2, m1), 0) + (-1) ** koszul
            relations.add(rel)
    rows = [relations.reduce(word_dW(cx, {pair: 1})) for pair in pairs]
    residues = Echelon()
    for combo in kernel_of_rows(rows):
        cycle = {pairs[i]: cc for i, cc in combo.items()}
        merged = word_dMu(cx, cycle)
        residues.add(coboundaries.reduce({word[0]: cc for word, cc in merged.items()}))
    return residues


@dataclass
class TripleProduct:
    defined: bool
    representative: Chain | None
    bounding_first: Chain | None
    bounding_second: Chain | None
    indeterminacy: tuple[Chain, Chain] | None


def massey_triple_product(cx: AtomicComplex, u: Chain, v: Chain, w: Chain) -> TripleProduct:
    """Standard representative u*y - (-1)^{|u|} x*w with dx = -uv, dy = -vw.

    The defined flag is False when either product has a nonzero class; the
    indeterminacy is the ideal generated by the outer classes.
    """
    for chain in (u, v, w):
        if not cx.is_cocycle(chain):
            raise InputError("triple product arguments must be cocycles")
    du, dv = cx.chain_degree(u), cx.chain_degree(v)
    dw = cx.chain_degree(w)
    if None in (du, dv, dw):
        raise InputError("triple product arguments must be nonzero")
    uv = cx.multiply_chains(u, v)
    vw = cx.multiply_chains(v, w)
    x = _solve_bounding(cx, uv, du + dv - 1)
    y = _solve_bounding(cx, vw, dv + dw - 1)
    if x is None or y is None:
        return TripleProduct(False, None, None, None, (u, w))
    rep: Chain = dict(cx.multiply_chains(u, y))
    vec_axpy(rep, cx.multiply_chains(x, w), -((-1) ** du))
    if not cx.is_cocycle(rep):
        raise MismatchError("triple-product representative failed to close")
    return TripleProduct(True, rep, x, y, (u, w))


def _solve_bounding(cx: AtomicComplex, product: Chain, degree: int) -> Chain | None:
    target = {m: -cc for m, cc in product.items()}
    if not target:
        return {}
    return cx.solve_d(target, degree)


def indeterminacy_span(cx: AtomicComplex, u: Chain, w: Chain, degree: int) -> Echelon:
    """Span of coboundaries plus u and w times cocycles of fitting degree."""
    span = Echelon()
    for row in cx.coboundaries(degree).rows.values():
        span.add(row)
    for outer in (u, w):
        deg_outer = cx.chain_degree(outer)
        if deg_outer is None:
            continue
        for cocycle in cx.cocycles(degree - deg_outer):
            span.add(cx.multiply_chains(outer, cocycle))
    return span


def kequal_top_degree(vertex_count: int, k: int) -> int:
    return vertex_count - 1 + (vertex_count // k) * (k - 2)


def kequal_no_massey(vertex_count: int, k: int) -> bool:
    """Degree-counting bound: all higher differentials land above the top
    nonvanishing cohomology degree."""
    if not 2 <= k <= vertex_count:
        raise InputError(f"need 2 <= k <= vertex_count, got k={k}, n={vertex_count}")
    return 6 * k - 9 > vertex_count + (vertex_count // k) * (k - 2)


def nonformality_report(
    h: EdgeColoredHypergraph, config: ComplexConfig = DEFAULT_CONFIG
) -> dict:
    """Scan for systems, certify their classes, and render a JSON-ready report."""
    systems = find_massey_color_systems(h)
    entries = []
    nonformal = False
    for system in systems:
        cx = ordered_complex(h, system, config)
        cert = massey_d2_class(cx, system)
        u, v, w = ({cx.mask_of([x]): 1} for x in system.triple)
        triple = massey_triple_product(cx, u, v, w)
        ideal = indeterminacy_span(cx, u, w, cert.degree)
        matches = False
        nontrivial = False
        if triple.defined and triple.representative is not None:
            diff = dict(cert.cocycle)
            vec_axpy(diff, triple.representative, -1)
            matches = ideal.contains(diff)
            nontrivial = cert.nonzero_class and not ideal.contains(cert.cocycle)
        nonformal = nonformal or nontrivial
        entries.append(
            {
                "triple": list(system.triple),
                "embedded": list(system.embedded),
                "nocolors_hypothesis": system.nocolors_hypothesis,
                "class_degree": cert.degree,
                "cocycle": _render_chain(cx, cert.cocycle),
                "closed": cert.closed,
                "nonzero_in_cohomology": cert.nonzero_class,
                "d1_of_word_vanishes": cert.d1_vanishes,
                "d2_matches_zigzag": cert.zigzag_matches,
                "zero_on_page_two": cert.zero_on_e2,
                "triple_product_defined": triple.defined,
                "triple_product_matches_mod_ideal": matches,
                "massey_product_nontrivial": nontrivial,
            }
        )
    return {"systems": entries, "nonformal": nonformal}


def _render_chain(cx: AtomicComplex, chain: Chain) -> list[dict]:
    out = []
    for mask in sorted(chain):
        coeff = chain[mask]
        out.append(
            {
                "colors": list(cx.colors_of(mask)),
                "coefficient": str(coeff) if coeff.denominator != 1 else int(coeff),
            }
        )
    return out
