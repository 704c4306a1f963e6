"""Answer oracles: each returns the list of problems found (empty means correct).

An oracle never reuses the code path whose answer it checks.  The charpoly
answer carries three independent routes that must agree with each other and
with two enumeration counts; cohomology is checked against the Euler
characteristic chi_A(1) from deletion-contraction and against Betti numbers of
the reference model; the Massey systems are enumerated again and each
certificate (cocycle, d1, nonzero class, nontriviality modulo the
indeterminacy ideal) and the verdict are derived again in the reference
model, where only products and the differential are shared math; page-one
column-zero ranks are checked against the reference Betti numbers and sphere
products against their known homotopy ranks.
"""

from __future__ import annotations

from fractions import Fraction

import echarr.chromatic as chromatic
from echarr.hypergraph import EdgeColoredHypergraph

import reference
from workloads import MAX_TOTAL_DEGREE, Request


def check_charpoly(request: Request, answer: dict) -> list[str]:
    problems = []
    dc = answer["dc"]
    if not answer["mobius"] == dc == answer["count"]:
        problems.append(f"routes disagree: mobius {answer['mobius']} dc {dc} count {answer['count']}")
    n = request.shape.vertices
    if reference.polynomial_value(dc, n + 1) != answer["colorings_n_plus_1"]:
        problems.append(f"chi({n + 1}) != proper colorings with {n + 1} colors")
    if reference.polynomial_value(dc, 3) != answer["cube_points_s1"]:
        problems.append("chi(3) != points of {-1,0,1}^n off the arrangement")
    return problems


def _hypergraph(by_color: dict, vertices: int) -> EdgeColoredHypergraph:
    return EdgeColoredHypergraph.from_edge_list(
        vertices, [(e, c) for c, es in by_color.items() for e in es]
    )


def check_cohomology(request: Request, answer: dict) -> list[str]:
    problems = []
    betti = {int(d): b for d, b in answer["betti"].items()}
    euler = sum((-1) ** d * b for d, b in betti.items())
    if euler != answer["euler_characteristic"]:
        problems.append("reported Euler characteristic is not the alternating Betti sum")
    vertices, by_color = reference.parse(request.text)
    chi_at_1 = chromatic.chromatic_polynomial(_hypergraph(by_color, vertices))(1)
    if euler != chi_at_1:
        problems.append(f"Euler characteristic {euler} != chi_A(1) = {chi_at_1}")
    expected = reference.ReferenceModel(by_color).betti(range(min(betti), max(betti) + 1))
    if expected != betti:
        problems.append(f"Betti numbers {betti} != reference {expected}")
    return problems


def _chain(entry: dict) -> dict[frozenset, Fraction]:
    return {frozenset(term["colors"]): Fraction(term["coefficient"]) for term in entry["cocycle"]}


def _certify(model: reference.ReferenceModel, triple: list[str], embedded: list[str]) -> dict:
    """The d2 certificate of one system, derived again in the reference model.

    With u, v, w the triple's colors and x = abd, y = bce, the word u|v|w has
    vanishing d1 when dx = -uv and dy = -vw; its d2 is then the class of
    z = u*y - (-1)^|u| x*w.  The class is nonzero when z is not a coboundary,
    and the Massey product is nontrivial when z is not in the indeterminacy
    ideal: coboundaries plus u and w times cocycles of the fitting degree.
    """
    one = Fraction(1)
    u, v, w = ({model.mask_of([c]): one} for c in triple)
    x = {model.mask_of([triple[0], triple[1], embedded[0]]): one}
    y = {model.mask_of([triple[1], triple[2], embedded[1]]): one}

    def negated(chain):
        return {m: -c for m, c in chain.items()}

    d1_vanishes = (
        model.d_chain(x) == negated(model.multiply(u, v))
        and model.d_chain(y) == negated(model.multiply(v, w))
    )
    z = model.multiply(u, y)
    sign = (-1) ** model.degree[next(iter(u))]
    for m, c in model.multiply(x, w).items():
        z[m] = z.get(m, Fraction(0)) - sign * c
    z = {m: c for m, c in z.items() if c}
    degrees = {model.degree[m] for m in z}
    degree = degrees.pop() if len(degrees) == 1 else None
    coboundaries = model.coboundaries(degree) if degree is not None else []
    nonzero = degree is not None and not reference.in_span_mod_p(coboundaries, z)
    ideal = list(coboundaries)
    if degree is not None:
        for outer in (u, w):
            for cocycle in model.cocycles(degree - model.degree[next(iter(outer))]):
                product = model.multiply(outer, {m: Fraction(c) for m, c in cocycle.items()})
                ideal.append({m: reference.mod_p(c) for m, c in product.items()})
    return {
        "cocycle": z,
        "degree": degree,
        "closed": not model.d_chain(z),
        "d1_vanishes": d1_vanishes,
        "nonzero": nonzero,
        "nontrivial": nonzero and not reference.in_span_mod_p(ideal, z),
    }


def check_massey(request: Request, answer: dict) -> list[str]:
    problems = []
    _, by_color = reference.parse(request.text)
    found = {(tuple(e["triple"]), tuple(e["embedded"])) for e in answer["systems"]}
    expected = reference.ReferenceHypergraph(by_color).massey_systems()
    if found != expected or len(found) != len(answer["systems"]):
        problems.append(f"systems {sorted(found)} != reference {sorted(expected)}")
    any_nontrivial = False
    for entry in answer["systems"]:
        label = "/".join(entry["triple"] + entry["embedded"])
        five = entry["triple"] + entry["embedded"]
        model = reference.ReferenceModel(by_color, five + sorted(set(by_color) - set(five)))
        cert = _certify(model, entry["triple"], entry["embedded"])
        reported = {model.mask_of(sorted(colors)): c for colors, c in _chain(entry).items()}
        if reported != cert["cocycle"] or entry["class_degree"] != cert["degree"]:
            problems.append(f"{label}: cocycle differs from the reference u*y - (-1)^|u| x*w")
        if not cert["closed"] or not cert["d1_vanishes"]:
            problems.append(f"{label}: reference certificate does not close; not a Massey system")
        # the program's own flags must say what the reference derived
        for flag, value in (
            ("closed", cert["closed"]),
            ("d1_of_word_vanishes", cert["d1_vanishes"]),
            ("d2_matches_zigzag", True),
            ("nonzero_in_cohomology", cert["nonzero"]),
            ("triple_product_defined", cert["d1_vanishes"]),
            ("triple_product_matches_mod_ideal", cert["d1_vanishes"]),
            ("massey_product_nontrivial", cert["nontrivial"]),
        ):
            if entry[flag] is not value:
                problems.append(f"{label}: {flag} is {entry[flag]}, reference says {value}")
        any_nontrivial = any_nontrivial or cert["nontrivial"]
    if answer["nonformal"] is not any_nontrivial:
        problems.append(f"non-formality verdict {answer['nonformal']}, reference says {any_nontrivial}")
    if request.shape.expect_nonformal and answer["nonformal"] is not True:
        problems.append(f"{request.shape.tag} must be reported non-formal")
    return problems


def check_pi(request: Request, answer: dict) -> list[str]:
    problems = []
    _, by_color = reference.parse(request.text)
    degrees = range(1, MAX_TOTAL_DEGREE + 1)
    expected = reference.ReferenceModel(by_color).betti(degrees, min_generator_degree=1)
    e1 = {int(q): r for q, r in answer["e1_column0"].items()}
    if e1 != expected:
        problems.append(f"page-one column-zero ranks {e1} != positive Betti numbers {expected}")
    known = request.shape.expected_pi
    if known is not None:
        pi = {int(d): r for d, r in answer["pi_ranks"].items()}
        if pi != dict(known):
            problems.append(f"pi ranks {pi} != known sphere-product ranks {dict(known)}")
    return problems


CHECKS = {
    "charpoly": check_charpoly,
    "cohomology": check_cohomology,
    "massey": check_massey,
    "pi": check_pi,
}


def check(request: Request, answer: dict) -> list[str]:
    return CHECKS[request.kind](request, answer)
