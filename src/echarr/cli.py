"""Command-line interface: parse arrangement files, compute, emit JSON.

Exit codes: 0 success, 1 computation mismatch, 2 input error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .atomic_complex import AtomicComplex, ComplexConfig
from .bicomplex import BicomplexConfig, WordBicomplex
from .chromatic import (
    EnumerationBudget,
    chromatic_polynomial,
    chromatic_polynomial_by_counting,
    count_proper_colorings,
)
from .errors import InputError, MismatchError, ResourceLimitError
from .hypergraph import EdgeColoredHypergraph
from .lattice import build_lattice
from .massey import kequal_no_massey, kequal_top_degree, nonformality_report
from .spectral import SpectralPages

_FILE_KEYS = {"vertices", "edges", "order", "strict", "max_degree", "max_page"}
_EDGE_KEYS = {"vertices", "color"}


def parse_arrangement(text: str) -> tuple[EdgeColoredHypergraph, dict]:
    """Arrangement file -> hypergraph plus the file's optional settings."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"malformed JSON: {err}") from err
    if not isinstance(data, dict):
        raise InputError("top level must be a JSON object")
    unknown = set(data) - _FILE_KEYS
    if unknown:
        raise InputError(f"unknown field(s): {sorted(unknown)}")
    if not isinstance(data.get("vertices"), int) or data["vertices"] < 1:
        raise InputError('"vertices" must be a positive integer')
    edges_field = data.get("edges")
    if not isinstance(edges_field, list):
        raise InputError('"edges" must be a list')
    edges = []
    for i, record in enumerate(edges_field):
        if not isinstance(record, dict) or set(record) - _EDGE_KEYS:
            raise InputError(f"edge {i}: expected only 'vertices' and 'color'")
        vs = record.get("vertices")
        if not isinstance(vs, list) or not all(isinstance(v, int) for v in vs):
            raise InputError(f"edge {i}: 'vertices' must be a list of integers")
        color = record.get("color")
        if not isinstance(color, str):
            raise InputError(f"edge {i}: 'color' must be a string")
        edges.append((vs, color))
    order = data.get("order")
    if order is not None and (
        not isinstance(order, list) or not all(isinstance(c, str) for c in order)
    ):
        raise InputError('"order" must be a list of color names')
    h = EdgeColoredHypergraph.from_edge_list(data["vertices"], edges, order)
    strict = bool(data.get("strict", False))
    problems = h.validate(strict=strict)
    if problems:
        raise InputError("; ".join(f"{v.kind}: {v.message}" for v in problems))
    options = {k: data[k] for k in ("max_degree", "max_page") if k in data}
    return h, options


def _load(path: str) -> tuple[EdgeColoredHypergraph, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    return parse_arrangement(text)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _complex_config(args) -> ComplexConfig:
    max_colors = ComplexConfig.max_colors
    if getattr(args, "max_generators", None) is not None:
        if args.max_generators < 1:
            raise InputError("--max-generators must be at least 1")
        max_colors = args.max_generators.bit_length() - 1
    return ComplexConfig(max_colors=max_colors)


def _cmd_lattice(args) -> int:
    h, _ = _load(args.file)
    lat = build_lattice(h)
    mu = lat.mobius()
    elements = [
        {
            "index": i,
            "colors": list(e.colors_sorted()),
            "partition": [list(b) for b in e.partition],
            "codim": e.codim,
            "mobius": mu[i],
        }
        for i, e in enumerate(lat.elements)
    ]
    out = {
        "elements": elements,
        "covers": [[lo, up] for lo, up in lat.cover_pairs()],
        "characteristic_polynomial": list(lat.characteristic_polynomial().coeffs),
    }
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(lat.hasse_dot() + "\n")
        out["dot"] = args.dot
    _emit(out)
    return 0


def _cmd_charpoly(args) -> int:
    h, _ = _load(args.file)
    budget = EnumerationBudget(max_points=args.max_colorings)
    results = {}
    if args.method in ("mobius", "all"):
        results["mobius"] = list(build_lattice(h).characteristic_polynomial().coeffs)
    if args.method in ("dc", "all"):
        dc = chromatic_polynomial(h)
        results["dc"] = list(dc.coeffs)
    if args.method in ("count", "all"):
        results["count"] = list(chromatic_polynomial_by_counting(h, budget).coeffs)
    polys = list(results.values())
    if args.method == "all":
        agree = all(p == polys[0] for p in polys)
        # counting interpolated t = 0..n, so only t = n+1 is a new check
        t = h.vertex_count + 1
        extra_ok = dc(t) == count_proper_colorings(h, t, budget)
        out = {"polynomial": polys[0], "methods": results, "agree": agree and extra_ok}
        _emit(out)
        return 0 if (agree and extra_ok) else 1
    _emit({"polynomial": polys[0], "method": args.method})
    return 0


def _cmd_geometric(args) -> int:
    h, _ = _load(args.file)
    witness = build_lattice(h).semimodularity_witness()
    out = {"geometric": witness is None}
    if witness is not None:
        out["witness"] = {
            "x": list(witness["x"]),
            "y": list(witness["y"]),
            "meet": list(witness["meet"]),
            "join": list(witness["join"]),
            "join_covers_x": witness["join_covers_x"],
            "join_covers_y": witness["join_covers_y"],
        }
    _emit(out)
    return 0


def _cmd_cohomology(args) -> int:
    h, options = _load(args.file)
    max_degree = args.max_degree if args.max_degree is not None else options.get("max_degree", 16)
    cx = AtomicComplex(h, config=_complex_config(args))
    result = cx.cohomology(max_degree=max_degree)
    out = {
        "max_degree": max_degree,
        "betti": {str(d): result.betti.get(d, 0) for d in sorted(result.betti)},
        "generators": {str(d): n for d, n in sorted(result.chain_dims.items())},
        "euler_characteristic": result.euler_characteristic(),
    }
    _emit(out)
    return 0


def _cmd_pi(args) -> int:
    h, options = _load(args.file)
    max_degree = args.max_degree if args.max_degree is not None else options.get("max_degree", 8)
    max_page = args.max_page if args.max_page is not None else options.get("max_page")
    cx = AtomicComplex(h, config=_complex_config(args))
    bc = WordBicomplex(
        cx,
        BicomplexConfig(max_total_degree=max_degree, max_weight=args.max_weight),
    )
    pages = SpectralPages(bc, max_page=max_page)
    page_table = {}
    for r in range(0, pages.max_page + 1):
        page_table[str(r)] = {
            f"{p},{q}": rank for (p, q), rank in sorted(pages.page_ranks(r).items())
        }
    out = {
        "pi_ranks": {str(d): r for d, r in pages.pi_ranks(max_degree).items()},
        "pages": page_table,
        "e_infinity": {
            f"{p},{q}": r for (p, q), r in sorted(pages.e_infinity_ranks().items())
        },
        "caveats": pages.caveats(),
    }
    _emit(out)
    return 0


def _cmd_massey(args) -> int:
    h, _ = _load(args.file)
    report = nonformality_report(h, config=_complex_config(args))
    _emit(report)
    return 0


def _cmd_kequal(args) -> int:
    _emit(
        {
            "no_massey": kequal_no_massey(args.vertices, args.k),
            "top_degree": kequal_top_degree(args.vertices, args.k),
        }
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echarr",
        description="Subspace arrangements from edge-colored hypergraphs: "
        "lattices, chromatic polynomials, cohomology, homotopy ranks, Massey "
        "obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="intersection lattice with Mobius values")
    p.add_argument("file")
    p.add_argument("--dot", help="also write a DOT Hasse diagram to this path")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("charpoly", help="characteristic/chromatic polynomial")
    p.add_argument("file")
    p.add_argument("--method", choices=["mobius", "dc", "count", "all"], default="all")
    p.add_argument("--max-colorings", type=int, default=EnumerationBudget.max_points)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("geometric", help="semimodularity test with witness")
    p.add_argument("file")
    p.set_defaults(func=_cmd_geometric)

    p = sub.add_parser("cohomology", help="Betti table of the rational model")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--max-generators", type=int, default=None)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("pi", help="spectral-sequence pages and homotopy ranks")
    p.add_argument("file")
    p.add_argument("--max-degree", "--max-total-degree", dest="max_degree", type=int, default=None)
    p.add_argument("--max-page", type=int, default=None)
    p.add_argument("--max-weight", type=int, default=BicomplexConfig.max_weight)
    p.add_argument("--max-generators", type=int, default=None)
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("massey", help="Massey color systems and non-formality")
    p.add_argument("file")
    p.add_argument("--max-generators", type=int, default=None)
    p.set_defaults(func=_cmd_massey)

    p = sub.add_parser("kequal", help="no-Massey bound for k-equal arrangements")
    p.add_argument("vertices", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_kequal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except ResourceLimitError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 3
    except MismatchError as err:
        print(f"computation mismatch: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
