"""Layer tracer for the echarr benchmark, kept entirely outside the library.

`Tracer.install` wraps the public functions and methods of every module in
``LAYERS`` where they are looked up: methods on their class, module-level
functions in every ``echarr`` namespace that holds them (the modules import
names directly, so ``echarr.spectral.kernel_of_rows`` is patched as well as
``echarr.linalg.kernel_of_rows``).  A wrapped call made while a request is
open records a span (name, parent, start, end) in flat in-memory arrays;
calls made outside a request, such as those of the oracles, record nothing.
`uninstall` restores every original.

A span's self time is its duration minus the durations of its child spans.
Per-layer metrics are derived from the spans and a few counters taken at the
same boundaries (`_HOOKS`); every metric is a per-request mean over the traced
requests unless its unit says otherwise.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = (
    "cli",
    "hypergraph",
    "lattice",
    "chromatic",
    "polynomial",
    "linalg",
    "atomic_complex",
    "bicomplex",
    "spectral",
    "massey",
)

# Leaf helpers whose own cost is about that of a span (a cached lookup, one
# set comparison, a dict update); wrapping them would mostly measure the
# tracer, so their time stays in the caller's self time.
_UNWRAPPED = {
    "atomic_complex.AtomicComplex.diff_mask",
    "atomic_complex.AtomicComplex.product_masks",
    "hypergraph.EdgeColoredHypergraph.components",
    "lattice.IntersectionLattice.leq",
    "linalg.vec_scale",
    "linalg.vec_axpy",
    "linalg.vec_from_ints",
    "spectral.SpectralPages.coords",
}
# Private methods that a per-layer metric needs as a boundary.
_EXTRA = {"bicomplex.WordBicomplex._enumerate_words"}


def _counting(counter: Counter, key: str, items):
    for item in items:
        counter[key] += 1
        yield item


def _pre_quotient(counter, args, kwargs):
    if len(args) > 2:
        args = args[:2] + (_counting(counter, "linalg.quotient_relations", args[2]),) + args[3:]
    else:
        kwargs = dict(kwargs, relations=_counting(counter, "linalg.quotient_relations", kwargs["relations"]))
    return args, kwargs


def _pre_count(counter, args, kwargs):
    h = args[0]
    t = args[1] if len(args) > 1 else kwargs["t"]
    if t > 0:
        counter["chromatic.count_points"] += t**h.vertex_count
    return args, kwargs


def _post(key, measure):
    def post(counter, args, result):
        counter[key] += measure(args, result)

    return post


# qualified name -> (pre(counter, args, kwargs) -> (args, kwargs), post(counter, args, result))
_HOOKS = {
    "lattice.IntersectionLattice.__init__": (
        None,
        _post("lattice.elements", lambda a, r: len(a[0].elements)),
    ),
    "linalg.Echelon.add": (None, _post("linalg.rank_grew", lambda a, r: 1 if r else 0)),
    "linalg.QuotientSpace.__init__": (
        _pre_quotient,
        _post("linalg.quotient_rank", lambda a, r: a[0].ncols - a[0].dim),
    ),
    "chromatic.count_proper_colorings": (_pre_count, None),
    "atomic_complex.AtomicComplex.__init__": (
        None,
        _post("atomic_complex.generators", lambda a, r: 1 << a[0].n),
    ),
    "bicomplex.WordBicomplex.__init__": (
        None,
        _post("bicomplex.words", lambda a, r: sum(len(ws) for ws in a[0].words_by_bidegree.values())),
    ),
    "massey.find_massey_color_systems": (None, _post("massey.systems", lambda a, r: len(r))),
}


class Tracer:
    """Flat span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._sid: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.requests: list[tuple[int, int]] = []  # (root span, one past last span)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def sid(self, name: str) -> int:
        if name not in self._sid:
            self._sid[name] = len(self.names)
            self.names.append(name)
        return self._sid[name]

    def _open(self, sid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, kind: str) -> int:
        return self._open(self.sid("request." + kind))

    def end_request(self, root: int) -> None:
        self._close(root)
        self.requests.append((root, len(self.span_name)))

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, qualname: str):
        sid = self.sid(qualname)
        stack = self._stack
        span_name, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        clock = time.perf_counter
        pre, post = _HOOKS.get(qualname, (None, None))
        counters = self.counters

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if pre is not None:
                args, kwargs = pre(counters, args, kwargs)
            idx = len(span_name)
            span_name.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module("echarr." + layer) for layer in LAYERS}
        namespaces = [m for name, m in sys.modules.items() if name == "echarr" or name.startswith("echarr.")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and _wanted(f"{layer}.{name}"):
                    wrapped = self._wrap(obj, f"{layer}.{name}")
                    for ns in namespaces:
                        if ns.__dict__.get(name) is obj:
                            self._set(ns, name, wrapped)
                elif inspect.isclass(obj) and not name.startswith("_"):
                    for attr, fn in list(vars(obj).items()):
                        if (
                            inspect.isfunction(fn)
                            and fn.__code__.co_filename == mod.__file__
                            and _wanted(f"{layer}.{name}.{attr}")
                        ):
                            self._set(obj, attr, self._wrap(fn, f"{layer}.{name}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans of the run as a NumPy ``.npz``: per span its name index
        into ``names``, parent span (-1 for a request root), start and end in
        seconds; ``requests`` holds each request's [root, stop) span range."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            requests=np.array(self.requests, dtype=np.int64).reshape(-1, 2),
        )

    def summary(self) -> dict:
        """Per-name calls, total and self time over all traced requests."""
        nsid = len(self.names)
        calls = [0] * nsid
        total = [0.0] * nsid
        self_time = [0.0] * nsid
        pair_calls: Counter = Counter()  # (child name, parent name) -> calls
        pair_time: Counter = Counter()  # (child name, parent name) -> seconds
        entry_time: Counter = Counter()  # layer -> time of spans entered from another layer
        layer_of = [n.split(".", 1)[0] for n in self.names]
        name, parent = self.span_name, self.span_parent
        request_time = 0.0
        for root, stop in self.requests:
            request_time += self.span_end[root] - self.span_start[root]
            covered: dict[int, float] = {}
            for i in range(root + 1, stop):
                covered[parent[i]] = covered.get(parent[i], 0.0) + self.span_end[i] - self.span_start[i]
            for i in range(root, stop):
                dur = self.span_end[i] - self.span_start[i]
                sid = name[i]
                calls[sid] += 1
                total[sid] += dur
                self_time[sid] += dur - covered.get(i, 0.0)
                if i != root:
                    psid = name[parent[i]]
                    pair_calls[sid, psid] += 1
                    pair_time[sid, psid] += dur
                    if layer_of[psid] != layer_of[sid]:
                        entry_time[layer_of[sid]] += dur
        return {
            "sid": dict(self._sid),
            "calls": calls,
            "total": total,
            "self": self_time,
            "layer_of": layer_of,
            "pair_calls": pair_calls,
            "pair_time": pair_time,
            "entry_time": entry_time,
            "request_time": request_time,
            "requests": len(self.requests),
            "counters": Counter(self.counters),
        }


def _wanted(qualname: str) -> bool:
    """Public functions and methods, constructors, and the named extras."""
    if qualname in _EXTRA:
        return True
    if qualname in _UNWRAPPED:
        return False
    attr = qualname.rsplit(".", 1)[1]
    return attr == "__init__" or not attr.startswith("_")


# -- per-layer metrics ----------------------------------------------------------

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("hypergraph.closure_calls", "count/req", "lower", "latency_p90_ms on charpoly"),
    ("hypergraph.closure_self_s", "s/req", "lower", "latency_p90_ms on charpoly"),
    ("hypergraph.refines_calls", "count/req", "lower", "latency_p90_ms on model"),
    ("hypergraph.refines_self_s", "s/req", "lower", "latency_p90_ms on model"),
    ("hypergraph.components_cache_hit_ratio", "ratio", "higher", "latency_p90_ms on charpoly and model"),
    ("hypergraph.components_cache_entries", "count/req", "lower", "peak_rss_mb on charpoly and model"),
    ("lattice.build_s", "s/req", "lower", "latency_p90_ms and requests_per_s on charpoly"),
    ("lattice.elements", "count/req", "lower", "latency_p90_ms and requests_per_s on charpoly"),
    ("lattice.closure_calls_per_element", "ratio", "lower", "latency_p90_ms and requests_per_s on charpoly"),
    ("lattice.mobius_s", "s/req", "lower", "latency_p90_ms and requests_per_s on charpoly"),
    ("lattice.semimodularity_s", "s/req", "lower", "latency_p90_ms and requests_per_s on charpoly"),
    ("chromatic.dc_s", "s/req", "lower", "latency_p50_ms and requests_per_s on charpoly"),
    ("chromatic.count_s", "s/req", "lower", "latency_p50_ms and requests_per_s on charpoly"),
    ("chromatic.count_points", "count/req", "lower", "latency_p50_ms and requests_per_s on charpoly"),
    ("chromatic.points_per_s", "1/s", "higher", "latency_p50_ms and requests_per_s on charpoly"),
    ("chromatic.cube_count_s", "s/req", "lower", "latency_p50_ms and requests_per_s on charpoly"),
    ("polynomial.interpolate_s", "s/req", "lower", "latency_p50_ms and requests_per_s on charpoly"),
    ("linalg.echelon_add_calls", "count/req", "lower", "requests_per_s on homotopy, latency_p90_ms on model"),
    ("linalg.echelon_add_self_s", "s/req", "lower", "requests_per_s on homotopy, latency_p90_ms on model"),
    ("linalg.rank_growth_ratio", "ratio", "higher", "requests_per_s on homotopy, latency_p90_ms on model"),
    ("linalg.reduce_self_s", "s/req", "lower", "requests_per_s on homotopy, latency_p90_ms on model"),
    ("linalg.kernel_self_s", "s/req", "lower", "requests_per_s on homotopy, latency_p90_ms on model"),
    ("linalg.quotient_build_s", "s/req", "lower", "requests_per_s on homotopy"),
    ("linalg.quotient_relations_ratio", "ratio", "higher", "requests_per_s on homotopy"),
    ("atomic_complex.build_s", "s/req", "lower", "latency_p50_ms on model"),
    ("atomic_complex.generators", "count/req", "lower", "latency_p50_ms on model"),
    ("atomic_complex.cohomology_s", "s/req", "lower", "latency_p50_ms on model"),
    ("atomic_complex.solve_d_calls", "count/req", "lower", "latency_p50_ms on model"),
    ("bicomplex.words", "count/req", "lower", "requests_per_s and latency_p90_ms on homotopy"),
    ("bicomplex.enumerate_s", "s/req", "lower", "requests_per_s and latency_p90_ms on homotopy"),
    ("bicomplex.quotient_s", "s/req", "lower", "requests_per_s and latency_p90_ms on homotopy"),
    ("bicomplex.induced_maps_s", "s/req", "lower", "requests_per_s and latency_p90_ms on homotopy"),
    ("bicomplex.validate_s", "s/req", "lower", "requests_per_s and latency_p90_ms on homotopy"),
    ("bicomplex.shuffle_calls", "count/req", "lower", "requests_per_s and latency_p90_ms on homotopy"),
    ("spectral.pages_s", "s/req", "lower", "latency_p90_ms on homotopy"),
    ("spectral.z_basis_calls", "count/req", "lower", "latency_p90_ms on homotopy"),
    ("spectral.z_basis_s", "s/req", "lower", "latency_p90_ms on homotopy"),
    ("spectral.presentation_s", "s/req", "lower", "latency_p90_ms on homotopy"),
    ("massey.find_systems_s", "s/req", "lower", "latency_p90_ms on model"),
    ("massey.systems", "count/req", "lower", "latency_p90_ms on model"),
    ("massey.ordered_complex_builds", "count/req", "lower", "latency_p90_ms on model"),
    ("massey.d2_class_s", "s/req", "lower", "latency_p90_ms on model"),
    ("massey.triple_product_s", "s/req", "lower", "latency_p90_ms on model"),
    ("massey.indeterminacy_s", "s/req", "lower", "latency_p90_ms on model"),
    ("cli.parse_s", "s/req", "lower", "nothing noticeable; shows a slower parser"),
] + [
    (f"{layer}.self_s", "s/req", "lower", "self time of the layer; the rows above say what it moves")
    for layer in LAYERS
] + [
    ("trace.self_coverage", "ratio", "higher", "share of request wall time covered by layer self times"),
    ("trace.untraced_requests_per_s", "1/s", "higher", "requests_per_s, measured in the traced run"),
    ("trace.traced_requests_per_s", "1/s", "higher", "requests_per_s with every span recorded"),
    ("trace.overhead_ratio", "ratio", "lower", "share of untraced throughput lost to tracing"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(summary: dict, untraced_rps: float, traced_rps: float) -> dict[str, float]:
    """Every PER_LAYER metric from a `Tracer.summary` and the two throughputs."""
    sid = summary["sid"]
    reqs = summary["requests"] or 1
    counters = summary["counters"]

    def calls(name: str) -> int:
        return summary["calls"][sid[name]] if name in sid else 0

    def total(name: str) -> float:
        return summary["total"][sid[name]] if name in sid else 0.0

    def self_s(name: str) -> float:
        return summary["self"][sid[name]] if name in sid else 0.0

    def under(child: str, parent: str, key: str = "pair_time") -> float:
        if child not in sid or parent not in sid:
            return 0
        return summary[key][sid[child], sid[parent]]

    lattice_init = "lattice.IntersectionLattice.__init__"
    closure = "hypergraph.EdgeColoredHypergraph.closure"
    refines = "hypergraph.EdgeColoredHypergraph.refines"
    bc_init = "bicomplex.WordBicomplex.__init__"
    add = "linalg.Echelon.add"
    hits, misses = counters["hypergraph.cache_hits"], counters["hypergraph.cache_misses"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, i in sid.items():
        layer = summary["layer_of"][i]
        if layer in layer_self:
            layer_self[layer] += summary["self"][i]

    per_request = {
        "hypergraph.closure_calls": calls(closure),
        "hypergraph.closure_self_s": self_s(closure),
        "hypergraph.refines_calls": calls(refines),
        "hypergraph.refines_self_s": self_s(refines),
        "hypergraph.components_cache_entries": counters["hypergraph.cache_growth"],
        "lattice.build_s": total(lattice_init),
        "lattice.elements": counters["lattice.elements"],
        "lattice.mobius_s": total("lattice.IntersectionLattice.mobius"),
        "lattice.semimodularity_s": total("lattice.IntersectionLattice.semimodularity_witness"),
        "chromatic.dc_s": total("chromatic.chromatic_polynomial"),
        "chromatic.count_s": total("chromatic.count_proper_colorings"),
        "chromatic.count_points": counters["chromatic.count_points"],
        "chromatic.cube_count_s": total("chromatic.integer_point_count"),
        "polynomial.interpolate_s": total("polynomial.interpolate_integer"),
        "linalg.echelon_add_calls": calls(add),
        "linalg.echelon_add_self_s": self_s(add),
        "linalg.reduce_self_s": self_s("linalg.Echelon.reduce") + self_s("linalg.Echelon.reduce_with_combo"),
        "linalg.kernel_self_s": self_s("linalg.kernel_of_rows"),
        "linalg.quotient_build_s": total("linalg.QuotientSpace.__init__"),
        "atomic_complex.build_s": total("atomic_complex.AtomicComplex.__init__"),
        "atomic_complex.generators": counters["atomic_complex.generators"],
        "atomic_complex.cohomology_s": total("atomic_complex.AtomicComplex.cohomology"),
        "atomic_complex.solve_d_calls": calls("atomic_complex.AtomicComplex.solve_d"),
        "bicomplex.words": counters["bicomplex.words"],
        "bicomplex.enumerate_s": total("bicomplex.WordBicomplex._enumerate_words"),
        "bicomplex.quotient_s": under("linalg.QuotientSpace.__init__", bc_init),
        "bicomplex.induced_maps_s": sum(
            under(f"bicomplex.WordBicomplex.{m}", bc_init) for m in ("project", "word_dW", "word_dMu")
        ),
        "bicomplex.validate_s": total("bicomplex.WordBicomplex.self_validate"),
        "bicomplex.shuffle_calls": calls("bicomplex.WordBicomplex.shuffle"),
        "spectral.pages_s": summary["entry_time"]["spectral"],
        "spectral.z_basis_calls": calls("spectral.SpectralPages.z_basis"),
        "spectral.z_basis_s": total("spectral.SpectralPages.z_basis"),
        "spectral.presentation_s": total("spectral.SpectralPages.presentation"),
        "massey.find_systems_s": total("massey.find_massey_color_systems"),
        "massey.systems": counters["massey.systems"],
        "massey.ordered_complex_builds": calls("massey.ordered_complex"),
        "massey.d2_class_s": total("massey.massey_d2_class"),
        "massey.triple_product_s": total("massey.massey_triple_product"),
        "massey.indeterminacy_s": total("massey.indeterminacy_span"),
        "cli.parse_s": total("cli.parse_arrangement"),
    }
    per_request.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
    out = {name: value / reqs for name, value in per_request.items()}
    out.update({
        "hypergraph.components_cache_hit_ratio": _ratio(hits, hits + misses),
        "lattice.closure_calls_per_element": _ratio(
            under(closure, lattice_init, "pair_calls"), counters["lattice.elements"]
        ),
        "chromatic.points_per_s": _ratio(counters["chromatic.count_points"], total("chromatic.count_proper_colorings")),
        "linalg.rank_growth_ratio": _ratio(counters["linalg.rank_grew"], calls(add)),
        "linalg.quotient_relations_ratio": _ratio(
            counters["linalg.quotient_rank"], counters["linalg.quotient_relations"]
        ),
        "trace.self_coverage": _ratio(sum(layer_self.values()), summary["request_time"]),
        "trace.untraced_requests_per_s": untraced_rps,
        "trace.traced_requests_per_s": traced_rps,
        "trace.overhead_ratio": _ratio(untraced_rps - traced_rps, untraced_rps),
    })
    return out
