"""Closed-loop request replayer for echarr: one client, one process, no threads.

    python3 perfbench/run.py --workload charpoly --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke

Each request is an arrangement sent as JSON text, parsed with
``echarr.cli.parse_arrangement`` and answered through the library's public
entry points; the next request is sent when the previous answer is back.
Every answer is checked by an oracle (``oracles.py``) after its round,
outside the timed sections.  A run replays whole rounds of the seed's catalog
until ``--seconds`` of request time have passed and enough samples lie beyond
p90; see ``workloads.py`` for why rounds are whole.  ``--workload all`` runs
each workload in a process of its own, so that none inherits another's peak
memory.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
rounds alternate between untraced and traced, the layer tracer wraps the
library in the traced ones, the per-layer metrics are reported and the spans
are written to ``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means
the run completed (a wrong answer shows as ``correct: false``); 2 means the
program sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_BEYOND_P90 = 10
SETUP_REPEATS = 5
REPLAYS = 2
# a run stops after this much wall time, whatever the other limits say, so
# that it ends well inside its time limit; the unfinished round is dropped
HARD_STOP_S = 120.0
DEFAULT_SECONDS = 30.0

# latency_p50_ms and failed_ratio are printed in the report but are not
# bounded metrics: the median sits on short Fraction-heavy requests whose
# speed follows the host's drift most closely, and failed_ratio is 0.
# requests_per_s and cpu_ms_per_request are built from per-shape medians:
# every catalog shape is asked once per round, and the median of its k
# samples stands for it.  A slow phase of the host that covers part of the
# run then moves them less than a mean over all requests or a median over
# whole rounds, whose few, long rounds each fall wholly into one phase.
END_TO_END = [
    ("requests_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def prepare(workload: str, seed: int) -> list:
    """Build the seed's catalog and answer the warm-up requests from a cold cache."""
    from echarr.hypergraph import _components

    import workloads

    _components.cache_clear()
    shapes = workloads.catalog(workload, seed)
    for request in workloads.warmup_requests(workload, seed, shapes):
        workloads.answer(request)
    return shapes


def _import_program() -> None:
    """Import echarr from this checkout's sources, never from elsewhere."""
    if not (SRC / "echarr" / "__init__.py").is_file():
        raise FileNotFoundError(f"no echarr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import echarr
    import workloads  # noqa: F401

    if not Path(echarr.__file__).resolve().is_relative_to(SRC):
        raise FileNotFoundError(f"echarr was imported from {echarr.__file__}, not {SRC}")


class Run:
    """State and results of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.smoke = trace, smoke
        # (traced, catalog positions, latencies, cpu times) of every whole round
        self.round_samples: list[tuple[bool, list[int], list[float], list[float]]] = []
        self.failed = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.stopped_early = False
        self.peak_rss_mb = 0.0
        self.digest = hashlib.sha256()
        self.cache = {"hits": 0, "misses": 0, "size_before": 0, "size_after": 0}

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Median set-up time of fresh interpreters, then set up this one."""
        samples = []
        for _ in range(1 if self.smoke else SETUP_REPEATS):
            proc = subprocess.run(
                [sys.executable, __file__, "--setup-only", "--workload", self.workload, "--seed", str(self.seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            samples.append(float(proc.stdout.split()[-1]))
        self.shapes = prepare(self.workload, self.seed)
        return statistics.median(samples)

    # -- timed loop ------------------------------------------------------------

    def execute(self) -> None:
        from echarr.hypergraph import _components

        import oracles
        import tracer as tracing
        import workloads

        self.tracer = tracing.Tracer() if self.trace else None
        position = {id(shape): i for i, shape in enumerate(self.shapes)}
        min_rounds = 1 if self.smoke else math.ceil(10 * MIN_BEYOND_P90 / len(self.shapes))
        info = _components.cache_info()
        self.cache["size_before"] = info.currsize
        replays = []
        loop_start = time.perf_counter()
        timed = 0.0
        while True:
            traced = self.trace and self.rounds % 2 == 1
            if traced:
                self.tracer.install()
            requests = workloads.make_round(self.workload, self.seed, self.rounds, self.shapes)
            if self.smoke:
                requests = requests[:4]
            answered, latency, cpu = [], [], []
            for request in requests:
                before = _components.cache_info()
                root = self.tracer.begin_request(request.kind) if traced else None
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    answer, problems = workloads.answer(request), []
                except Exception as exc:  # a failed request is counted, not fatal
                    answer, problems = None, [_describe(exc)]
                finally:
                    t1, c1 = time.perf_counter(), time.process_time()
                    if traced:
                        self.tracer.end_request(root)
                after = _components.cache_info()
                self.cache["hits"] += after.hits - before.hits
                self.cache["misses"] += after.misses - before.misses
                if traced:
                    counters = self.tracer.counters
                    counters["hypergraph.cache_hits"] += after.hits - before.hits
                    counters["hypergraph.cache_misses"] += after.misses - before.misses
                    counters["hypergraph.cache_growth"] += after.currsize - before.currsize
                latency.append(t1 - t0)
                cpu.append(c1 - c0)
                answered.append((request, answer, problems))
                if time.perf_counter() - loop_start > HARD_STOP_S:
                    break
            if traced:
                self.tracer.uninstall()
            if len(answered) < len(requests):
                self.stopped_early = True
                break  # an unfinished round would skew the mix; drop it
            ids = [position[id(request.shape)] for request, _, _ in answered]
            self.round_samples.append((traced, ids, latency, cpu))
            timed += sum(latency)
            # checked after the round, so that the oracles' own work does not
            # sit between requests and cool the caches the next request uses
            for request, answer, problems in answered:
                if answer is not None:
                    problems = oracles.check(request, answer)
                text = problems[0] if answer is None else workloads.canonical(answer)
                if self.rounds == 0:
                    self.digest.update(text.encode())
                    if len(replays) < REPLAYS:
                        replays.append((request, text))
                if problems:
                    self._fail(request, problems)
            self.rounds += 1
            if self.rounds == min_rounds:
                self.peak_rss_mb = _peak_rss_mb()
            # a traced run needs an untraced and a traced round
            enough = self.rounds >= (2 if self.trace else 1)
            if not self.smoke:
                enough = enough and timed >= self.seconds and self.rounds >= min_rounds
            if enough:
                break
        if not self.peak_rss_mb:
            self.peak_rss_mb = _peak_rss_mb()
        self.cache["size_after"] = _components.cache_info().currsize
        # determinism: the same request must get the same answer again
        for request, first in replays:
            try:
                again = workloads.canonical(workloads.answer(request))
            except Exception as exc:
                again = _describe(exc)
            if again != first:
                self._fail(request, ["answer changed when the request was repeated"])

    def _fail(self, request, problems: list[str]) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{request.shape.tag}: {problems[0]}")

    # -- results -------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(len(latency) for _, _, latency, _ in self.round_samples)

    def latencies(self, traced: bool) -> list[float]:
        return [x for t, _, latency, _ in self.round_samples if t == traced for x in latency]

    def shape_medians(self, column: int) -> list[float]:
        """Median over the untraced rounds of each catalog shape's latency
        (column 2) or CPU time (column 3)."""
        by_shape: dict[int, list[float]] = {}
        for sample in self.round_samples:
            if not sample[0]:
                for i, x in zip(sample[1], sample[column]):
                    by_shape.setdefault(i, []).append(x)
        return [statistics.median(xs) for xs in by_shape.values()]

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        lat = self.latencies(False)
        q = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
        wall, cpu = self.shape_medians(2), self.shape_medians(3)
        return {
            "requests_per_s": len(wall) / sum(wall),
            "latency_p90_ms": q[8] * 1000,
            "cpu_ms_per_request": statistics.fmean(cpu) * 1000,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": setup_s,
        }

    def per_layer(self) -> dict[str, float]:
        import tracer as tracing

        untraced, traced = self.latencies(False), self.latencies(True)
        return tracing.layer_metrics(
            self.tracer.summary(), len(untraced) / sum(untraced), len(traced) / sum(traced)
        )

    def report(self, metrics: dict[str, float], units: dict[str, str]) -> None:
        lat = self.latencies(False)
        p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
        stop = f" (unfinished round dropped at the {HARD_STOP_S:.0f} s stop)" if self.stopped_early else ""
        print(f"workload {self.workload}  seed {self.seed}  rounds {self.rounds} of {len(self.shapes)} shapes{stop}")
        print(f"  samples {len(lat)} untraced ({sum(x > p90 for x in lat)} beyond p90), "
              f"{len(self.latencies(True))} traced")
        for name, value in metrics.items():
            print(f"  {name:40s} {value:14.6g} {units[name]}")
        print(f"  {'latency_p50_ms':40s} {statistics.median(lat) * 1000:14.6g} ms (not bounded)")
        print(f"  {'failed_ratio':40s} {self.failed / self.attempted:14.6g} ({self.failed}/{self.attempted})")
        for line in self.failures:
            print(f"    failure: {line}")
        c = self.cache
        print(f"  components cache: {c['hits']} hits, {c['misses']} misses, "
              f"size {c['size_before']} -> {c['size_after']}")
        print(f"  answer digest (round 0): {self.digest.hexdigest()}")


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["charpoly", "model", "homotopy", "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: workloads.DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="request time to measure per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="a few requests per workload, no timing claims")
    parser.add_argument("--setup-only", action="store_true", help="time import, catalog and warm-up, print seconds")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only takes a single workload")
    start = time.perf_counter()
    try:
        _import_program()
    except (FileNotFoundError, ImportError) as err:
        print(f"perfbench: cannot load the program: {err}", file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_only:
        prepare(args.workload, seed)
        print(time.perf_counter() - start)
        return 0
    if args.trace:
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
    else:
        units = dict(END_TO_END)
    if args.workload == "all":
        return _run_all(args, seed)
    run = Run(args.workload, seed, args.seconds, bool(args.trace), args.smoke)
    setup_s = run.setup()
    run.execute()
    if not run.rounds:
        print(f"perfbench: no whole round of {args.workload} within {HARD_STOP_S} s", file=sys.stderr)
        return 1
    values = run.per_layer() if args.trace else run.end_to_end(setup_s)
    run.report(values, units)
    if args.trace:
        path = OUT / f"spans-{args.workload}.npz"
        run.tracer.write(path)
        print(f"  spans written to {path.relative_to(ROOT)}")
    metrics = {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


def _run_all(args: argparse.Namespace, seed: int) -> int:
    """Every workload in a fresh process; metric names get the workload as prefix."""
    import workloads

    common = ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        child = [sys.executable, __file__, "--workload", name, *common] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(child, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        metrics.update({f"{name}.{metric}": value for metric, value in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
