"""Rank every pool shape by its measured cost and write pool_rank.json.

    python3 perfbench/rank_pool.py [workload ...]

A catalog takes one shape from a bin of two neighbours of nearly equal cost
in every stratum of this ranking (see workloads.py), so that catalogs of
different seeds cost about the same.  The speed of a shared host can drift
by a factor of up to 1.8 over phases of seconds to minutes, which would
scramble neighbouring ranks.  So each group is answered in PASSES passes,
each in its own order and under fresh labels, every answer is divided by the
time of a fixed pure-Python loop timed just before it, and a shape is ranked
by the median of its normalised costs.  The order and the costs, scaled back
to milliseconds at the fastest loop time seen, are stored; catalogs choose
their bins by the costs' ratios.  Rerun it whenever the pool generators
change; catalog() refuses a ranking whose pool digest is stale.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

PASSES = 3
LOOP_REPEATS = 5


def _loop_time() -> float:
    """Median time of a fixed ~1 ms pure-Python loop: the host's speed now."""
    times = []
    for _ in range(LOOP_REPEATS):
        t0 = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rank(workload: str) -> dict:
    groups = workloads.pool(workload)
    rng = random.Random(f"{workloads.CATALOG_SEED}:{workload}:rank")
    order, cost_ms = {}, {}
    for group, shapes in groups.items():
        costs: list[list[float]] = [[] for _ in shapes]
        fastest = float("inf")
        for _ in range(PASSES):
            visit = list(range(len(shapes)))
            rng.shuffle(visit)
            for i in visit:
                request = workloads.present(shapes[i], rng)
                loop = _loop_time()
                fastest = min(fastest, loop)
                t0 = time.perf_counter()
                workloads.answer(request)
                costs[i].append((time.perf_counter() - t0) / loop)
        cost = [statistics.median(c) * fastest for c in costs]
        order[group] = sorted(range(len(shapes)), key=cost.__getitem__)
        cost_ms[group] = [round(cost[i] * 1000, 1) for i in order[group]]
        print(f"{workload}/{group}: {len(shapes)} shapes, {min(cost):.4f}-{max(cost):.4f} s", file=sys.stderr)
    return {"digest": workloads.pool_digest(groups), "order": order, "cost_ms": cost_ms}


def main(names: list[str]) -> None:
    saved = json.loads(workloads.RANK_FILE.read_text()) if workloads.RANK_FILE.exists() else {}
    for name in names or workloads.WORKLOADS:
        saved[name] = rank(name)
    workloads.RANK_FILE.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
