"""Self-tests of the benchmark: determinism, oracle sensitivity, smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _first(workload: str, tag: str, seed: int = 3, pick=lambda req: True) -> workloads.Request:
    shapes = workloads.catalog(workload, seed)
    rounds = (workloads.make_round(workload, seed, r, shapes) for r in range(3))
    return next(req for reqs in rounds for req in reqs if req.shape.tag == tag and pick(req))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_instances(workload):
    def texts(seed):
        return [r.text for r in workloads.make_round(workload, seed, 2, workloads.catalog(workload, seed))]

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_heldout_seed_draws_other_shapes(workload):
    default = workloads.catalog(workload, workloads.DEFAULT_SEED)
    heldout = workloads.catalog(workload, workloads.HELDOUT_SEED)
    assert len(default) == len(heldout) == 25
    assert sum(s not in default for s in heldout) >= 10


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmup_stream_is_disjoint_from_timed_rounds(workload):
    shapes = workloads.catalog(workload, 5)
    warm = {r.text for r in workloads.warmup_requests(workload, 5, shapes)}
    timed = {r.text for i in range(4) for r in workloads.make_round(workload, 5, i, shapes)}
    assert warm and not warm & timed


def test_relabeling_keeps_the_shape():
    req = _first("charpoly", "deep")
    data = json.loads(req.text)
    assert data["vertices"] == req.shape.vertices
    assert len(data["edges"]) == len(req.shape.edges)
    assert len({e["color"] for e in data["edges"]}) == req.shape.color_count


def _answered(workload: str, tag: str):
    req = _first(workload, tag)
    answer = workloads.answer(req)
    assert oracles.check(req, answer) == []
    return req, answer


def _rejects(req, answer, corrupt) -> bool:
    bad = copy.deepcopy(answer)
    corrupt(bad)
    return bool(oracles.check(req, bad))


def test_charpoly_oracle_rejects_corruption():
    req, answer = _answered("charpoly", "wide5")
    assert _rejects(req, answer, lambda a: a["dc"].__setitem__(0, a["dc"][0] + 1))
    assert _rejects(req, answer, lambda a: a["mobius"].__setitem__(-1, 2))
    assert _rejects(req, answer, lambda a: a.__setitem__("colorings_n_plus_1", a["colorings_n_plus_1"] + 1))
    assert _rejects(req, answer, lambda a: a.__setitem__("cube_points_s1", a["cube_points_s1"] - 1))


def test_cohomology_oracle_rejects_wrong_betti():
    req, answer = _answered("model", "atoms")
    top = max(answer["betti"], key=int)

    def bump(a):
        a["betti"][top] += 1

    def bump_both(a):
        bump(a)
        a["euler_characteristic"] += (-1) ** int(top)

    assert _rejects(req, answer, bump)
    assert _rejects(req, answer, bump_both)


def test_massey_oracle_rejects_flipped_verdicts():
    req, answer = _answered("model", "mcs7")
    assert answer["nonformal"] is True
    assert _rejects(req, answer, lambda a: a.__setitem__("nonformal", False))
    for flag in ("closed", "d2_matches_zigzag", "nonzero_in_cohomology", "massey_product_nontrivial"):
        assert _rejects(req, answer, lambda a: a["systems"][0].__setitem__(flag, not a["systems"][0][flag]))

    def scale_one_term(a):
        a["systems"][0]["cocycle"][0]["coefficient"] = 2

    assert _rejects(req, answer, scale_one_term)
    assert _rejects(req, answer, lambda a: a["systems"].pop())


def test_massey_oracle_rejects_an_exact_cocycle():
    """A certificate whose cocycle is a coboundary, with every flag left as
    the program reported it, must fail the reference derivation."""
    import reference

    req, answer = _answered("model", "mcs7")
    _, by_color = reference.parse(req.text)
    entry = answer["systems"][0]
    five = entry["triple"] + entry["embedded"]
    model = reference.ReferenceModel(by_color, five + sorted(set(by_color) - set(five)))
    source = next(m for m in model.basis(entry["class_degree"] - 1) if model.d(m))
    exact = [{"colors": model.colors(m), "coefficient": c} for m, c in sorted(model.d(source).items())]
    assert reference.in_span_mod_p(model.coboundaries(entry["class_degree"]), model.d(source))
    assert _rejects(req, answer, lambda a: a["systems"][0].__setitem__("cocycle", exact))


def test_massey_oracle_derives_the_verdict_of_other_shapes():
    req = _first("model", "chain+2", pick=lambda r: len(workloads.answer(r)["systems"]) > 0)
    answer = workloads.answer(req)
    assert oracles.check(req, answer) == []
    assert _rejects(req, answer, lambda a: a.__setitem__("nonformal", not a["nonformal"]))
    for entry in range(len(answer["systems"])):
        assert _rejects(req, answer, lambda a: a["systems"][entry].__setitem__(
            "massey_product_nontrivial", not a["systems"][entry]["massey_product_nontrivial"]))


def test_pi_oracle_rejects_wrong_ranks():
    req, answer = _answered("homotopy", "spheres")
    assert _rejects(req, answer, lambda a: a["pi_ranks"].__setitem__("2", 1))
    req, answer = _answered("homotopy", "random")
    assert _rejects(req, answer, lambda a: a["e1_column0"].__setitem__("3", a["e1_column0"]["3"] + 1))


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracer.PER_LAYER
    ]


def _main(capsys, *argv) -> tuple[list[str], dict]:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_smoke_all_workloads_and_digest_repeats(capsys):
    lines, result = _main(capsys, "--workload", "all", "--smoke", "--seed", "4")
    assert result["correct"] and result["attempted"] >= 3 * 4 and result["failed"] == 0
    expected = {f"{w}.{name}" for w in workloads.WORKLOADS for name, _ in run.END_TO_END}
    assert set(result["metrics"]) == expected
    digests = [line for line in lines if "answer digest" in line]
    again, _ = _main(capsys, "--workload", "all", "--smoke", "--seed", "4")
    assert digests == [line for line in again if "answer digest" in line]


def test_smoke_trace_reports_every_layer_metric(capsys):
    _, result = _main(capsys, "--workload", "homotopy", "--smoke", "--trace", "1")
    assert result["correct"]
    assert set(result["metrics"]) == {name for name, _, _, _ in tracer.PER_LAYER}
    assert result["metrics"]["bicomplex.words"]["value"] > 0
    assert result["metrics"]["trace.self_coverage"]["value"] > 0.5


def test_tracer_restores_the_library():
    import echarr.linalg as linalg
    import echarr.spectral as spectral

    originals = (spectral.kernel_of_rows, linalg.Echelon.add)
    t = tracer.Tracer()
    t.install()
    try:
        assert spectral.kernel_of_rows is linalg.kernel_of_rows is not originals[0]
        assert linalg.Echelon.add is not originals[1]
    finally:
        t.uninstall()
    assert (spectral.kernel_of_rows, linalg.Echelon.add) == originals


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "charpoly", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
