import json
import subprocess
import sys
from pathlib import Path

import pytest

from echarr import cli
from echarr.errors import InputError
from echarr.polynomial import IntPolynomial

DATA = Path(__file__).resolve().parent / "data"

# the installed-only CI job also reads this file
EX28_TEXT = (DATA / "ex28.json").read_text()

SMALLDUDE_TEXT = json.dumps(
    {
        "vertices": 4,
        "edges": [
            {"vertices": [1, 2, 3], "color": "a"},
            {"vertices": [3, 4], "color": "b"},
            {"vertices": [2, 4], "color": "c"},
        ],
    }
)

MCS7_TEXT = json.dumps(
    {
        "vertices": 7,
        "edges": [
            {"vertices": [1, 2, 3], "color": "L1"},
            {"vertices": [3, 4, 5], "color": "L2"},
            {"vertices": [5, 6, 7], "color": "L3"},
            {"vertices": [2, 3, 4], "color": "L4"},
            {"vertices": [4, 5, 6], "color": "L5"},
        ],
        "order": ["L1", "L2", "L3", "L4", "L5"],
    }
)

PAIR_TEXT = json.dumps(
    {
        "vertices": 6,
        "edges": [
            {"vertices": [1, 2, 3], "color": "A"},
            {"vertices": [4, 5, 6], "color": "B"},
        ],
    }
)


@pytest.fixture()
def ex28_file(tmp_path):
    path = tmp_path / "ex28.json"
    path.write_text(EX28_TEXT)
    return str(path)


class TestParse:
    def test_ex28(self):
        h, options = cli.parse_arrangement(EX28_TEXT)
        assert h.vertex_count == 4 and h.colors == ("B", "R")
        assert options == {}

    def test_edgeless(self):
        h, _ = cli.parse_arrangement('{"vertices":3,"edges":[]}')
        assert h.vertex_count == 3 and h.colors == ()

    def test_vertex_out_of_range_names_edge(self):
        bad = '{"vertices":4,"edges":[{"vertices":[1,2],"color":"a"},{"vertices":[9,2],"color":"b"}]}'
        with pytest.raises(InputError, match="edge 1"):
            cli.parse_arrangement(bad)

    def test_unknown_top_level_field(self):
        with pytest.raises(InputError, match="unknown field"):
            cli.parse_arrangement('{"vertices":2,"edges":[],"foo":1}')

    def test_unknown_edge_field(self):
        bad = '{"vertices":2,"edges":[{"vertices":[1,2],"color":"a","w":3}]}'
        with pytest.raises(InputError, match="edge 0"):
            cli.parse_arrangement(bad)

    def test_malformed_json(self):
        with pytest.raises(InputError, match="malformed"):
            cli.parse_arrangement("{nope")

    def test_strict_mode(self):
        nested = json.dumps(
            {
                "vertices": 3,
                "edges": [
                    {"vertices": [1, 2], "color": "a"},
                    {"vertices": [1, 2, 3], "color": "b"},
                ],
                "strict": True,
            }
        )
        with pytest.raises(InputError, match="refine"):
            cli.parse_arrangement(nested)
        cli.parse_arrangement(nested.replace('"strict": true', '"strict": false'))


class TestCommands:
    def test_charpoly_all(self, ex28_file, capsys):
        assert cli.main(["charpoly", ex28_file, "--method", "all"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["polynomial"] == [0, 1, -1, -1, 1]
        assert out["agree"] is True

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                EX28_TEXT,
                '{"polynomial": [0, 1, -1, -1, 1], "methods": {"mobius": [0, 1, -1, -1, 1], '
                '"dc": [0, 1, -1, -1, 1], "count": [0, 1, -1, -1, 1]}, "agree": true}',
            ),
            (
                MCS7_TEXT,
                '{"polynomial": [0, 1, -4, 3, 4, -5, 0, 1], "methods": {"mobius": [0, 1, -4, 3, 4, -5, 0, 1], '
                '"dc": [0, 1, -4, 3, 4, -5, 0, 1], "count": [0, 1, -4, 3, 4, -5, 0, 1]}, "agree": true}',
            ),
        ],
        ids=["ex28", "mcs7"],
    )
    def test_charpoly_all_exact_output(self, tmp_path, capsys, text, expected):
        path = tmp_path / "h.json"
        path.write_text(text)
        assert cli.main(["charpoly", str(path), "--method", "all"]) == 0
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize(
        "command, text, expected",
        [
            ("massey", MCS7_TEXT, "massey_mcs7.json"),
            ("pi", EX28_TEXT, "pi_ex28.json"),
            # mcs7 has even-degree letters; the pair's page table runs to r = 12
            ("pi", json.dumps(dict(json.loads(MCS7_TEXT), max_degree=6, max_page=6)), "pi_mcs7.json"),
            ("pi", json.dumps(dict(json.loads(PAIR_TEXT), max_page=12)), "pi_disjoint_pair.json"),
        ],
        ids=["massey-mcs7", "pi-ex28", "pi-mcs7", "pi-disjoint-pair"],
    )
    def test_exact_output(self, tmp_path, capsys, command, text, expected):
        # captured before the integer kernel (massey, pi on ex28) and before the
        # persistence pairing (pi on mcs7 and the disjoint pair) replaced the
        # routes that computed them
        path = tmp_path / "h.json"
        path.write_text(text)
        assert cli.main([command, str(path)]) == 0
        assert capsys.readouterr().out == (DATA / expected).read_text()

    def test_charpoly_single_method(self, ex28_file, capsys):
        assert cli.main(["charpoly", ex28_file, "--method", "dc"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["polynomial"] == [0, 1, -1, -1, 1]

    def test_charpoly_mismatch_exits_one(self, ex28_file, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "chromatic_polynomial", lambda h, *a, **k: IntPolynomial([1])
        )
        assert cli.main(["charpoly", ex28_file, "--method", "all"]) == 1

    def test_geometric_witness(self, tmp_path, capsys):
        path = tmp_path / "smalldude.json"
        path.write_text(SMALLDUDE_TEXT)
        assert cli.main(["geometric", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["geometric"] is False and "witness" in out

    def test_lattice_with_dot(self, ex28_file, tmp_path, capsys):
        dot = tmp_path / "h.dot"
        assert cli.main(["lattice", ex28_file, "--dot", str(dot)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["elements"]) == 4 and len(out["covers"]) == 4
        text = dot.read_text()
        assert text.startswith("digraph") and text.count("->") == 4

    def test_cohomology(self, ex28_file, capsys):
        assert cli.main(["cohomology", ex28_file, "--max-degree", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["betti"] == {"0": 1, "1": 1, "2": 0, "3": 1, "4": 1}

    def test_pi_sphere(self, tmp_path, capsys):
        path = tmp_path / "sphere.json"
        path.write_text('{"vertices":3,"edges":[{"vertices":[1,2,3],"color":"A"}]}')
        assert cli.main(["pi", str(path), "--max-degree", "6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pi_ranks"]["3"] == 1
        assert all(v == 0 for d, v in out["pi_ranks"].items() if d != "3")

    def test_massey_mcs7(self, tmp_path, capsys):
        path = tmp_path / "mcs7.json"
        path.write_text(MCS7_TEXT)
        assert cli.main(["massey", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nonformal"] is True

    def test_kequal(self, capsys):
        assert cli.main(["kequal", "6", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "no_massey": True,
            "top_degree": 7,
        }

    def test_deterministic_output(self, ex28_file, capsys):
        cli.main(["lattice", ex28_file])
        first = capsys.readouterr().out
        cli.main(["lattice", ex28_file])
        assert capsys.readouterr().out == first

    def test_charpoly_all_on_bundled_corpus(self, tmp_path, capsys):
        from echarr.corpus import full_corpus

        for name, h in full_corpus().items():
            path = tmp_path / f"{name}.json"
            path.write_text(
                json.dumps(
                    {
                        "vertices": h.vertex_count,
                        "edges": [
                            {"vertices": sorted(e), "color": c}
                            for e, c in zip(h.edges, h.edge_colors)
                        ],
                    }
                )
            )
            assert cli.main(["charpoly", str(path), "--method", "all"]) == 0, name
            assert json.loads(capsys.readouterr().out)["agree"] is True


class TestExitCodes:
    def test_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices":4,"edges":[{"vertices":[9,1],"color":"a"}]}')
        assert cli.main(["lattice", str(path)]) == 2

    def test_missing_file(self):
        assert cli.main(["lattice", "/nonexistent/x.json"]) == 2

    def test_budget(self, ex28_file):
        assert cli.main(["charpoly", ex28_file, "--max-colorings", "5"]) == 3

    def test_max_colorings_counts_partitions(self, ex28_file, capsys):
        # ex28 has Bell(4) = 15 vertex partitions
        assert cli.main(["charpoly", ex28_file, "--max-colorings", "14"]) == 3
        assert cli.main(["charpoly", ex28_file, "--max-colorings", "15"]) == 0
        assert json.loads(capsys.readouterr().out)["agree"] is True
        for value in ("0", "-1"):
            assert cli.main(["charpoly", ex28_file, "--max-colorings", value]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--max-colorings" in captured.err

    def test_weight_one_with_degree_one_letters(self, ex28_file, capsys):
        # ex28 has a degree-one letter, so weight 1 is the boundary column
        # that the stabilized report drops, and nothing would be left
        assert cli.main(["pi", ex28_file, "--max-weight", "1", "--max-degree", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "weight cap of at least 2" in captured.err
        assert cli.main(["pi", ex28_file, "--max-weight", "2", "--max-degree", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["pi_ranks"]["1"] == 1

    @pytest.mark.parametrize("command", ["cohomology", "pi", "massey"])
    def test_max_generators_cap(self, tmp_path, command):
        path = tmp_path / "mcs7.json"
        path.write_text(MCS7_TEXT)
        # mcs7 has 5 colors, hence 32 generators
        assert cli.main([command, str(path), "--max-generators", "16"]) == 3
        assert cli.main([command, str(path), "--max-generators", "0"]) == 2
        assert cli.main([command, str(path), "--max-generators", "-3"]) == 2

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("pi", ["--max-weight", "0"]),
            ("pi", ["--max-weight", "-2"]),
            ("pi", ["--max-page", "-1"]),
            ("pi", ["--max-degree", "-1"]),
            ("pi", ["--max-degree", "0"]),
            ("cohomology", ["--max-degree", "-1"]),
        ],
    )
    def test_truncation_flag_below_minimum(self, ex28_file, capsys, command, flags):
        assert cli.main([command, ex28_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "input error" in captured.err

    @pytest.mark.parametrize(
        "command, field",
        [
            ("pi", {"max_degree": -1}),
            ("pi", {"max_page": -1}),
            ("pi", {"max_degree": "8"}),
            ("cohomology", {"max_degree": -3}),
            ("cohomology", {"max_degree": True}),
        ],
    )
    def test_truncation_field_below_minimum(self, tmp_path, capsys, command, field):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(dict(json.loads(EX28_TEXT), **field)))
        assert cli.main([command, str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_truncation_at_minimum(self, ex28_file, capsys):
        assert cli.main(["cohomology", ex28_file, "--max-degree", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["betti"] == {"0": 1}
        assert cli.main(["pi", ex28_file, "--max-degree", "3", "--max-page", "0", "--max-weight", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out["pages"]) == ["0"] and out["pi_ranks"] == {"1": 1, "2": 0, "3": 1}

    def test_kequal_range(self):
        assert cli.main(["kequal", "3", "9"]) == 2

    def test_subprocess_entry(self, tmp_path):
        path = tmp_path / "ex28.json"
        path.write_text(EX28_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "echarr", "charpoly", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["polynomial"] == [0, 1, -1, -1, 1]


def test_import_leaves_numpy_out():
    code = "import sys, echarr, echarr.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "import echarr loaded numpy"
