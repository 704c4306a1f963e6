import json
import subprocess
import sys

import pytest

from echarr import cli
from echarr.errors import InputError
from echarr.polynomial import IntPolynomial

EX28_TEXT = json.dumps(
    {
        "vertices": 4,
        "edges": [
            {"vertices": [1, 2], "color": "R"},
            {"vertices": [2, 3], "color": "B"},
            {"vertices": [3, 4], "color": "R"},
        ],
    }
)

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

    @pytest.mark.parametrize("command", ["cohomology", "pi", "massey"])
    def test_max_generators_cap(self, tmp_path, command):
        path = tmp_path / "mcs7.json"
        path.write_text(MCS7_TEXT)
        # mcs7 has 5 colors, hence 32 generators
        assert cli.main([command, str(path), "--max-generators", "16"]) == 3
        assert cli.main([command, str(path), "--max-generators", "0"]) == 2
        assert cli.main([command, str(path), "--max-generators", "-3"]) == 2

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
