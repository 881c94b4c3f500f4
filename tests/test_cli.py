import json

import pytest

from cfguard.cli import main
from cfguard.graph import parse_graph

C4_TEXT = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
FIGURE = "src/cfguard/data/figure_terrain.txt"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    return str(path)


class TestSolve:
    def test_infeasible_exit_code(self, capsys, c4_file):
        code, out = run(capsys, "solve", "cfc", c4_file, "--k", "1")
        assert code == 1
        report = json.loads(out)
        assert report["decision"] is False
        assert report["colors"] is None

    def test_min_search(self, capsys, c4_file, tmp_path):
        witness = tmp_path / "w.txt"
        code, out = run(capsys, "solve", "cfc", c4_file, "--min", "--out", str(witness))
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 2
        assert len(witness.read_text().split()) == 4

    def test_scfc_singleton(self, capsys, tmp_path):
        path = tmp_path / "k1.txt"
        path.write_text("p 1 0\n")
        code, out = run(capsys, "solve", "scfc", str(path), "--k", "1")
        assert code == 0
        assert json.loads(out)["colors"] == [1]

    def test_oracle_matches_solve(self, capsys, c4_file):
        for k, expected in (("1", 1), ("2", 0)):
            scode, _ = run(capsys, "solve", "cfc", c4_file, "--k", k)
            ocode, _ = run(capsys, "oracle", "cfc", c4_file, "--k", k)
            assert scode == ocode == expected

    def test_oracle_too_large_exit_code(self, capsys, tmp_path):
        path = tmp_path / "g30.txt"
        path.write_text("p 30 1\ne 1 2\n")
        code = main(["oracle", "cfc", str(path), "--k", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_text_format(self, capsys, c4_file):
        code, out = run(capsys, "solve", "cfc", c4_file, "--k", "2", "--format", "text")
        assert code == 0
        assert any(line.startswith("decision: ") for line in out.splitlines())


class TestVerify:
    def test_witness_round_trip(self, capsys, c4_file, tmp_path):
        witness = tmp_path / "w.txt"
        run(capsys, "solve", "scfc", c4_file, "--min", "--out", str(witness))
        code, out = run(capsys, "verify", "coloring", c4_file, str(witness), "--mode", "strong")
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_tampered_witness_fails(self, capsys, c4_file, tmp_path):
        witness = tmp_path / "w.txt"
        run(capsys, "solve", "cfc", c4_file, "--min", "--out", str(witness))
        colors = [int(c) for c in witness.read_text().split()]
        colors = [0] * len(colors)
        witness.write_text("\n".join(map(str, colors)))
        code, out = run(capsys, "verify", "coloring", c4_file, str(witness), "--mode", "cf")
        assert code == 1
        assert "violation_vertex" in json.loads(out)

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        code, _ = run(capsys, "solve", "cfc", str(bad), "--k", "1")
        assert code == 2

    def test_missing_file_exit_code(self, capsys):
        code, _ = run(capsys, "solve", "cfc", "/nonexistent", "--k", "1")
        assert code == 2

    @pytest.mark.parametrize("text", ["p 2 1\ne 1 1\n", "p -1 0\n"], ids=["self-loop", "negative-n"])
    def test_invalid_graph_exit_code(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code = main(["solve", "cfc", str(bad), "--k", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")


class TestTerrain:
    def test_peel_report(self, capsys):
        code, out = run(capsys, "terrain", "peel", FIGURE)
        assert code == 0
        report = json.loads(out)
        assert report["p"] == 4
        assert report["layers"][0] == [0, 1, 9, 11, 17, 19, 20]

    def test_strong_guard_reports_verdict(self, capsys, tmp_path):
        svg = tmp_path / "t.svg"
        code, out = run(capsys, "terrain", "strong-guard", FIGURE, "--svg", str(svg))
        report = json.loads(out)
        assert report["K"] <= 2 * report["p"]
        assert report["verified"] is False and code == 1
        assert svg.read_text().startswith("<svg")

    def test_pipeline_guarding_verifies(self, capsys, tmp_path):
        guards = tmp_path / "g.txt"
        code, out = run(capsys, "terrain", "pipeline", FIGURE, "--problem", "scfc",
                        "--out", str(guards))
        assert code == 0
        report = json.loads(out)
        assert report["k"] <= 2 * report["p"]
        vcode, vout = run(capsys, "verify", "guarding", FIGURE, str(guards),
                          "--mode", "strong")
        assert vcode == 0 and json.loads(vout)["verified"] is True

    def test_vis_graph_outputs(self, capsys, tmp_path):
        dot, gfile = tmp_path / "g.dot", tmp_path / "g.txt"
        code, out = run(capsys, "terrain", "vis-graph", FIGURE,
                        "--dot", str(dot), "--out", str(gfile))
        assert code == 0
        assert dot.read_text().startswith("graph G {")
        g = parse_graph(gfile.read_text())
        assert g.n == 21 and g.m == len(json.loads(out)["edges"])


class TestGen:
    def test_complete_graph(self, capsys):
        code, out = run(capsys, "gen", "graph", "--n", "4", "--p", "1", "--seed", "1")
        assert code == 0
        assert parse_graph(out).m == 6

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "gen", "terrain", "--n", "9", "--seed", "5", "--out", str(a))
        run(capsys, "gen", "terrain", "--n", "9", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        run(capsys, "gen", "terrain", "--n", "9", "--seed", "6", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["graph", "--n", "4", "--p", "2"],
        ["graph", "--n", "-3"],
        ["terrain", "--n", "0"],
        ["terrain", "--n", "4", "--y-lo", "9", "--y-hi", "1"],
    ], ids=["p-above-1", "negative-n", "empty-terrain", "empty-y-range"])
    def test_bad_arguments_exit_code(self, capsys, argv):
        code = main(["gen", *argv, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_single_vertex_terrain(self, capsys):
        code, out = run(capsys, "gen", "terrain", "--n", "1", "--seed", "3")
        assert code == 0
        assert len(out.split()) == 2
