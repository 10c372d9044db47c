"""Command line surface: formats, exit codes, determinism."""

import json
from pathlib import Path

from paritypoly.cli import main
from paritypoly.laurent import LaurentPoly

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_compute_unknot(capsys):
    rc, out, _ = run(capsys, "compute", FIXTURES / "unknot.vkd")
    assert rc == 0
    assert out.strip() == "unknot: 1"


def test_compute_trefoil(capsys):
    rc, out, _ = run(capsys, "compute", FIXTURES / "trefoil.gauss")
    assert rc == 0
    assert out.strip() == "trefoil: 0"


def test_compute_json_round_trip(capsys):
    rc, out, _ = run(capsys, "compute", "--json", FIXTURES / "table_knots.gauss")
    assert rc == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 4
    for rec in lines:
        poly = LaurentPoly.from_json_terms(rec["polynomial"]["terms"])
        assert poly.to_text() == rec["polynomial"]["text"]


def test_compute_deterministic(capsys):
    rc1, out1, _ = run(capsys, "compute", "--json", FIXTURES / "corpus50.vkd")
    rc2, out2, _ = run(capsys, "compute", "--json", FIXTURES / "corpus50.vkd")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_bounds_output(capsys):
    rc, out, _ = run(capsys, "bounds", FIXTURES / "unknot.vkd")
    assert rc == 0
    assert "q-width 0" in out and "virtual >= 0" in out
    rc, out, _ = run(capsys, "bounds", FIXTURES / "knot4_7.gauss")
    assert rc == 0
    assert "no information" in out  # vanishing invariant carries no bound


def test_presentation(capsys):
    rc, out, _ = run(capsys, "presentation", FIXTURES / "unknot.vkd")
    assert rc == 0
    assert "generators: s q h" in out
    assert out.count("[s,q]") == 1


def test_verify_foxid(capsys):
    rc, out, _ = run(capsys, "verify", "foxid", FIXTURES / "unknot.vkd",
                     "--trials", "50", "--seed", "3")
    assert rc == 0
    assert "suite foxid" in out


def test_verify_symmetry_small(capsys, tmp_path):
    f = tmp_path / "small.vkd"
    f.write_text("name: a\ncode: O1+ O2+ U1+ U2+\nname: b\ncode: V1x O2- V1y U2-\n")
    rc, out, _ = run(capsys, "verify", "symmetry", f)
    assert rc == 0
    assert "8/8 checks passed" in out


def test_verify_moves_seeded(capsys, tmp_path):
    f = tmp_path / "one.vkd"
    f.write_text("name: a\ncode: O1+ U1+\n")
    rc, out, _ = run(capsys, "verify", "moves", f, "--trials", "25", "--seed", "7")
    assert rc == 0
    assert "25/25" in out


def test_batch(capsys, tmp_path):
    out_file = tmp_path / "records.jsonl"
    rc, _out, _ = run(capsys, "batch", FIXTURES / "table_knots.gauss", "--out", out_file)
    assert rc == 0
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [r["name"] for r in records] == ["3.1", "4.7", "4.9", "6.32008"]


def test_batch_isolates_bad_lines(capsys, tmp_path):
    table = tmp_path / "table.gauss"
    table.write_text("good\tO1+U1+\nbad\tO1+U2+\nalso\tO1-U1-\n")
    rc, out, _ = run(capsys, "batch", table)
    assert rc == 1
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 3
    assert "error" in recs[1] and recs[1]["name"] == "bad"
    assert "polynomial" in recs[0] and "polynomial" in recs[2]


def test_batch_empty(capsys, tmp_path):
    table = tmp_path / "empty.gauss"
    table.write_text("")
    rc, out, _ = run(capsys, "batch", table)
    assert rc == 0 and out == ""


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.vkd"
    f.write_text("code: O1+ U1-\n")
    rc, _out, err = run(capsys, "compute", f)
    assert rc == 1
    assert "sign mismatch" in err


def test_unknown_format(capsys, tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("hi")
    rc, _out, err = run(capsys, "compute", f)
    assert rc == 1


def test_batch_isolates_internal_errors(capsys, tmp_path, monkeypatch):
    from paritypoly import cli
    from paritypoly.realize import RealizationError, parse_gauss

    bad = parse_gauss("O1-U1-")

    def realize(g, *args, **kwargs):
        if g == bad:
            raise RealizationError("no routing for this code")
        return real_realize(g, *args, **kwargs)

    real_realize = cli.realize
    table = tmp_path / "table.gauss"
    table.write_text("good\tO1+U1+\nstuck\tO1-U1-\nsyntax\tO1+U2+\nalso\tO1+U1+\n")
    rc_before, out_before, _ = run(capsys, "batch", table)
    monkeypatch.setattr(cli, "realize", realize)
    rc, out, _ = run(capsys, "batch", table)
    assert rc == 2
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["name"] for r in recs] == ["good", "stuck", "syntax", "also"]
    assert recs[1] == {"name": "stuck", "line": 2, "error": "no routing for this code"}
    assert "error" in recs[2] and "polynomial" in recs[3]
    # records of the lines that did not raise are unchanged
    before = out_before.splitlines()
    assert rc_before == 1 and "polynomial" in json.loads(before[1])
    lines = out.splitlines()
    assert [lines[0], lines[2], lines[3]] == [before[0], before[2], before[3]]


def test_main_names_realization_errors(capsys, tmp_path, monkeypatch):
    from paritypoly import cli
    from paritypoly.realize import RealizationError

    def realize(g, *args, **kwargs):
        raise RealizationError("no routing for this code")

    monkeypatch.setattr(cli, "realize", realize)
    table = tmp_path / "table.gauss"
    table.write_text("O1+U1+\n")
    rc, out, err = run(capsys, "compute", table)
    assert rc == 2 and out == ""
    assert err == "internal realization error: no routing for this code\n"


def test_unnamed_gauss_code_is_named_by_line_number(capsys, tmp_path):
    table = tmp_path / "names.gauss"
    table.write_text("# table\n\nO1+O2-U1+U2-\n")
    rc, out, _ = run(capsys, "compute", table)
    assert rc == 0 and out.startswith("names[3]: ")
    rc, out, _ = run(capsys, "bounds", "--json", table)
    assert rc == 0 and json.loads(out)["name"] == "names[3]"
    rc, out, _ = run(capsys, "batch", table)
    assert rc == 0 and json.loads(out)["name"] == "names[3]"
