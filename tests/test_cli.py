"""Command line surface: formats, exit codes, determinism."""

import json
import random
from pathlib import Path

import pytest

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
    assert out.strip() == "unknot: 0"


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
        poly = LaurentPoly({(t["s"], t["t"], t["q"], t["h"]): t["c"]
                            for t in rec["polynomial"]["terms"]})
        assert poly.to_text() == rec["polynomial"]["text"]


def test_compute_deterministic(capsys):
    rc1, out1, _ = run(capsys, "compute", "--json", FIXTURES / "corpus50.vkd")
    rc2, out2, _ = run(capsys, "compute", "--json", FIXTURES / "corpus50.vkd")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_bounds_output(capsys):
    rc, out, _ = run(capsys, "bounds", FIXTURES / "unknot.vkd")
    assert rc == 0
    assert "no information" in out  # the unknot's invariant is 0, as R1 requires
    rc, out, _ = run(capsys, "bounds", FIXTURES / "knot4_9.gauss")
    assert rc == 0
    assert "q-width 2" in out and "virtual >= 1" in out
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


def test_verify_skein_and_oddswitch(capsys):
    corpus = FIXTURES / "corpus50.vkd"
    for suite, count in [("skein", 67), ("oddswitch", 42)]:
        summary = f"suite {suite}: {count}/{count} checks passed"
        rc, out, _ = run(capsys, "verify", suite, corpus)
        assert (rc, out) == (0, summary + "\n")
        rc, out, _ = run(capsys, "verify", suite, corpus, "--verbose")
        lines = out.splitlines()
        assert rc == 0 and lines[-1] == summary and len(lines) == count + 1
        assert all(line.startswith("ok   ") for line in lines[:-1])


def _monomial(es: int) -> LaurentPoly:
    return LaurentPoly({(es, 0, 0, 0): 1})


def test_verify_failures_print_their_counterexamples(capsys, monkeypatch):
    """A forced failure in each suite gives exit 1 and a FAIL line followed
    by the counterexample dump."""
    from dataclasses import replace
    from types import SimpleNamespace

    from paritypoly import foxcalc as fx, verify

    corpus = FIXTURES / "corpus50.vkd"
    real_skein = verify.check_even_skein
    monkeypatch.setattr(verify, "check_even_skein",
                        lambda code, cid: replace(real_skein(code, cid), proof_form_holds=False))
    rc, out, _ = run(capsys, "verify", "skein", corpus)
    lines = out.splitlines()
    assert rc == 1 and lines[-1] == "suite skein: 0/67 checks passed"
    assert lines[0] == "FAIL rand00: crossing 2"
    assert lines[1].startswith("D+ = ") and ", D- = " in lines[1] and ", Dv = " in lines[1]
    assert len(lines) == 2 * 67 + 1
    monkeypatch.undo()

    # an "invariant" that reads the sum of the signs: switching any crossing moves it
    monkeypatch.setattr(verify, "parity_alexander",
                        lambda code: SimpleNamespace(canonical=_monomial(sum(code.signs.values()))))
    rc, out, _ = run(capsys, "verify", "oddswitch", corpus)
    lines = out.splitlines()
    fails = [i for i, line in enumerate(lines) if line.startswith("FAIL ")]
    assert rc == 1 and lines[-1] == f"suite oddswitch: {42 - len(fails)}/42 checks passed"
    assert fails and " -> " in lines[fails[0] + 1]

    # one that reads the pass count: every insertion and removal moves it
    monkeypatch.setattr(verify, "parity_alexander",
                        lambda code: SimpleNamespace(canonical=_monomial(len(code.passes))))
    rc, out, _ = run(capsys, "verify", "moves", corpus, "--trials", "6", "--seed", "1")
    assert rc == 1 and "FAIL trial " in out
    dump = out[out.index("FAIL trial "):]
    for part in ("changed the invariant:\n  before: ", "\n  after:  ",
                 "\n  phi(before) = s^", "\n  phi(after)  = s^"):
        assert part in dump
    monkeypatch.undo()

    # a Fox identity check that fails on every word of more than 10 letters
    monkeypatch.setattr(fx, "fundamental_identity_check", lambda w: len(w) <= 10)
    rc, out, _ = run(capsys, "verify", "foxid", FIXTURES / "unknot.vkd",
                     "--trials", "20", "--seed", "3")
    rng = random.Random(3)
    long_words = [(t, w) for t, w in enumerate(verify.random_word(rng) for _ in range(20))
                  if len(w) > 10]
    assert rc == 1 and long_words
    assert out.splitlines() == [
        *(line for t, w in long_words for line in (f"FAIL word trial {t}", fx.word_to_string(w))),
        "FAIL fundamental identity on 20 random words", f"{len(long_words)} failures",
        f"suite foxid: 1/{len(long_words) + 2} checks passed",  # the pass: det(M) = 0
    ]


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


def test_batch_keeps_out_file_when_table_is_missing(capsys, tmp_path):
    keep = tmp_path / "keep.jsonl"
    keep.write_text('{"name": "earlier"}\n')
    rc, _out, err = run(capsys, "batch", tmp_path / "missing.gauss", "--out", keep)
    assert rc == 1 and err.startswith("error: ")
    assert keep.read_text() == '{"name": "earlier"}\n'


def test_verify_refuses_negative_trials(capsys):
    rc, out, err = run(capsys, "verify", "moves", FIXTURES / "unknot.vkd", "--trials", "-3")
    assert (rc, out, err) == (1, "", "error: --trials must be >= 0\n")


def test_options_may_come_before_or_among_the_paths(capsys):
    """A command's options are accepted anywhere among its paths, with the
    output of the documented order; an unknown option is still a usage
    error, exit 2."""
    unknot, corpus = FIXTURES / "unknot.vkd", FIXTURES / "corpus50.vkd"
    gauss = FIXTURES / "knot3_1.gauss"
    for mixed, documented in [
        (("verify", "moves", "--trials", "3", unknot),
         ("verify", "moves", unknot, "--trials", "3")),
        (("verify", "skein", "--verbose", corpus), ("verify", "skein", corpus, "--verbose")),
        (("compute", unknot, "--json", gauss), ("compute", unknot, gauss, "--json")),
        (("bounds", unknot, "--json", gauss), ("bounds", unknot, gauss, "--json")),
    ]:
        want = run(capsys, *documented)
        assert want[0] == 0 and want[1]
        assert run(capsys, *mixed) == want, mixed
    with pytest.raises(SystemExit) as exc:
        main(["compute", str(unknot), "--bogus", str(gauss)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_directory_input_is_an_error(capsys, tmp_path):
    rc, out, err = run(capsys, "compute", tmp_path)
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and str(tmp_path) in err


def test_non_utf8_input_is_an_error(capsys, tmp_path):
    f = tmp_path / "bom.vkd"
    f.write_bytes(b"\xff\xfe")
    rc, out, err = run(capsys, "compute", f)
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: {f}: not UTF-8 text")


def test_byte_order_mark_is_skipped(capsys, tmp_path):
    """A UTF-8 file may open with a byte-order mark: compute and batch give
    the same bytes and exit code as on the file without one, whether its
    first line is a comment or a code."""
    for fixture in ("triangle_moves.vkd", "table_knots.gauss"):
        text = (FIXTURES / fixture).read_text(encoding="utf-8")
        codes_only = "".join(line for line in text.splitlines(keepends=True)
                             if not line.startswith("#"))
        for i, body in enumerate((text, codes_only)):
            seen = []
            for mark in (b"", b"\xef\xbb\xbf"):
                f = tmp_path / f"{i}{len(mark)}" / fixture
                f.parent.mkdir(exist_ok=True)
                f.write_bytes(mark + body.encode("utf-8"))
                seen.append([run(capsys, *argv, f) for argv in
                             (["compute"], ["compute", "--json"], ["batch"])])
            assert seen[0] == seen[1], fixture
            assert "\ufeff" not in str(seen[1])
    f = tmp_path / "bad.vkd"
    f.write_bytes(b"\xef\xbb\xbfab\xff")
    assert run(capsys, "compute", f) == (
        1, "", f"error: {f}: not UTF-8 text (invalid start byte at byte 5)\n")


def test_batch_out_directory_is_an_error(capsys, tmp_path):
    rc, out, err = run(capsys, "batch", FIXTURES / "knot3_1.gauss", "--out", tmp_path)
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and str(tmp_path) in err


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
    table.write_text("# table\nO1+U1+\n")
    named = tmp_path / "named.gauss"
    named.write_text("\n\nstuck\tO1-U1-\n")
    for command, path, where in [("compute", table, "line 2: table[2]"),
                                 ("bounds", named, "line 3: stuck"),
                                 ("presentation", table, "line 2: table[2]"),
                                 ("verify", named, "line 3: stuck")]:
        args = ("verify", "skein", path) if command == "verify" else (command, path)
        rc, out, err = run(capsys, *args)
        assert rc == 2 and out == ""
        assert err == f"internal realization error: {where}: no routing for this code\n"


def test_main_names_arithmetic_errors(capsys, monkeypatch):
    from paritypoly import foxcalc as fx, verify
    from paritypoly.laurent import InexactDivision

    def gcd_of_minors(matrix):
        raise InexactDivision("remainder 1 - q")

    monkeypatch.setattr(verify, "gcd_of_minors", gcd_of_minors)
    rc, out, err = run(capsys, "verify", "prop1")
    assert rc == 2 and out == ""
    assert err == "internal arithmetic error: remainder 1 - q\n"


def test_unnamed_gauss_code_is_named_by_line_number(capsys, tmp_path):
    table = tmp_path / "names.gauss"
    table.write_text("# table\n\nO1+O2-U1+U2-\n")
    rc, out, _ = run(capsys, "compute", table)
    assert rc == 0 and out.startswith("names[3]: ")
    rc, out, _ = run(capsys, "bounds", "--json", table)
    assert rc == 0 and json.loads(out)["name"] == "names[3]"
    rc, out, _ = run(capsys, "batch", table)
    assert rc == 0 and json.loads(out)["name"] == "names[3]"


def test_named_empty_gauss_code_is_the_unknot(capsys, tmp_path):
    table = tmp_path / "names.gauss"
    table.write_text("unknot\t\n")
    rc, out, err = run(capsys, "compute", table)
    assert (rc, out, err) == (0, "unknot: 0\n", "")
    rc, out, _ = run(capsys, "batch", table)
    assert rc == 0 and json.loads(out)["name"] == "unknot"


def test_gauss_crossing_id_zero_names_its_line(capsys, tmp_path):
    table = tmp_path / "zero.gauss"
    table.write_text("# table\nO0+U0+\n")
    rc, out, err = run(capsys, "compute", table)
    assert (rc, out) == (1, "")
    assert err == "error: line 2: crossing 0: id must be a positive integer\n"
