"""Acceptance criteria, one test per criterion, one printed verdict line each.

Reference polynomial values and the width table for the four named table
knots are the published ones.  The named fixtures are documented stand-ins
(the table itself was unreachable from the build environment), chosen to
match each entry's classical crossing count and odd/even parity profile;
criteria that compare against the published values report honestly against
those stand-ins.  Which criteria cannot be met, and why, is open as
ROADMAP item 4 (the acceptance convention audit); one reason is stated by
``test_which_references_vanish_at_t_equals_inverse_s``.
"""

import time
from pathlib import Path

from paritypoly.alexander import (
    build_full_matrix_M, build_matrix_A, check_even_skein, check_symmetries,
    determinant, determinant_cofactor, parity_alexander, switch_crossing,
)
from paritypoly.diagram import EVEN, ODD, parity, parse_vkd
from paritypoly.laurent import LaurentPoly
from paritypoly.realize import parse_gauss_file, realize
from paritypoly.verify import suite_moves, suite_prop1, random_word
from paritypoly import foxcalc as fx

import random

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def lp(terms):
    out = LaurentPoly.zero()
    for c, es, et, eq, eh in terms:
        out = out + LaurentPoly.term(c, es, et, eq, eh)
    return out


# published values for the four named table knots
REFERENCE_POLYS = {
    "3.1": lp([(1, 0, 0, -1, 0), (1, -1, -1, 1, 0), (-1, 0, 0, -1, 2), (1, -1, -1, -1, 2)]),
    "4.7": lp([(1, 0, 0, -1, 0), (-1, 0, 0, 1, 0)]),
    "4.9": lp([(-1, 0, 0, 0, 0), (1, -2, -2, 0, 0), (1, -1, 0, -1, 0),
               (-1, -2, -1, -1, 0), (-1, -1, -2, 1, 0), (1, 0, -1, 1, 0)]),
    "6.32008": lp([(1, 0, 0, 0, 0), (-1, -1, -1, 0, 0), (1, -1, 0, -1, 0),
                   (-1, 0, 1, -1, 0), (-1, 1, 0, 1, 0), (1, 0, -1, 1, 0),
                   (-1, 0, 0, 1, -1), (1, 1, 1, 1, -1)]),
}
REFERENCE_WIDTHS = {"3.1": (2, 2), "4.7": (2, 0), "4.9": (2, 0), "6.32008": (2, 1)}
REFERENCE_BOUNDS = {"3.1": (1, 1), "4.7": (1, 0), "4.9": (1, 0), "6.32008": (1, 1)}


def test_which_references_vanish_at_t_equals_inverse_s():
    """1 - st divides the invariant of every nonempty code (the strand-weight
    law of the alexander docstring), so no diagram reaches a reference value
    that does not vanish at t = s^-1: those of 3.1 and 4.7."""
    at_t_inverse_s = {
        name: sum((LaurentPoly.term(c, es - et, 0, eq, eh)
                   for (es, et, eq, eh), c in poly.terms.items()), LaurentPoly.zero())
        for name, poly in REFERENCE_POLYS.items()}
    assert {name: p.is_zero() for name, p in at_t_inverse_s.items()} == {
        "3.1": False, "4.7": False, "4.9": True, "6.32008": True}


def named_knots():
    text = (FIXTURES / "table_knots.gauss").read_text()
    return [(name, realize(g)) for name, g in parse_gauss_file(text)]


def corpus():
    out = list(named_knots())
    out += [(n or "corpus", c) for n, c in
            parse_vkd((FIXTURES / "corpus50.vkd").read_text())]
    out += [(n or "tri", c) for n, c in
            parse_vkd((FIXTURES / "triangle_moves.vkd").read_text())]
    out.append(("unknot", parse_vkd((FIXTURES / "unknot.vkd").read_text())[0][1]))
    return out


def verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    return ok


def test_criterion_01_reference_polynomials():
    results = []
    for name, code in named_knots():
        t0 = time.monotonic()
        got = parity_alexander(code).canonical
        dt = time.monotonic() - t0
        want = REFERENCE_POLYS[name].canonical()
        results.append((name, got == want, dt,
                        f"got {got.to_text()!r}, reference {want.to_text()!r}"))
    ok = all(r[1] for r in results)
    slow = [r for r in results if r[2] >= 1.0]
    detail = "; ".join(f"{n}: {'match' if m else d}" for n, m, _t, d in results)
    verdict(1, "reference polynomial values", ok and not slow, detail)
    assert not slow, "invariant computation exceeded 1 s per knot"
    assert ok, "reference polynomial mismatch: " + detail


def test_criterion_02_width_and_bound_table():
    from paritypoly.alexander import crossing_bounds
    rows = []
    for name, code in named_knots():
        res = parity_alexander(code)
        widths = (res.q_width, res.h_width)
        bounds = crossing_bounds(res.canonical)
        want_w = REFERENCE_WIDTHS[name]
        want_b = REFERENCE_BOUNDS[name]
        ok = widths == want_w and bounds[0] is not None \
            and bounds[0] >= want_b[0] and bounds[1] >= want_b[1]
        rows.append((name, ok, f"widths {widths} want {want_w}, bounds {bounds} want >= {want_b}"))
    ok = all(r[1] for r in rows)
    verdict(2, "width and bound table", ok,
            "; ".join(f"{n}: {'ok' if o else d}" for n, o, d in rows))
    assert ok, rows


def test_criterion_03_move_invariance_suite():
    t0 = time.monotonic()
    report = suite_moves([], trials=1000, seed=20240819)
    entries = dict(parse_vkd((FIXTURES / "triangle_moves.vkd").read_text()))
    pair_ok = True
    for stem in sorted({n.rsplit("_", 1)[0] for n in entries}):
        pb = parity_alexander(entries[f"{stem}_before"]).canonical
        pa = parity_alexander(entries[f"{stem}_after"]).canonical
        pair_ok &= pb == pa
    dt = time.monotonic() - t0
    ok = report.passed and pair_ok and dt < 60.0
    verdict(3, "move invariance (1000 seeded trials + triangle fixtures)", ok,
            f"{len(report.checks)} trials, fixtures {'ok' if pair_ok else 'FAIL'}, {dt:.1f}s")
    for label, passed, detail in report.checks:
        assert passed, f"{label}\n{detail}"
    assert pair_ok and dt < 60.0


def test_criterion_04_fox_identity_and_det_M():
    rng = random.Random(77)
    for t in range(1000):
        w = random_word(rng, max_len=20)
        assert fx.fundamental_identity_check(w), fx.word_to_string(w)
    bad = []
    for name, code in corpus():
        if not determinant(build_full_matrix_M(code)).is_zero():
            bad.append(name)
    verdict(4, "Fox identity (1000 words) and det(M) = 0 on corpus", not bad,
            f"det(M) nonzero for {bad}" if bad else "all exact")
    assert not bad


def test_criterion_05_minor_gcd_proposition():
    report = suite_prop1([])
    verdict(5, "gcd of corank-1 minors equals det(A) (exhaustive <= 2 crossings)",
            report.passed, f"{len(report.checks)} codes enumerated")
    for label, passed, detail in report.checks:
        assert passed, f"{label}: {detail}"


def test_criterion_06_odd_switch():
    all_ok = True
    details = []
    for name, code in corpus():
        par = parity(code)
        base = parity_alexander(code).canonical
        for cid in sorted(code.signs):
            if par[cid] != ODD:
                continue
            got = parity_alexander(switch_crossing(code, cid)).canonical
            if got != base:
                all_ok = False
                details.append(f"{name}/crossing {cid} changed")
    nonzero_ok = True
    for name in ("3.1", "4.7"):
        code = dict(named_knots())[name]
        par = parity(code)
        base = parity_alexander(code).canonical
        switched = code
        for cid in [c for c in sorted(code.signs) if par[c] == ODD]:
            switched = switch_crossing(switched, cid)
        got = parity_alexander(switched).canonical
        if got != base:
            all_ok = False
            details.append(f"{name}: full odd switch changed the invariant")
        if base.is_zero():
            nonzero_ok = False
            details.append(f"{name}: invariant vanishes, unknottability obstruction empty")
    ok = all_ok and nonzero_ok
    verdict(6, "odd-crossing switch leaves the invariant exactly unchanged", ok,
            "; ".join(details) if details else "all exact")
    assert ok, details


def test_criterion_07_even_skein_identity():
    n_sites = 0
    failures = []
    for name, code in corpus():
        par = parity(code)
        for cid in sorted(code.signs):
            if par[cid] != EVEN:
                continue
            n_sites += 1
            if not check_even_skein(code, cid).proof_form_holds:
                failures.append(f"{name}/crossing {cid}")
    ok = n_sites > 0 and not failures
    verdict(7, "even skein identity D+ - st D- = (1-st) Dv at every even site", ok,
            f"{n_sites} sites" + (f"; failures {failures}" if failures else ""))
    assert ok, failures


def test_criterion_08_symmetry_theorem():
    t0 = time.monotonic()
    diagrams = [(n, c) for n, c in parse_vkd((FIXTURES / "corpus50.vkd").read_text())]
    bad = []
    for name, code in diagrams:
        rep = check_symmetries(code)
        for op, good in rep.outcomes.items():
            if not good:
                bad.append(f"{name}:{op}")
    dt = time.monotonic() - t0
    ok = not bad and dt < 30.0
    verdict(8, "symmetry identities on the 50-diagram corpus", ok,
            f"{len(diagrams)} diagrams, {dt:.1f}s" + (f"; failures {bad}" if bad else ""))
    assert ok, bad


def test_criterion_09_classical_vanishing():
    results = {}
    for fname in ("trefoil.gauss", "figure_eight.gauss"):
        for name, g in parse_gauss_file((FIXTURES / fname).read_text()):
            results[name] = parity_alexander(realize(g)).canonical
    ok = all(p.is_zero() for p in results.values())
    verdict(9, "classical knots give the zero polynomial", ok,
            "; ".join(f"{n}: {p.to_text()}" for n, p in results.items()))
    assert ok, results


def rand_entry(rng):
    p = LaurentPoly.zero()
    for _ in range(rng.randint(0, 2)):
        p = p + LaurentPoly.term(rng.randint(-2, 2), rng.randint(-1, 1),
                                 rng.randint(-1, 1), rng.randint(-1, 1),
                                 rng.randint(-1, 1))
    return p


def test_criterion_10_determinant_oracle():
    from paritypoly.alexander import AlexanderMatrix
    rng = random.Random(4242)
    for t in range(200):
        rows = []
        for _i in range(5):
            row = {j: rand_entry(rng) for j in range(5)}
            rows.append({j: v for j, v in row.items() if v})
        m = AlexanderMatrix(rows, list(range(5)), list(range(5)))
        assert determinant(m) == determinant_cofactor(m), f"matrix {t}"
    verdict(10, "fraction-free determinant equals cofactor oracle", True,
            "200 random 5x5 matrices")
