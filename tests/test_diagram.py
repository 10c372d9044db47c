"""Diagram codes: parsing, validation, parity, arcs, symmetry operators."""

import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from braidgen import braid_closure
from paritypoly import diagram
from paritypoly.alexander import parity_alexander
from paritypoly.diagram import (
    DiagramCode, DiagramError, EVEN, ODD, OVER, Pass, UNDER, VIRTUAL,
    Crossing, apply_move, classical_gauss_code, crossings, flip, parity,
    parse_diagram, parse_vkd, random_code, random_code_of_size, relabel, reverse, roles,
    shift_basepoint, switch, switched_flip, validate,
)
from paritypoly.realize import parse_gauss, parse_gauss_file, realize
from paritypoly.verify import enumerate_small_codes

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_parse_basic():
    code = parse_diagram("O1+ U2+ U1+ O2+")
    assert len(code.passes) == 4
    assert code.signs == {1: 1, 2: 1}
    assert code.to_text() == "O1+ U2+ U1+ O2+"

    mixed = parse_diagram("V1x O2- V1y U2-")
    assert mixed.crossing_ids() == [1, 2]
    assert mixed.signs == {2: -1}


def test_parse_errors():
    with pytest.raises(DiagramError, match="sign mismatch"):
        parse_diagram("O1+ U1-")
    with pytest.raises(DiagramError, match="bad pass token"):
        parse_diagram("O1+ W2+ U1+")
    with pytest.raises(DiagramError):
        parse_diagram("O1+ U1+ O1+")


def test_validate_violations():
    with pytest.raises(DiagramError, match="two over passes"):
        DiagramCode((Pass(1, OVER), Pass(1, OVER)), {1: 1})
    with pytest.raises(DiagramError, match="frame bits"):
        DiagramCode((Pass(1, VIRTUAL, True), Pass(1, VIRTUAL, True)), {})
    with pytest.raises(DiagramError, match="must not carry a sign"):
        DiagramCode((Pass(1, VIRTUAL, True), Pass(1, VIRTUAL, False)), {1: 1})
    with pytest.raises(DiagramError, match="without a sign"):
        DiagramCode((Pass(1, OVER), Pass(1, UNDER)), {})
    assert validate(parse_diagram("O1+ U2+ U1+ O2+")) == []
    assert validate(DiagramCode((), {})) == []


def _refusal(passes, signs):
    """The DiagramError text of building the code, or None if it builds."""
    try:
        DiagramCode(tuple(passes), signs)
    except DiagramError as exc:
        return str(exc)
    return None


def test_each_corruption_gives_its_report_text():
    base = parse_diagram("O1+ U2- V3x U1+ O2- V3y")
    passes, signs = list(base.passes), dict(base.signs)

    def swap(old, new):
        return [new if p == old else p for p in passes]

    cases = [
        (passes[:-1], signs,
         "crossing 3: appears 1 times, wants 2; pass count 5 != 2 * 3 crossings"),
        (passes + [Pass(1, OVER)], signs,
         "crossing 1: appears 3 times, wants 2; pass count 7 != 2 * 3 crossings"),
        (swap(Pass(1, UNDER), Pass(1, OVER)), signs, "crossing 1: two over passes"),
        (swap(Pass(2, OVER), Pass(2, UNDER)), signs, "crossing 2: two under passes"),
        (swap(Pass(3, VIRTUAL), Pass(3, UNDER)), {**signs, 3: 1},
         "crossing 3: mixes classical and virtual passes"),
        (swap(Pass(3, VIRTUAL, True), Pass(3, VIRTUAL)), signs,
         "crossing 3: virtual crossing has 0 frame bits, wants 1"),
        (swap(Pass(3, VIRTUAL), Pass(3, VIRTUAL, True)), signs,
         "crossing 3: virtual crossing has 2 frame bits, wants 1"),
        (passes, {**signs, 3: 1}, "crossing 3: virtual crossing must not carry a sign"),
        (passes, {2: -1}, "crossing 1: classical crossing without a sign"),
        (passes, {**signs, 9: 1}, "crossing 9: sign given but crossing absent"),
        (passes, {**signs, 1: 2}, "crossing 1: sign must be +1 or -1"),
        ([p._replace(cid=0) if p.cid == 3 else p for p in passes], signs,
         "crossing 0: id must be a positive integer"),
        (swap(Pass(1, OVER), Pass(1, OVER, True)), signs,
         "crossing 1: classical pass carries a frame bit"),
    ]
    for corrupt, corrupt_signs, text in cases:
        assert _refusal(corrupt, corrupt_signs) == text


def _mutated(rng, code):
    """passes and signs of code after one or two random corruptions."""
    passes, signs = list(code.passes), dict(code.signs)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(passes))
        what = rng.randrange(7)
        if what == 0:
            del passes[i]
        elif what == 1:
            passes.insert(rng.randrange(len(passes) + 1), passes[i])
        elif what == 2:
            passes[i] = passes[i]._replace(kind=rng.choice([OVER, UNDER, VIRTUAL]))
        elif what == 3:
            passes[i] = passes[i]._replace(frame=not passes[i].frame)
        elif what == 4:
            passes[i] = passes[i]._replace(cid=rng.choice([0, -1, rng.randint(1, 9)]))
        elif what == 5:
            signs[rng.randint(0, 9)] = rng.choice([1, -1, 2, 0])
        elif signs:
            del signs[rng.choice(list(signs))]
        if not passes:
            break
    return passes, signs


def test_linear_accept_and_report_agree_on_random_corruptions():
    """The constructor refuses a code, with the per-crossing report's text,
    exactly when that report is not empty, and every code it accepts is
    the parse of its own text."""
    rng = random.Random(23)
    refused = accepted = 0
    for _ in range(3000):
        passes, signs = _mutated(rng, random_code(rng, max_crossings=6, p_virtual=0.5))
        report = diagram._violations(SimpleNamespace(passes=tuple(passes), signs=signs))
        text = _refusal(passes, signs)
        assert text == ("; ".join(report) if report else None), (passes, signs)
        if not report:
            code = DiagramCode(tuple(passes), signs)
            assert code == parse_diagram(code.to_text()), (passes, signs)
        refused += bool(report)
        accepted += not report
    assert refused > 2000 and accepted > 50


def _arc_walk_crossings(code):
    """The crossing table read by walking the arcs, as built before the
    role map: the oracle for the ``crossings`` view."""
    n = len(code.passes)
    first, before, out, k = {}, [], [], 0
    for pos, p in enumerate(code.passes):
        before.append(k)
        k += p.kind != VIRTUAL
        i = first.pop(p.cid, None)
        if i is None:
            first[p.cid] = pos
            continue
        sign = code.signs.get(p.cid)
        if sign is None:
            cls = "virtual"
            x_first = code.passes[i].frame
        else:
            cls = ODD if (before[pos] - before[i] - 1) % 2 else "even+" if sign > 0 else "even-"
            x_first = code.passes[i].kind == (OVER if sign > 0 else UNDER)
        x, y = (i, pos) if x_first else (pos, i)
        out.append(Crossing(p.cid, cls, x or n, y or n, y + 1, x + 1))
    return sorted(out)


def test_crossings_view_equals_the_arc_walk():
    rng = random.Random(24)
    codes = [random_code(rng, max_crossings=rng.choice([3, 8, 20]),
                         p_virtual=rng.choice([0.0, 0.4, 0.8])) for _ in range(300)]
    codes += [realize(g, strategy=s) for path in sorted(FIXTURES.glob("*.gauss"))
              for _name, g in parse_gauss_file(path.read_text()) for s in (0, 1)]
    codes += enumerate_small_codes()
    for code in codes:
        assert crossings(code) == _arc_walk_crossings(code), code.to_text()
        seen, second = set(), []  # ids in the order of their second pass
        for p in code.passes:
            if p.cid in seen:
                second.append(p.cid)
            seen.add(p.cid)
        assert list(roles(code)) == second


def test_code_is_validated_once_when_built(monkeypatch):
    calls = []
    check = diagram.validate
    monkeypatch.setattr(diagram, "validate", lambda code: calls.append(code) or check(code))
    code = realize(parse_gauss("O1+U2+O3+U1+O2+U3+"))
    assert len(calls) == 1 and calls[0] is code
    calls.clear()
    parity_alexander(code)
    assert calls == []
    moved = apply_move(code, ("r2_insert", 1, 3, "po+"))
    assert len(calls) == 1 and calls[0] is moved


def test_parity_interstice_example():
    # classical sequence a b a c b c: a and c odd, b even
    code = parse_diagram("O1+ O2+ U1+ O3+ U2+ U3+")
    assert parity(code) == {1: ODD, 2: EVEN, 3: ODD}


def test_parity_ignores_virtual_passes():
    # a b a b with virtual passes interleaved anywhere: both odd
    code = parse_diagram("O1+ V3x O2+ V3y U1+ V4y U2+ V4x")
    par = parity(code)
    assert par[1] == ODD and par[2] == ODD


def test_parity_all_even_for_planar_classical_codes():
    # braid closures are planar classical diagrams: every crossing is even
    rng = random.Random(8)
    done = 0
    while done < 25:
        width = rng.randint(2, 4)
        word = [("s", rng.randint(1, width - 1), rng.choice([1, -1]))
                for _ in range(rng.randint(1, 7))]
        code = braid_closure(width, word)
        if code is None or not code.passes:
            continue
        done += 1
        assert set(parity(code).values()) <= {EVEN}, code.to_text()


def test_parity_matches_interlacement_oracle():
    # independent oracle: crossing c is odd iff an odd number of classical
    # chords interleave with c's chord; the long codes (20-40 crossings, and
    # realized fixtures with up to 126 virtual passes) test the one-walk count
    rng = random.Random(9)
    codes = [random_code(rng, max_crossings=6) for _ in range(60)]
    codes += [random_code_of_size(rng, rng.randint(20, 40), rng.choice([0.2, 0.5, 0.8]))
              for _ in range(40)]
    codes += [realize(g, strategy=s) for path in sorted(FIXTURES.glob("*.gauss"))
              for _name, g in parse_gauss_file(path.read_text()) for s in (0, 1)]
    for code in codes:
        pos = {}
        for i, p in enumerate(code.passes):
            if p.kind != VIRTUAL:
                pos.setdefault(p.cid, []).append(i)
        expected = {}
        for cid, (i, j) in pos.items():
            count = 0
            for other, (k, l) in pos.items():
                if other == cid:
                    continue
                inside = (i < k < j) + (i < l < j)
                if inside == 1:
                    count += 1
            expected[cid] = ODD if count % 2 else EVEN
        assert parity(code) == expected


def test_semi_arcs():
    code = parse_diagram("O1+ U2+ U1+ O2+")
    assert code.arc_count == 4
    first, second = crossings(code)
    # arc 1 leaves position 0 (crossing 1's X pass) and enters position 1
    assert first.w_out == 1 == second.y_in
    assert first.x_in == 4  # arc 4 enters position 0
    kink = parse_diagram("O1+ U1+")
    assert kink.arc_count == 2
    assert parse_diagram("").arc_count == 1


def test_semi_arc_count_random():
    rng = random.Random(10)
    for _ in range(20):
        code = random_code(rng)
        assert code.arc_count == 2 * len(code.crossing_ids())


def test_enumerate_small_codes():
    # six flavours of one crossing, then 3 pairings x 6 x 6 flavours of two;
    # verify prop1 labels its cases enum[i] in this order
    codes = enumerate_small_codes()
    assert len({code.to_text() for code in codes}) == len(codes) == 6 + 3 * 36
    assert [len(code.crossing_ids()) for code in codes] == [1] * 6 + [2] * 108
    assert [codes[i].to_text() for i in (0, 5, 6, 7, 42, 78, 113)] == [
        "O1+ U1+", "V1y V1x", "O1+ U1+ O2+ U2+", "O1+ U1+ O2- U2-",
        "O1+ O2+ U1+ U2+", "O1+ O2+ U2+ U1+", "V1y V2y V2x V1x"]
    classes = Counter(c.cls for code in codes for c in crossings(code))
    assert classes == {"virtual": 74, "even+": 58, "even-": 58, "odd": 32}


def test_crossings_cover_each_arc_once_and_count_classes():
    codes = [code for _name, code in parse_vkd((FIXTURES / "corpus50.vkd").read_text())]
    codes += [realize(g) for _name, g in
              parse_gauss_file((FIXTURES / "table_knots.gauss").read_text())]
    codes += enumerate_small_codes()
    rng = random.Random(60)
    codes += [random_code(rng, max_crossings=rng.choice([3, 6, 12]),
                          p_virtual=rng.choice([0.0, 0.4, 0.8])) for _ in range(500)]
    for code in codes:
        table = crossings(code)
        arcs = list(range(1, len(code.passes) + 1))
        assert [c.cid for c in table] == sorted(code.crossing_ids())
        assert sorted(a for c in table for a in (c.x_in, c.y_in)) == arcs, code.to_text()
        assert sorted(a for c in table for a in (c.z_out, c.w_out)) == arcs, code.to_text()
        classes = [c.cls for c in table]
        parities = list(parity(code).values())
        assert classes.count("even+") + classes.count("even-") == parities.count(EVEN)
        assert classes.count(ODD) == parities.count(ODD)
        assert classes.count("virtual") == len(code.crossing_ids()) - len(code.signs)


def test_symmetry_operators_are_involutions():
    rng = random.Random(11)
    for _ in range(30):
        code = random_code(rng)
        assert switch(switch(code)) == code
        assert flip(flip(code)) == code
        assert reverse(reverse(code)) == code
        assert switched_flip(switch(flip(code))) == code
        assert switched_flip(code) == switch(flip(code)) == flip(switch(code))


def test_switch_example():
    assert switch(parse_diagram("O1+ U2+ U1+ O2+")).to_text() == "U1- O2- O1- U2-"


def test_flip_moves_frame_bits():
    code = parse_diagram("V1x O2- V1y U2-")
    flipped = flip(code)
    assert flipped.to_text() == "V1y U2- V1x O2-"
    assert flipped.signs == {2: -1}


def test_parity_invariant_under_operators():
    rng = random.Random(12)
    for _ in range(25):
        code = random_code(rng)
        par = parity(code)
        assert parity(reverse(code)) == par
        assert parity(switch(code)) == par
        assert parity(flip(code)) == par
        k = rng.randrange(len(code.passes))
        shifted = shift_basepoint(code, k)
        assert parity(shifted) == par
        ids = code.crossing_ids()
        perm = dict(zip(ids, rng.sample(range(1, 40), len(ids))))
        assert parity(relabel(code, perm)) == {perm[c]: v for c, v in par.items()}


def test_shift_and_relabel_identities():
    code = parse_diagram("O1+ V2x U1+ V2y")
    assert shift_basepoint(code, len(code.passes)) == code
    assert shift_basepoint(code, 0) == code
    assert relabel(code, {1: 1, 2: 2}) == code
    with pytest.raises(DiagramError):
        relabel(code, {1: 5, 2: 5})
    with pytest.raises(DiagramError):
        relabel(code, {1: 5})
    with pytest.raises(DiagramError, match="relabeled ids must be positive"):
        relabel(code, {1: 0, 2: 1})


def test_classical_gauss_code_projection():
    assert classical_gauss_code(parse_diagram("V1x O2- V1y U2-")) == ((2, "O", -1), (2, "U", -1))
    code = parse_diagram("O1- U2- O3- U1- O2- U3-")
    assert classical_gauss_code(code) == tuple((c, k, -1) for c, k in
                                               [(1, "O"), (2, "U"), (3, "O"), (1, "U"), (2, "O"), (3, "U")])


def test_vkd_files():
    text = """
# comment
name: first
code: O1+ U1+

name: second
code: V1x V1y
"""
    entries = parse_vkd(text)
    assert [n for n, _ in entries] == ["first", "second"]
    assert [code.to_text() for _, code in entries] == ["O1+ U1+", "V1x V1y"]
    with pytest.raises(DiagramError):
        parse_vkd("name: dangling\n")
    with pytest.raises(DiagramError, match="line 2: name 'first' has no code line"):
        parse_vkd("name: first\nname: second\ncode: O1+ U1+\n")
    with pytest.raises(DiagramError):
        parse_vkd("gibberish\n")
    # empty code line is the unknot
    assert parse_vkd("code:")[0][1] == DiagramCode((), {})


def test_vkd_shares_one_pass_per_token():
    (_, a), (_, b), (_, c) = parse_vkd("code: O1+ U1+\ncode: U1- O1-\ncode: O1+ V2x U1+ V2y\n")
    assert a.passes[0] is c.passes[0] and a.passes[1] is c.passes[2]
    assert a.passes[0] == b.passes[1] and b.signs == {1: -1}
    assert not hasattr(a, "__dict__") and not hasattr(a.passes[0], "__dict__")  # slotted
    with pytest.raises(DiagramError, match="line 2: sign mismatch"):
        parse_vkd("code: O1+ U1+\ncode: O1+ U1-\n")


def test_random_code_valid():
    rng = random.Random(13)
    for _ in range(50):
        assert validate(random_code(rng, max_crossings=6)) == []
