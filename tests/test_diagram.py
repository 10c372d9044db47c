"""Diagram codes: parsing, validation, parity, arcs, symmetry operators."""

import random
from collections import Counter
from pathlib import Path

import pytest

from braidgen import braid_closure
from paritypoly import diagram
from paritypoly.alexander import parity_alexander
from paritypoly.diagram import (
    DiagramCode, DiagramError, EVEN, ODD, OVER, Pass, UNDER, VIRTUAL,
    apply_move, classical_gauss_code, crossings, flip, parity, parse_diagram,
    parse_vkd, random_code, random_code_of_size, relabel, reverse,
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
    assert mixed.virtual_ids() == [1]
    assert mixed.classical_ids() == [2]
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
        assert classes.count("virtual") == len(code.virtual_ids())


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
