"""Elementary moves: preconditions, inverse pairs, invariance, fixtures."""

import random
import re
from pathlib import Path

import pytest

from braidgen import braid_closure, random_letter, triangle_words
from paritypoly.alexander import parity_alexander
from paritypoly.diagram import (
    EVEN, MoveError, ODD, apply_move, parity, parse_diagram, parse_vkd,
    random_code, removal_sites,
)
from paritypoly.verify import random_move

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

R2_VARIANTS = [p + o + s for p in "pa" for o in "ou" for s in "+-"]


def test_r1_insert_on_unknot():
    code = apply_move(parse_diagram(""), ("r1_insert", 1, "o", 1))
    assert code.to_text() == "O1+ U1+"
    code = apply_move(parse_diagram(""), ("r1_insert", 1, "u", -1))
    assert code.to_text() == "U1- O1-"


def test_v2_insert_remove_round_trip():
    base = parse_diagram("O1+ O2+ U1+ U2+")
    stepped = apply_move(base, ("v2_insert", 1, 3))
    assert len(stepped.passes) == 8
    back = apply_move(stepped, ("v2_remove", 3, 4))
    assert back == base


def test_insert_remove_inverses_random():
    rng = random.Random(200)
    for _ in range(60):
        code = random_code(rng, max_crossings=4)
        arcs = code.arc_count
        a1, a2 = rng.randint(1, arcs), rng.randint(1, arcs)
        fresh = max(code.crossing_ids(), default=0)
        for mv, inverse in [
            (("r1_insert", a1, rng.choice("ou"), rng.choice([1, -1])),
             ("r1_remove", fresh + 1)),
            (("v1_insert", a1), ("v1_remove", fresh + 1)),
            (("r2_insert", a1, a2, rng.choice(R2_VARIANTS)),
             ("r2_remove", fresh + 1, fresh + 2)),
            (("v2_insert", a1, a2, rng.choice(["par", "anti"])),
             ("v2_remove", fresh + 1, fresh + 2)),
        ]:
            stepped = apply_move(code, mv)
            back = apply_move(stepped, inverse)
            assert back == code, (mv, code.to_text())


def test_same_arc_r2_insert():
    base = parse_diagram("O1+ U1+")
    for variant in R2_VARIANTS:
        stepped = apply_move(base, ("r2_insert", 1, 1, variant))
        assert len(stepped.passes) == 6
        back = apply_move(stepped, ("r2_remove", 2, 3))
        assert back == base


INSERTS_ON_ONE_CODE = [  # on "O1+ V2x U1+ V2y": arc 4 wraps to the front
    (("r1_insert", 4, "o", 1), "O3+ U3+ O1+ V2x U1+ V2y"),
    (("r1_insert", 4, "o", -1), "O3- U3- O1+ V2x U1+ V2y"),
    (("r1_insert", 4, "u", 1), "U3+ O3+ O1+ V2x U1+ V2y"),
    (("r1_insert", 4, "u", -1), "U3- O3- O1+ V2x U1+ V2y"),
    (("v1_insert", 2), "O1+ V2x V3x V3y U1+ V2y"),
    (("v1_insert", 2, "y"), "O1+ V2x V3y V3x U1+ V2y"),
    (("r2_insert", 4, 2, "po+"), "O3+ O4- O1+ V2x U3+ U4- U1+ V2y"),
    (("r2_insert", 4, 2, "po-"), "O3- O4+ O1+ V2x U3- U4+ U1+ V2y"),
    (("r2_insert", 4, 2, "pu+"), "U3+ U4- O1+ V2x O3+ O4- U1+ V2y"),
    (("r2_insert", 4, 2, "pu-"), "U3- U4+ O1+ V2x O3- O4+ U1+ V2y"),
    (("r2_insert", 4, 2, "ao+"), "O3+ O4- O1+ V2x U4- U3+ U1+ V2y"),
    (("r2_insert", 4, 2, "ao-"), "O3- O4+ O1+ V2x U4+ U3- U1+ V2y"),
    (("r2_insert", 4, 2, "au+"), "U3+ U4- O1+ V2x O4- O3+ U1+ V2y"),
    (("r2_insert", 4, 2, "au-"), "U3- U4+ O1+ V2x O4+ O3- U1+ V2y"),
    (("r2_insert", 3, 3, "po+"), "O1+ V2x U1+ O3+ O4- U3+ U4- V2y"),
    (("r2_insert", 3, 3, "po-"), "O1+ V2x U1+ O3- O4+ U3- U4+ V2y"),
    (("r2_insert", 3, 3, "pu+"), "O1+ V2x U1+ U3+ U4- O3+ O4- V2y"),
    (("r2_insert", 3, 3, "pu-"), "O1+ V2x U1+ U3- U4+ O3- O4+ V2y"),
    (("r2_insert", 3, 3, "ao+"), "O1+ V2x U1+ O3+ O4- U4- U3+ V2y"),
    (("r2_insert", 3, 3, "ao-"), "O1+ V2x U1+ O3- O4+ U4+ U3- V2y"),
    (("r2_insert", 3, 3, "au+"), "O1+ V2x U1+ U3+ U4- O4- O3+ V2y"),
    (("r2_insert", 3, 3, "au-"), "O1+ V2x U1+ U3- U4+ O4+ O3- V2y"),
    (("v2_insert", 4, 2), "V3x V4y O1+ V2x V3y V4x U1+ V2y"),
    (("v2_insert", 4, 2, "par"), "V3x V4y O1+ V2x V3y V4x U1+ V2y"),
    (("v2_insert", 4, 2, "anti"), "V3x V4y O1+ V2x V4x V3y U1+ V2y"),
    (("v2_insert", 3, 3), "O1+ V2x U1+ V3x V4y V3y V4x V2y"),
    (("v2_insert", 3, 3, "anti"), "O1+ V2x U1+ V3x V4y V4x V3y V2y"),
]


@pytest.mark.parametrize("move, text", INSERTS_ON_ONE_CODE)
def test_insert_table(move, text):
    # fresh ids are the largest id + 1 and + 2; blocks on one arc go in move order
    assert apply_move(parse_diagram("O1+ V2x U1+ V2y"), move).to_text() == text


def test_move_preconditions():
    code = parse_diagram("O1+ U2+ U1+ O2+")
    virtual = parse_diagram("V1x V2x V1y V2y")  # no kink, frames not complementary

    def refused(code, move, message):
        with pytest.raises(MoveError, match=f"^{re.escape(message)}$"):
            apply_move(code, move)

    refused(virtual, ("r1_remove", 1), "crossing 1 is not classical")
    refused(code, ("r1_remove", 1), "crossing 1: passes are not adjacent")
    refused(code, ("v1_remove", 1), "crossing 1 is not virtual")
    refused(virtual, ("v1_remove", 1), "crossing 1: passes are not adjacent")
    refused(code, ("r2_remove", 1, 1), "r2_remove needs two distinct classical crossings, got 1,1")
    refused(code, ("r2_remove", 1, 2), "crossings 1,2 do not have opposite signs")
    refused(parse_diagram("O1+ U1+ O2- O3+ U2- U3+"), ("r2_remove", 1, 2),
            "crossings 1,2: passes do not form two adjacent pairs")
    refused(parse_diagram("O1+ U2- U1+ O2-"), ("r2_remove", 1, 2),
            "crossings 1,2: over/under pattern is not a bigon")
    refused(virtual, ("v2_remove", 1, 1), "v2_remove needs two distinct crossings, got 1,1")
    refused(code, ("v2_remove", 1, 2), "crossings 1,2 are not both virtual")
    refused(parse_diagram("V1x V1y V2x V3x V2y V3y"), ("v2_remove", 1, 2),
            "crossings 1,2: passes do not form two adjacent pairs")
    refused(virtual, ("v2_remove", 1, 2), "crossings 1,2: frame bits are not complementary")
    refused(code, ("r1_insert", 99, "o", 1), "arc 99 out of range 1..4")
    refused(code, ("r1_insert", 0, "u", -1), "arc 0 out of range 1..4")
    refused(code, ("r1_insert", 1, "x", 1), "bad r1_insert parameters ('r1_insert', 1, 'x', 1)")
    refused(code, ("r1_insert", 1, "o", 0), "bad r1_insert parameters ('r1_insert', 1, 'o', 0)")
    refused(code, ("r2_insert", 5, 2, "po+"), "arc 5 out of range 1..4")
    refused(code, ("r2_insert", 1, 5, "po+"), "arc 5 out of range 1..4")
    refused(code, ("r2_insert", 1, 2, "zz"), "bad r2_insert variant 'zz'")
    refused(code, ("v1_insert", 5), "arc 5 out of range 1..4")
    refused(code, ("v2_insert", 1, 0, "anti"), "arc 0 out of range 1..4")
    refused(code, ("v1_insert", 1, "z"), "bad v1_insert parameters ('v1_insert', 1, 'z')")
    refused(code, ("v1_insert", 1, "y", "y"),
            "bad v1_insert parameters ('v1_insert', 1, 'y', 'y')")
    refused(code, ("v2_insert", 1, 2, "foo"),
            "bad v2_insert parameters ('v2_insert', 1, 2, 'foo')")
    refused(code, ("v2_insert", 1, 2, "anti", "par"),
            "bad v2_insert parameters ('v2_insert', 1, 2, 'anti', 'par')")
    # an arc that is not an int (JSON move files can hold one)
    refused(code, ("v2_insert", "z", 2), "bad v2_insert parameters ('v2_insert', 'z', 2)")
    refused(code, ("r2_insert", "y", "u", "po+"),
            "bad r2_insert parameters ('r2_insert', 'y', 'u', 'po+')")
    refused(code, ("r2_insert", 9, "u", "po+"), "arc 9 out of range 1..4")  # arcs in order
    # a crossing id that cannot be looked up; a hashable one is just absent
    refused(code, ("r1_remove", [1]), "bad r1_remove parameters ('r1_remove', [1])")
    refused(code, ("r2_remove", [1], 2), "bad r2_remove parameters ('r2_remove', [1], 2)")
    refused(virtual, ("v2_remove", 1, {}), "bad v2_remove parameters ('v2_remove', 1, {})")
    refused(code, ("r1_remove", "z"), "crossing z is not classical")
    refused(code, ("r3_insert", 1), "unknown move kind 'r3_insert'")
    refused(code, (["r1_remove"], 1), "unknown move kind ['r1_remove']")
    # one too short and one too long tuple per kind
    for move in [("r1_insert", 1, "o"), ("r1_insert", 1, "o", 1, 2),
                 ("r1_remove",), ("r1_remove", 1, 2),
                 ("v1_insert",), ("v1_insert", 1, "y", 2),
                 ("v1_remove",), ("v1_remove", 1, 2),
                 ("r2_insert", 1, 2), ("r2_insert", 1, 2, "po+", 3),
                 ("r2_remove", 1), ("r2_remove", 1, 2, 3),
                 ("v2_insert", 1), ("v2_insert", 1, 2, "par", 3),
                 ("v2_remove", 1), ("v2_remove", 1, 2, 3)]:
        refused(code, move, f"bad {move[0]} parameters {move!r}")
    refused(code, (), "bad move ()")
    kink = parse_diagram("O1+ U1+")
    assert apply_move(kink, ("r1_remove", 1)).passes == ()


def test_r2_insert_preserves_parity():
    # recompute parity through the interlacement oracle after insertion
    code = parse_diagram("O1+ O2+ U1+ O3+ U2+ U3+")
    before = parity(code)
    stepped = apply_move(code, ("r2_insert", 1, 4, "po+"))
    after = parity(stepped)
    assert {c: after[c] for c in before} == before
    # the new pair shares one parity class
    new_ids = [c for c in after if c not in before]
    assert len(new_ids) == 2
    assert after[new_ids[0]] == after[new_ids[1]]


def test_removal_sites():
    code = parse_diagram("O1+ U1+ V2x V2y")
    kinds = {mv[0] for mv in removal_sites(code)}
    assert "r1_remove" in kinds and "v1_remove" in kinds
    empty_sites = removal_sites(parse_diagram(""))
    assert empty_sites == []


def test_removal_sites_are_the_removals_apply_move_accepts():
    # every candidate in the documented order: per id r1 then v1, then per
    # pair r2 then v2; inserted patterns make sites of all four kinds
    rng = random.Random(203)
    kinds = set()
    for _ in range(200):
        code = random_code(rng, max_crossings=4)
        for _step in range(rng.randint(1, 3)):
            a1, a2 = rng.randint(1, code.arc_count), rng.randint(1, code.arc_count)
            code = apply_move(code, rng.choice([
                ("r1_insert", a1, rng.choice("ou"), rng.choice([1, -1])),
                ("v1_insert", a1),
                ("r2_insert", a1, a2, rng.choice(R2_VARIANTS)),
                ("v2_insert", a1, a2, rng.choice(["par", "anti"])),
            ]))
        ids = code.crossing_ids()
        candidates = [(kind, c) for c in ids for kind in ("r1_remove", "v1_remove")]
        candidates += [(kind, c, d) for i, c in enumerate(ids) for d in ids[i + 1:]
                       for kind in ("r2_remove", "v2_remove")]
        accepted = []
        for move in candidates:
            try:
                apply_move(code, move)
            except MoveError:
                continue
            accepted.append(move)
        assert removal_sites(code) == accepted, code.to_text()
        kinds.update(move[0] for move in accepted)
    assert kinds == {"r1_remove", "v1_remove", "r2_remove", "v2_remove"}


def test_invariance_under_random_moves_smoke():
    rng = random.Random(201)
    for _ in range(40):
        code = random_code(rng, max_crossings=5)
        expected = parity_alexander(code).canonical
        for _step in range(3):
            _label, code = random_move(rng, code)
            assert parity_alexander(code).canonical == expected


def test_triangle_fixture_pairs():
    entries = dict()
    for name, code in parse_vkd((FIXTURES / "triangle_moves.vkd").read_text()):
        entries[name] = code
    pairs = sorted({n.rsplit("_", 1)[0] for n in entries})
    assert len(pairs) >= 6
    nonzero = 0
    for stem in pairs:
        before = entries[f"{stem}_before"]
        after = entries[f"{stem}_after"]
        assert sorted(before.signs.values()) == sorted(after.signs.values())
        assert len(before.passes) == len(after.passes)  # as many virtual crossings
        pb = parity_alexander(before).canonical
        pa = parity_alexander(after).canonical
        assert pb == pa, stem
        if not pb.is_zero():
            nonzero += 1
    assert nonzero >= 4


def test_triangle_moves_random_braids():
    rng = random.Random(202)
    done = {"r3": 0, "v3": 0, "v4": 0}
    while min(done.values()) < 15:
        kind = rng.choice(list(done))
        width = rng.randint(3, 4)
        pre = [random_letter(rng, width) for _ in range(rng.randint(0, 4))]
        post = [random_letter(rng, width) for _ in range(rng.randint(0, 4))]
        i = rng.randint(1, width - 2)
        w1, w2 = triangle_words(kind, i, rng.choice([1, -1]))
        c1 = braid_closure(width, pre + w1 + post)
        c2 = braid_closure(width, pre + w2 + post)
        if c1 is None or c2 is None:
            continue
        assert parity_alexander(c1).canonical == parity_alexander(c2).canonical
        done[kind] += 1
