"""Elementary moves: preconditions, inverse pairs, invariance, fixtures."""

import random
from pathlib import Path

import pytest

from braidgen import braid_closure, random_letter, triangle_words
from paritypoly.alexander import parity_alexander
from paritypoly.diagram import (
    EVEN, MoveError, ODD, apply_move, parity, parse_diagram, parse_vkd,
    random_code, removal_sites, same_up_to_shift_relabel,
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
            assert same_up_to_shift_relabel(back, code), (mv, code.to_text())


def test_same_arc_r2_insert():
    base = parse_diagram("O1+ U1+")
    for variant in R2_VARIANTS:
        stepped = apply_move(base, ("r2_insert", 1, 1, variant))
        assert len(stepped.passes) == 6
        back = apply_move(stepped, ("r2_remove", 2, 3))
        assert same_up_to_shift_relabel(back, base)


def test_move_preconditions():
    code = parse_diagram("O1+ U2+ U1+ O2+")
    with pytest.raises(MoveError):
        apply_move(code, ("r1_remove", 1))        # passes not adjacent
    with pytest.raises(MoveError):
        apply_move(code, ("r2_remove", 1, 2))     # same signs, no bigon
    with pytest.raises(MoveError):
        apply_move(code, ("v1_remove", 1))        # not virtual
    with pytest.raises(MoveError):
        apply_move(code, ("r1_insert", 99, "o", 1))
    with pytest.raises(MoveError):
        apply_move(code, ("r2_insert", 1, 2, "zz"))
    kink = parse_diagram("O1+ U1+")
    assert apply_move(kink, ("r1_remove", 1)).passes == ()
    both_virtual = parse_diagram("V1x V2x V1y V2y")
    with pytest.raises(MoveError):
        apply_move(both_virtual, ("v2_remove", 1, 2))  # frame bits not complementary


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
        assert len(before.virtual_ids()) == len(after.virtual_ids())
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
