"""Planar realization of signed Gauss codes."""

import random

import pytest

from paritypoly.alexander import parity_alexander
from paritypoly.diagram import classical_gauss_code, validate
from paritypoly.realize import (
    GaussError, RealizationError, frame_sign, gauss_to_text, parse_gauss,
    parse_gauss_file, realize,
)


def random_gauss(rng, max_crossings=6):
    n = rng.randint(1, max_crossings)
    order = list(range(2 * n))
    rng.shuffle(order)
    entries = [None] * (2 * n)
    for cid in range(1, n + 1):
        i, j = order[2 * cid - 2], order[2 * cid - 1]
        s = rng.choice([1, -1])
        entries[i] = (cid, "O", s)
        entries[j] = (cid, "U", s)
    return tuple(entries)


def test_parse_gauss():
    g = parse_gauss("O1+U2+O3+U1+O2+U3+")
    assert len(g) == 6
    assert g[0] == (1, "O", 1)
    assert parse_gauss("O1+ U1+") == ((1, "O", 1), (1, "U", 1))
    assert parse_gauss("O1-U1-") == ((1, "O", -1), (1, "U", -1))


def test_parse_gauss_errors():
    with pytest.raises(GaussError):
        parse_gauss("O1+U2+")         # unpaired ids
    with pytest.raises(GaussError):
        parse_gauss("O1+U1-")         # sign mismatch
    with pytest.raises(GaussError):
        parse_gauss("O1+O1+")         # duplicate over pass
    with pytest.raises(GaussError):
        parse_gauss("O1+X2-U1+")      # bad token
    with pytest.raises(GaussError, match="crossing 0: id must be a positive integer"):
        parse_gauss("O0+U0+")


def test_parse_gauss_file():
    text = "# table\nfirst\tO1+U1+\nO1-U2-O1... oops"
    with pytest.raises(GaussError, match="line 3"):
        parse_gauss_file(text)
    entries = parse_gauss_file("# c\nname\tO1+U1+\nO1-U1-\nunknot\t\n")
    assert entries[0][0] == "name"
    assert entries[1][0] is None
    assert entries[2] == ("unknot", ())  # a named empty code


def test_frame_sign():
    assert frame_sign((1, 0), (0, 1)) == 1
    assert frame_sign((0, 1), (1, 0)) == -1
    with pytest.raises(RealizationError):
        frame_sign((1, 0), (-1, 0))


def test_realize_empty():
    assert realize(()) .passes == ()


def test_realize_single_kink():
    g = parse_gauss("O1+U1+")
    code = realize(g)
    assert validate(code) == []
    assert classical_gauss_code(code) == g
    assert all(c in code.signs or True for c in code.virtual_ids())


def test_round_trip_random():
    rng = random.Random(100)
    for _ in range(40):
        g = random_gauss(rng, max_crossings=8)
        code = realize(g)
        assert validate(code) == []
        assert classical_gauss_code(code) == g
        # every extra crossing is virtual with exactly one frame bit
        for cid in code.virtual_ids():
            frames = [p.frame for p in code.passes if p.cid == cid]
            assert sorted(frames) == [False, True]


def test_routing_strategy_independence():
    # the invariant may not depend on how the knot was routed
    rng = random.Random(101)
    for _ in range(15):
        g = random_gauss(rng, max_crossings=5)
        a = realize(g, strategy=0)
        b = realize(g, strategy=1)
        if a == b:
            continue
        pa = parity_alexander(a).canonical
        pb = parity_alexander(b).canonical
        assert pa == pb, gauss_to_text(g)


def test_classical_trefoil_vanishes():
    code = realize(parse_gauss("O1-U2-O3-U1-O2-U3-"))
    assert parity_alexander(code).canonical.is_zero()


def test_realize_arbitrary_ids():
    g = parse_gauss("O3+U7+O7+U3+")
    code = realize(g)
    assert classical_gauss_code(code) == g
    assert set(code.signs) == {3, 7}
    assert min(code.virtual_ids(), default=8) >= 8


def test_q_grading_reparametrization_on_even_diagrams():
    # On diagrams whose classical crossings are all even, the q variable is
    # a pure regrading: the invariant is recovered from its q=1 slice by the
    # substitution s -> s/q, t -> t*q.  Diagrams with odd crossings violate
    # this, so the parity refinement carries genuine extra content.
    from paritypoly.diagram import parity, EVEN
    from paritypoly.laurent import LaurentPoly

    def q_one_slice(p):
        out = {}
        for (es, et, eq, eh), c in p.terms.items():
            k = (es, et, 0, eh)
            out[k] = out.get(k, 0) + c
        return LaurentPoly({k: v for k, v in out.items() if v})

    def regrade(p):
        return LaurentPoly({(es, et, eq - es + et, eh): c
                            for (es, et, eq, eh), c in p.terms.items()})

    rng = random.Random(555)
    confirmed = 0
    while confirmed < 8:
        g = random_gauss(rng, max_crossings=4)
        code = realize(g)
        if any(v != EVEN for v in parity(code).values()):
            continue
        inv = parity_alexander(code).canonical
        if inv.is_zero():
            continue
        assert regrade(q_one_slice(inv)).canonical() == inv.canonical()
        confirmed += 1
    # contrast: a diagram with two odd crossings where the regrading fails
    odd_inv = parity_alexander(realize(parse_gauss("U1+U2-O1+U3-O2-O3-"))).canonical
    assert not odd_inv.is_zero()
    assert regrade(q_one_slice(odd_inv)).canonical() != odd_inv.canonical()
