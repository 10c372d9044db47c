"""Exactness and normalization checks for the Laurent polynomial ring."""

import random

import pytest

from paritypoly.laurent import H, InexactDivision, LaurentPoly, ONE, Q, S, T, ZERO

Q1 = LaurentPoly.var("q", -1)
S1 = LaurentPoly.var("s", -1)
T1 = LaurentPoly.var("t", -1)
H1 = LaurentPoly.var("h", -1)


def rand_poly(rng, max_terms=3, span=2):
    out = LaurentPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        out = out + LaurentPoly.term(
            rng.randint(-3, 3),
            rng.randint(-span, span), rng.randint(-span, span),
            rng.randint(-span, span), rng.randint(-span, span))
    return out


def test_basic_arithmetic():
    assert (1 - Q) * (1 + Q) == 1 - Q * Q
    a = LaurentPoly.term(3, 1, 0, -2, 0)
    assert a + ZERO == a
    assert S * S1 == ONE
    assert (S + T) - (S + T) == ZERO
    assert -(-a) == a
    with pytest.raises(ValueError, match="negative powers"):
        S ** -1
    with pytest.raises(TypeError, match="cannot coerce str to LaurentPoly"):
        S + "x"


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_canonicalize_simple():
    can, unit = (Q1 - Q).canonicalize()
    assert can == 1 - Q ** 2
    assert unit == Q1
    assert can * unit == Q1 - Q


def test_canonicalize_four_variable():
    # 1/q + q/(st) - h^2/q + h^2/(stq)  ->  q^2 + h^2 + st - st h^2,  unit 1/(stq)
    p = Q1 + Q * S1 * T1 - H * H * Q1 + H * H * S1 * T1 * Q1
    can, unit = p.canonicalize()
    expect = Q ** 2 + H ** 2 + S * T - S * T * H ** 2
    assert can == expect
    assert can.to_text() == "h^2 + q^2 + st - sth^2"
    assert unit * can == p


def test_canonicalize_idempotent_and_unit_stable():
    rng = random.Random(2)
    for _ in range(40):
        a = rand_poly(rng)
        can, unit = a.canonicalize()
        assert can.canonicalize()[0] == can
        assert can * unit == a
        u = LaurentPoly.term(rng.choice([1, -1]), rng.randint(-2, 2), 0,
                             rng.randint(-2, 2), 1)
        assert (a * u).canonicalize()[0] == can


def test_canonicalize_zero():
    can, unit = ZERO.canonicalize()
    assert can == ZERO and unit == ONE


def test_width():
    p = 1 - Q ** 2
    assert p.width("q") == 2
    assert p.width("h") == 0
    p31 = Q ** 2 + H ** 2 + S * T - S * T * H ** 2
    assert p31.width("h") == 2
    assert LaurentPoly.const(5).width("s") == 0
    with pytest.raises(ValueError):
        ZERO.width("q")


def test_width_unit_invariant():
    rng = random.Random(3)
    for _ in range(30):
        a = rand_poly(rng)
        if a.is_zero():
            continue
        u = LaurentPoly.term(rng.choice([1, -1]), rng.randint(-2, 2),
                             rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
        for v in "stqh":
            assert (a * u).width(v) == a.width(v)


def test_equal_up_to_unit():
    a = Q1 - Q
    b = (1 - Q ** 2) * Q1 * Q1 * -1 * -1 * Q
    assert a.equal_up_to_unit(b)
    assert ZERO.equal_up_to_unit(ZERO)
    assert not (1 - Q ** 2).equal_up_to_unit(1 + Q ** 2)
    # equivalence relation on random triples
    rng = random.Random(4)
    for _ in range(20):
        a = rand_poly(rng)
        u = LaurentPoly.term(-1, 1, 0, 0, -2)
        assert a.equal_up_to_unit(a)
        assert a.equal_up_to_unit(a * u) and (a * u).equal_up_to_unit(a)


def test_exact_div():
    num = (1 - S * T) * (Q + H)
    assert num.exact_div(1 - S * T) == Q + H
    rng = random.Random(6)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_exact_div_laurent_units():
    # unit-content normalization makes division by a monomial exact
    assert (1 + Q).exact_div(Q) == Q1 + 1
    assert (S - T).exact_div(LaurentPoly.term(-1, 0, 1, 0, 0)) == 1 - S * T1


def test_exact_div_inexact():
    with pytest.raises(InexactDivision):
        (1 + Q).exact_div(1 + Q + Q ** 2)
    with pytest.raises(InexactDivision):
        Q.exact_div(LaurentPoly.const(2))
    with pytest.raises(ZeroDivisionError):
        Q.exact_div(ZERO)
    assert ZERO.exact_div(1 + Q) == ZERO


def test_exact_div_inexact_with_huge_coefficient():
    # the message must not render the operands: this coefficient has more
    # digits than Python's int-to-str limit
    with pytest.raises(InexactDivision, match="2-term"):
        LaurentPoly({(0, 0, 0, 0): 10 ** 5000 + 1, (1, 0, 0, 0): 1}).exact_div(2)


def test_text_rendering():
    assert (1 - Q ** 2).to_text() == "1 - q^2"
    assert ZERO.to_text() == "0"
    assert LaurentPoly.const(-1).to_text() == "-1"
    assert (Q1 + 2 * S).to_text() == "q^-1 + 2s"
    assert (S * T * H ** 2 * -1).to_text() == "-sth^2"


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        a = rand_poly(rng)
        back = LaurentPoly({(t["s"], t["t"], t["q"], t["h"]): t["c"]
                            for t in a.to_json_terms()})
        assert back == a
        assert back.to_text() == a.to_text()


def _reference_text(p):
    """The rendering rule spelled out term by term: ascending exponent
    tuples, unit coefficients omitted before a monomial, x^1 written x."""
    pieces = []
    for e in sorted(p.terms):
        c = p.terms[e]
        mono = "".join(v if k == 1 else f"{v}^{k}" for v, k in zip("stqh", e) if k)
        body = mono if abs(c) == 1 and mono else f"{abs(c)}{mono}"
        sign = ("" if c > 0 else "-") if not pieces else (" + " if c > 0 else " - ")
        pieces.append(sign + body)
    return "".join(pieces) or "0"


def test_text_rendering_matches_reference():
    rng = random.Random(11)
    constants = leading_negatives = 0
    for _ in range(2000):
        terms = {}
        for _t in range(rng.randint(1, 6)):
            e = (0, 0, 0, 0) if rng.random() < 0.15 else tuple(rng.randint(-3, 3) for _ in range(4))
            terms[e] = rng.choice([-3, -2, -1, 1, 2, 3])
        p = LaurentPoly(terms)
        constants += (0, 0, 0, 0) in terms
        leading_negatives += terms[min(terms)] < 0
        assert p.to_text() == _reference_text(p), terms
    assert ZERO.to_text() == _reference_text(ZERO) == "0"
    assert constants > 200 and leading_negatives > 600
