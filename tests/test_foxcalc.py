"""Free-group words, abelianization and abelianized Fox derivatives."""

import random

import pytest

from paritypoly import foxcalc as fx
from paritypoly.laurent import LaurentPoly, S, T, T1

X = fx.arc(1)
Y = fx.arc(2)


def w(text):
    return fx.word_from_string(text)


def test_free_reduction_confluent():
    rng = random.Random(0)
    gens = [fx.arc(i) for i in (1, 2, 3)] + [fx.S_GEN, fx.H_GEN]
    for _ in range(100):
        word = fx.reduce_word(
            (rng.choice(gens), rng.choice([1, -1])) for _ in range(12))
        # insert a cancelling pair anywhere: reduction returns the original
        g = rng.choice(gens)
        pos = rng.randint(0, len(word))
        padded = word[:pos] + ((g, 1), (g, -1)) + word[pos:]
        assert fx.reduce_word(padded) == word


def test_fox_basics():
    assert fx.fox_derivative(w("a1"), X) == LaurentPoly.one()
    assert fx.fox_derivative(w("a1"), Y) == LaurentPoly.zero()
    assert fx.fox_derivative(w("a1^-1"), X) == -T1
    assert fx.fox_derivative((), X) == LaurentPoly.zero()
    with pytest.raises(ValueError, match="arc index must be positive, got 0"):
        fx.arc(0)
    with pytest.raises(ValueError, match="bad generator token 't'"):
        w("a1 t")


def test_fox_worked_example():
    # d(x y s x^-1 s^-1)/dx = 1 - x y s x^-1,  abelianized 1 - st
    assert fx.fox_derivative(w("a1 a2 s a1^-1 s^-1"), X) == 1 - S * T


def test_product_rule_random():
    # with the basics, d(uv) = d(u) + ab(u) d(v) fixes the derivative uniquely
    rng = random.Random(1)
    gens = [fx.arc(i) for i in (1, 2)] + [fx.S_GEN, fx.Q_GEN]
    for _ in range(200):
        u = fx.reduce_word((rng.choice(gens), rng.choice([1, -1]))
                           for _ in range(rng.randint(0, 8)))
        v = fx.reduce_word((rng.choice(gens), rng.choice([1, -1]))
                           for _ in range(rng.randint(0, 8)))
        g = rng.choice(gens)
        lhs = fx.fox_derivative(fx.reduce_word(u + v), g)
        rhs = fx.fox_derivative(u, g) + fx.abelianize_word(u) * fx.fox_derivative(v, g)
        assert lhs == rhs


def test_abelianize():
    assert fx.abelianize_word(()) == LaurentPoly.one()
    assert fx.abelianize_word(w("a1 a2 s")) == T * T * S
    assert fx.abelianize_word(w("a3^-1 s^-1 h q^-1")) == LaurentPoly.term(1, -1, -1, -1, 1)


def test_fundamental_identity_simple():
    assert fx.fundamental_identity_check(w("a1"))
    assert fx.fundamental_identity_check(())
    assert fx.fundamental_identity_check(w("a1 a2 s a1^-1 s^-1 a3^-1"))


def test_fundamental_identity_random():
    rng = random.Random(3)
    gens = [fx.arc(i) for i in (1, 2, 3, 4)] + [fx.S_GEN, fx.Q_GEN, fx.H_GEN]
    for _ in range(300):
        word = fx.reduce_word((rng.choice(gens), rng.choice([1, -1]))
                              for _ in range(rng.randint(0, 20)))
        assert fx.fundamental_identity_check(word)


def test_word_printer():
    assert fx.word_to_string(()) == "1"
    assert fx.word_to_string(w("a3 s a3^-1 h^-1")) == "a3 s a3^-1 h^-1"
