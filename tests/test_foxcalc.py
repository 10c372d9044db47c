"""Free-group words, Fox derivatives and abelianization."""

import random

from paritypoly import foxcalc as fx
from paritypoly.laurent import LaurentPoly, S, T

X = fx.arc(1)
Y = fx.arc(2)


def w(text):
    return fx.word_from_string(text)


def test_multiply_invert():
    assert fx.multiply(w("a1"), fx.invert(w("a1"))) == ()
    assert fx.invert(w("a1 a2")) == w("a2^-1 a1^-1")
    assert fx.multiply(w("a1 a2"), w("a2^-1 a3")) == w("a1 a3")
    assert fx.multiply((), ()) == ()


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
    assert fx.fox_derivative(w("a1"), X) == {(): 1}
    assert fx.fox_derivative(w("a1"), Y) == {}
    assert fx.fox_derivative(w("a1^-1"), X) == {w("a1^-1"): -1}


def test_fox_worked_example():
    # d(x y s x^-1 s^-1)/dx = 1 - x y s x^-1,  abelianized 1 - st
    word = w("a1 a2 s a1^-1 s^-1")
    d = fx.fox_derivative(word, X)
    assert d == {(): 1, w("a1 a2 s a1^-1"): -1}
    assert fx.abelianize(d) == 1 - S * T


def test_product_rule_random():
    rng = random.Random(1)
    gens = [fx.arc(i) for i in (1, 2)] + [fx.S_GEN, fx.Q_GEN]
    for _ in range(80):
        u = fx.reduce_word((rng.choice(gens), rng.choice([1, -1]))
                           for _ in range(rng.randint(0, 8)))
        v = fx.reduce_word((rng.choice(gens), rng.choice([1, -1]))
                           for _ in range(rng.randint(0, 8)))
        g = rng.choice(gens)
        lhs = fx.fox_derivative(fx.multiply(u, v), g)
        rhs = fx.ring_add(fx.fox_derivative(u, g),
                          fx.word_action(u, fx.fox_derivative(v, g)))
        assert lhs == rhs


def test_abelianize():
    assert fx.abelianize_word(()) == LaurentPoly.one()
    assert fx.abelianize_word(w("a1 a2 s")) == T * T * S
    elem = {w("a3^-1 s^-1"): -1}
    img = fx.abelianize(elem)
    assert img == LaurentPoly.term(-1, -1, -1, 0, 0)
    # ring homomorphism: additive and multiplicative through word action
    rng = random.Random(2)
    gens = [fx.arc(1), fx.S_GEN, fx.H_GEN]
    for _ in range(40):
        u = fx.reduce_word((rng.choice(gens), rng.choice([1, -1])) for _ in range(6))
        e1 = {u: 2, (): -1}
        e2 = {fx.invert(u): 1}
        assert fx.abelianize(fx.ring_add(e1, e2)) == fx.abelianize(e1) + fx.abelianize(e2)
        assert fx.abelianize(fx.word_action(u, e2)) == \
            fx.abelianize_word(u) * fx.abelianize(e2)


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
