"""Free group words over arc generators and s, q, h, with Fox derivatives.

Generators are encoded as tuples: ("a", i) for arc generators (i >= 1) and
("s", 0), ("q", 0), ("h", 0) for the three extra generators.  A word is a
tuple of (generator, exponent) letters with exponent +1 or -1, kept freely
reduced at all times.  A group ring element is a dict mapping words to
nonzero integer coefficients.

The abelianization sends every arc generator to the monomial t and s, q, h
to themselves, landing in the Laurent ring of :mod:`paritypoly.laurent`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .laurent import LaurentPoly

Gen = Tuple[str, int]
Letter = Tuple[Gen, int]
Word = Tuple[Letter, ...]
RingElem = Dict[Word, int]

S_GEN: Gen = ("s", 0)
Q_GEN: Gen = ("q", 0)
H_GEN: Gen = ("h", 0)

EMPTY: Word = ()


def arc(i: int) -> Gen:
    if i < 1:
        raise ValueError(f"arc index must be positive, got {i}")
    return ("a", i)


def reduce_word(letters: Iterable[Letter]) -> Word:
    """Freely reduce a letter sequence (cancel adjacent g^e g^-e pairs)."""
    stack: List[Letter] = []
    for g, e in letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((g, e))
    return tuple(stack)


def multiply(u: Word, v: Word) -> Word:
    """Product of reduced words; only the seam can cancel."""
    u2 = list(u)
    i = 0
    while u2 and i < len(v) and u2[-1][0] == v[i][0] and u2[-1][1] == -v[i][1]:
        u2.pop()
        i += 1
    return tuple(u2) + v[i:]


def invert(u: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(u))


def word_from_string(text: str) -> Word:
    """Parse debug syntax, e.g. "a3 s a3^-1 h^-1"; the relator table of
    :mod:`paritypoly.alexander` and the tests are written in it."""
    letters: List[Letter] = []
    for tok in text.split():
        exp = 1
        if tok.endswith("^-1"):
            exp = -1
            tok = tok[:-3]
        if tok in ("s", "q", "h"):
            letters.append(((tok, 0), exp))
        elif tok.startswith("a"):
            letters.append((arc(int(tok[1:])), exp))
        else:
            raise ValueError(f"bad generator token {tok!r}")
    return reduce_word(letters)


def word_to_string(u: Word) -> str:
    if not u:
        return "1"
    parts = []
    for (kind, idx), e in u:
        name = f"a{idx}" if kind == "a" else kind
        parts.append(name if e == 1 else name + "^-1")
    return " ".join(parts)


# -- group ring elements ----------------------------------------------------


def ring_add(a: RingElem, b: RingElem) -> RingElem:
    out = dict(a)
    for w, c in b.items():
        nc = out.get(w, 0) + c
        if nc:
            out[w] = nc
        else:
            out.pop(w, None)
    return out


def word_action(u: Word, a: RingElem) -> RingElem:
    """Left-multiply every word of a by u."""
    out: RingElem = {}
    for w, c in a.items():
        nw = multiply(u, w)
        nc = out.get(nw, 0) + c
        if nc:
            out[nw] = nc
        else:
            out.pop(nw, None)
    return out


# -- Fox derivatives ---------------------------------------------------------


def fox_derivative(w: Word, g: Gen) -> RingElem:
    """Free derivative of a reduced word with respect to generator g.

    Satisfies d(g)/d(g) = 1, d(g')/d(g) = 0 for g' != g, the product rule
    d(aw) = d(a) + a d(w), and hence d(u^-1) = -u^-1 d(u).
    """
    out: RingElem = {}
    prefix: Word = EMPTY
    for letter in w:
        lg, le = letter
        if lg == g:
            if le == 1:
                contrib = prefix
            else:
                contrib = multiply(prefix, ((lg, -1),))
            c = out.get(contrib, 0) + (1 if le == 1 else -1)
            if c:
                out[contrib] = c
            else:
                out.pop(contrib, None)
        prefix = multiply(prefix, (letter,))
    return out


# -- abelianization ----------------------------------------------------------

_STANDARD_IMAGES = {
    "a": (0, 1, 0, 0),  # every arc generator goes to t
    "s": (1, 0, 0, 0),
    "q": (0, 0, 1, 0),
    "h": (0, 0, 0, 1),
}


def standard_image(g: Gen) -> LaurentPoly:
    e = _STANDARD_IMAGES[g[0]]
    return LaurentPoly({e: 1})


def abelianize_word(w: Word) -> LaurentPoly:
    """Image of a word: arcs to t, and s, q, h to themselves."""
    e = [0, 0, 0, 0]
    for (kind, _idx), exp in w:
        img = _STANDARD_IMAGES[kind]
        for i in range(4):
            e[i] += exp * img[i]
    return LaurentPoly({tuple(e): 1})


def abelianize(elem: RingElem) -> LaurentPoly:
    out = LaurentPoly.zero()
    for w, c in elem.items():
        out = out + abelianize_word(w) * c
    return out


def fundamental_identity_check(w: Word) -> bool:
    """Check sum_g d(w)/d(g) * (image(g) - 1) == image(w) - 1 exactly."""
    gens = {g for g, _e in w}
    total = LaurentPoly.zero()
    for g in gens:
        img_g = standard_image(g)
        total = total + abelianize(fox_derivative(w, g)) * (img_g - 1)
    return total == abelianize_word(w) - 1
