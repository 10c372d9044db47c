"""Free group words over arc generators and s, q, h, with abelianized Fox
derivatives.

Generators are encoded as tuples: ("a", i) for arc generators (i >= 1) and
("s", 0), ("q", 0), ("h", 0) for the three extra generators.  A word is a
tuple of (generator, exponent) letters with exponent +1 or -1, kept freely
reduced at all times.

The abelianization sends every arc generator to the monomial t and s, q, h
to themselves, landing in the Laurent ring of :mod:`paritypoly.laurent`.
Fox derivatives are only ever used abelianized, so ``fox_derivative``
returns the image there directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .laurent import Exps, LaurentPoly

Gen = Tuple[str, int]
Letter = Tuple[Gen, int]
Word = Tuple[Letter, ...]

S_GEN: Gen = ("s", 0)
Q_GEN: Gen = ("q", 0)
H_GEN: Gen = ("h", 0)

# generator kind -> index of its variable in a LaurentPoly exponent tuple;
# every arc generator goes to t
_AXIS = {"s": 0, "a": 1, "q": 2, "h": 3}


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


def abelianize_word(w: Word) -> LaurentPoly:
    """Image of a word: arcs to t, and s, q, h to themselves."""
    e = [0, 0, 0, 0]
    for (kind, _idx), exp in w:
        e[_AXIS[kind]] += exp
    return LaurentPoly({tuple(e): 1})


def fox_derivative(w: Word, g: Gen) -> LaurentPoly:
    """Abelianized free derivative of a reduced word with respect to g.

    One pass over w, keeping the exponent vector of the prefix read so far:
    a letter g adds +prefix, and a letter g^-1 adds -prefix g^-1, which is
    the prefix after that letter.  This is the image of the free derivative
    fixed by d(g)/d(g) = 1, d(g')/d(g) = 0 for g' != g and the product rule
    d(uv) = d(u) + u d(v).
    """
    terms: Dict[Exps, int] = {}
    prefix = [0, 0, 0, 0]
    for lg, le in w:
        axis = _AXIS[lg[0]]
        if le < 0:
            prefix[axis] -= 1
        if lg == g:
            key = tuple(prefix)
            terms[key] = terms.get(key, 0) + le
        if le > 0:
            prefix[axis] += 1
    return LaurentPoly({e: c for e, c in terms.items() if c})


def fundamental_identity_check(w: Word) -> bool:
    """Check sum_g d(w)/d(g) * (image(g) - 1) == image(w) - 1 exactly."""
    total = LaurentPoly.zero()
    for g in dict.fromkeys(g for g, _e in w):
        total = total + fox_derivative(w, g) * (abelianize_word(((g, 1),)) - 1)
    return total == abelianize_word(w) - 1
