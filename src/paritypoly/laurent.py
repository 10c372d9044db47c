"""Exact integer Laurent polynomials in the four variables s, t, q, h.

A polynomial is a finite map from exponent 4-tuples (e_s, e_t, e_q, e_h)
to nonzero integer coefficients.  Exponents may be negative (Laurent),
coefficients are arbitrary-precision ints.  The variable written ``h``
in code and in all machine output is the theta variable of the invariant;
plain ASCII is used everywhere.

``add_product`` is the package's one multiply-accumulate on term dicts:
``LaurentPoly.__mul__`` and ``alexander``'s determinant kernel use it.

Everything here is exact.  There is no floating point and no modular
shortcut anywhere in this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

Exps = Tuple[int, int, int, int]
Terms = Dict[Exps, int]  # the terms of a LaurentPoly

VARS = ("s", "t", "q", "h")
VAR_INDEX = {v: i for i, v in enumerate(VARS)}

_ZERO4 = (0, 0, 0, 0)


class _PowerText(dict):
    """One variable's exponent -> the text of its power ("" for 0, "s",
    "s^-2"), each filled on first use."""

    __slots__ = ("var",)

    def __init__(self, var: str):
        super().__init__()
        self.var = var

    def __missing__(self, e: int) -> str:
        text = self[e] = "" if e == 0 else self.var if e == 1 else f"{self.var}^{e}"
        return text


_POWER_TEXT = tuple(_PowerText(v) for v in VARS)


def add_product(acc: Optional[Terms], a: Terms, b: Terms, sign: int) -> Terms:
    """acc + sign * a * b, added in place into acc, or into a fresh dict
    when acc is None; the factors are left as they are.  The smaller factor
    runs in the outer loop.  Cancelled terms stay as zeros for the caller
    to drop (``drop_zeros``)."""
    if acc is None:
        acc = {}
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    right = b.items()
    for (a0, a1, a2, a3), ca in a.items():
        ca *= sign
        for (b0, b1, b2, b3), cb in right:
            e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            acc[e] = get(e, 0) + ca * cb
    return acc


def drop_zeros(terms: Terms) -> Terms:
    """terms without its zero coefficients (terms itself if it has none)."""
    return {e: c for e, c in terms.items() if c} if 0 in terms.values() else terms


class InexactDivision(ArithmeticError):
    """Raised when exact_div is asked for a quotient that does not exist."""


class LaurentPoly:
    """Sparse exact Laurent polynomial in s, t, q, h.

    Instances are treated as immutable: no public method mutates ``terms``
    and all arithmetic returns new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Exps, int] | None = None):
        self.terms: Dict[Exps, int] = terms if terms is not None else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({_ZERO4: 1})

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({_ZERO4: c}) if c else LaurentPoly({})

    @staticmethod
    def term(coeff: int, es: int = 0, et: int = 0, eq: int = 0, eh: int = 0) -> "LaurentPoly":
        if coeff == 0:
            return LaurentPoly({})
        return LaurentPoly({(es, et, eq, eh): coeff})

    @staticmethod
    def var(name: str, exp: int = 1) -> "LaurentPoly":
        e = [0, 0, 0, 0]
        e[VAR_INDEX[name]] = exp
        return LaurentPoly({tuple(e): 1})

    # -- basic protocol ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"

    # -- ring arithmetic -----------------------------------------------

    @staticmethod
    def _coerce(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, int):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        return LaurentPoly(drop_zeros(add_product(None, self.terms, self._coerce(other).terms, 1)))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("use inverse monomials explicitly for negative powers")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- unit content and canonical form ---------------------------------

    def shift(self, de: Exps, sign: int = 1) -> "LaurentPoly":
        """Multiply by sign * s^de0 t^de1 q^de2 h^de3."""
        return LaurentPoly({
            (e[0] + de[0], e[1] + de[1], e[2] + de[2], e[3] + de[3]): sign * c
            for e, c in self.terms.items()
        })

    def canonicalize(self) -> Tuple["LaurentPoly", "LaurentPoly"]:
        """Return (canonical, unit) with self = canonical * unit.

        The canonical representative of the unit class has minimum exponent
        zero in every variable and a positive coefficient on its
        lexicographically smallest exponent tuple (tuples ordered by
        (e_s, e_t, e_q, e_h)).  The unit is +/- a single monomial.
        canonicalize(0) = (0, 1).
        """
        terms = self.terms
        if not terms:
            return LaurentPoly({}), LaurentPoly.one()
        m = m0, m1, m2, m3 = tuple(map(min, zip(*terms)))
        sign = 1 if terms[min(terms)] > 0 else -1  # a shift keeps the order of tuples
        return LaurentPoly({(e0 - m0, e1 - m1, e2 - m2, e3 - m3): sign * c
                            for (e0, e1, e2, e3), c in terms.items()}), LaurentPoly({m: sign})

    def canonical(self) -> "LaurentPoly":
        return self.canonicalize()[0]

    def equal_up_to_unit(self, other: "LaurentPoly") -> bool:
        return self.canonical() == self._coerce(other).canonical()

    # -- widths -----------------------------------------------------------

    def width(self, variable: str) -> int:
        """Max minus min exponent of the variable.  Undefined for 0."""
        if not self.terms:
            raise ValueError("width of the zero polynomial is undefined")
        i = VAR_INDEX[variable]
        exps = [e[i] for e in self.terms]
        return max(exps) - min(exps)

    # -- exact division ----------------------------------------------------

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor in the Laurent ring.

        Both operands are first normalized by their unit content (the signed
        monomial factor), the plain-polynomial parts are divided with an
        exactness check at every reduction step, and the quotient's unit is
        restored.  Raises InexactDivision when no quotient exists.
        """
        divisor = self._coerce(divisor)
        if not divisor.terms:
            raise ZeroDivisionError("exact_div by zero polynomial")
        if not self.terms:
            return LaurentPoly({})
        a, ua = self.canonicalize()
        b, ub = divisor.canonicalize()
        quo: Dict[Exps, int] = {}
        rem = dict(a.terms)
        lead_b = max(b.terms)
        cb = b.terms[lead_b]
        while rem:
            lead_r = max(rem)
            cr = rem[lead_r]
            de = tuple(lead_r[i] - lead_b[i] for i in range(4))
            if any(x < 0 for x in de) or cr % cb != 0:
                raise InexactDivision(f"a {len(self.terms)}-term polynomial is not "
                                      f"divisible by a {len(divisor.terms)}-term one")
            cq = cr // cb
            quo[de] = cq
            for e, c in b.terms.items():
                ne = (e[0] + de[0], e[1] + de[1], e[2] + de[2], e[3] + de[3])
                nc = rem.get(ne, 0) - cq * c
                if nc:
                    rem[ne] = nc
                else:
                    rem.pop(ne, None)
        # unit of the quotient: ua / ub
        (ea,), (ca,) = zip(*ua.terms.items())
        (eb,), (cb2,) = zip(*ub.terms.items())
        de = (ea[0] - eb[0], ea[1] - eb[1], ea[2] - eb[2], ea[3] - eb[3])
        return LaurentPoly(quo).shift(de, ca * cb2)

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        """Bit-exact text form: terms ascending by (e_s, e_t, e_q, e_h)."""
        if not self.terms:
            return "0"
        pieces: List[str] = []
        terms = self.terms
        ps, pt, pq, ph = _POWER_TEXT
        for e in sorted(terms):
            c = terms[e]
            es, et, eq, eh = e
            mono = ps[es] + pt[et] + pq[eq] + ph[eh]
            pieces.append((" + " if c > 0 else " - ")
                          + (mono if abs(c) == 1 and mono else f"{abs(c)}{mono}"))
        text = "".join(pieces)  # the first term's " + " or " - " becomes "" or "-"
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def to_json_terms(self) -> List[Dict[str, int]]:
        """JSON form: [{c, s, t, q, h}, ...] in the same fixed order as text."""
        return [
            {"c": self.terms[e], "s": e[0], "t": e[1], "q": e[2], "h": e[3]}
            for e in sorted(self.terms)
        ]


# Handy monomial constants.
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()
S = LaurentPoly.var("s")
T = LaurentPoly.var("t")
Q = LaurentPoly.var("q")
H = LaurentPoly.var("h")
S1 = LaurentPoly.var("s", -1)
T1 = LaurentPoly.var("t", -1)
Q1 = LaurentPoly.var("q", -1)
H1 = LaurentPoly.var("h", -1)
