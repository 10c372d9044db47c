"""Crossing relators, the linearized matrices, and the invariant itself.

For a diagram with n total crossings the group on the 2n semi-arc labels
plus s, q, h has two relators per crossing and three commutator relators
[s,q], [s,h], [h,q].  Fox derivatives of the relators, abelianized by
arc -> t, produce the (2n+3) x (2n+3) matrix M whose upper-left 2n x 2n
block A has determinant det(A) = the invariant (up to a signed monomial
unit, fixed by canonicalization).

Each crossing is "virtual", "odd", "even+" or "even-"; ``diagram.crossings``
gives every crossing's class and role arcs (x, y incoming; z, w outgoing).
Per class, ``RELATOR_WORDS`` gives the crossing's two relators (z is the
outgoing arc of the y strand, w of the x strand; each is stored as
RHS * target^-1) and ``ROW_TEMPLATES`` their abelianized Fox derivatives,
the crossing's two rows of A: -1 on the target arc plus monomial-weighted
incoming arcs, entries on coinciding arcs adding.  The "smooth" rows of
``ROW_TEMPLATES`` (z = x, w = y) belong to no class: they are the oriented
smoothing of an even crossing, which only ``skein_matrices`` uses.

Two paths build A.  ``build_matrix_A``, which ``parity_alexander`` and
``skein_matrices`` use, reads the rows straight off the templates.  The
oracle path builds words (``crossing_relators``) and differentiates them
(``fox_matrix_A``, ``build_full_matrix_M``); the bordered matrix M, the
presentation view and the tests use it, and the tests check that both
paths give the same A.

``determinant`` divides nowhere: it pivots on the +/- monomial entries
(unit pivots), then expands the small unit-free core that is left by a
memoized Laplace expansion.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

from . import foxcalc as fx
from .diagram import (
    ODD, OVER, UNDER,
    Crossing, DiagramCode, DiagramError, Pass, crossings,
    switch, flip, reverse, switched_flip,
)
from .foxcalc import H_GEN, Q_GEN, S_GEN, Word, arc
from .laurent import H, H1, ONE, Q, Q1, S, S1, T, T1, LaurentPoly

ColKey = object  # arc index (int) or one of "s", "q", "h"


@dataclass(frozen=True)
class Relator:
    word: Word
    cid: int
    rel_kind: str  # "z" or "w"


@dataclass
class AlexanderMatrix:
    rows: List[Dict[ColKey, LaurentPoly]]
    row_labels: List[Tuple]
    cols: List[ColKey]

    @property
    def size(self) -> Tuple[int, int]:
        return len(self.rows), len(self.cols)


# -- relator words (the oracle path) ---------------------------------------------

# crossing class -> (z, w) right-hand sides, in foxcalc.word_from_string
# syntax with x and y standing for the incoming arcs of the two roles
RELATOR_WORDS: Dict[str, Tuple[str, str]] = {
    "even+": ("x y s x^-1 s^-1", "s x s^-1"),
    "even-": ("s^-1 y s", "s^-1 y^-1 s x y"),
    ODD: ("h^-1 y h", "h x h^-1"),
    "virtual": ("q^-1 y q", "q x q^-1"),
}
# the same words parsed once, x and y read as the placeholder arcs a1 and a2
_X, _Y = arc(1), arc(2)
_RELATOR_LETTERS: Dict[str, Tuple[Word, ...]] = {
    cls: tuple(fx.word_from_string(rhs.replace("x", "a1").replace("y", "a2")) for rhs in pair)
    for cls, pair in RELATOR_WORDS.items()
}


def relator_pair(c: Crossing) -> Tuple[Word, Word]:
    """(z-relator, w-relator) for one crossing, as words RHS * target^-1."""
    role_arcs = {_X: arc(c.x_in), _Y: arc(c.y_in)}
    return tuple(  # type: ignore[return-value]
        fx.reduce_word([(role_arcs.get(g, g), e) for g, e in rhs] + [(arc(target), -1)])
        for rhs, target in zip(_RELATOR_LETTERS[c.cls], (c.z_out, c.w_out)))


def crossing_relators(code: DiagramCode) -> List[Relator]:
    """Two relators per crossing, crossings ordered by id, z before w."""
    out: List[Relator] = []
    for c in crossings(code):
        r_z, r_w = relator_pair(c)
        out.append(Relator(r_z, c.cid, "z"))
        out.append(Relator(r_w, c.cid, "w"))
    return out


COMMUTATORS: Tuple[Tuple[str, Word], ...] = (
    ("[s,q]", fx.reduce_word([(S_GEN, 1), (Q_GEN, 1), (S_GEN, -1), (Q_GEN, -1)])),
    ("[s,h]", fx.reduce_word([(S_GEN, 1), (H_GEN, 1), (S_GEN, -1), (H_GEN, -1)])),
    ("[h,q]", fx.reduce_word([(H_GEN, 1), (Q_GEN, 1), (H_GEN, -1), (Q_GEN, -1)])),
)


def _word_row(word: Word, cols: Set[ColKey]) -> Dict[ColKey, LaurentPoly]:
    """Abelianized Fox derivatives of one relator, one entry per column among
    the relator's own generators; the other columns are zero."""
    row: Dict[ColKey, LaurentPoly] = {}
    for g in dict.fromkeys(g for g, _e in word):
        col = g[1] if g[0] == "a" else g[0]
        if col not in cols:
            continue
        entry = fx.fox_derivative(word, g)
        if entry:
            row[col] = entry
    return row


def _fox_matrix(code: DiagramCode, extra_cols: Tuple[ColKey, ...],
                extra_rows: Tuple[Tuple[str, Word], ...]) -> AlexanderMatrix:
    """Rows of the crossing relators, then of ``extra_rows``, over one column
    per arc plus ``extra_cols``."""
    cols: List[ColKey] = list(range(1, len(code.passes) + 1)) + list(extra_cols)
    col_set = set(cols)
    labeled = [((rel.cid, rel.rel_kind), rel.word) for rel in crossing_relators(code)]
    labeled += [(("comm", name), word) for name, word in extra_rows]
    return AlexanderMatrix([_word_row(word, col_set) for _label, word in labeled],
                           [label for label, _word in labeled], cols)


def fox_matrix_A(code: DiagramCode) -> AlexanderMatrix:
    """The oracle for build_matrix_A: the 2n x 2n matrix of arc-derivatives
    of the crossing relators."""
    return _fox_matrix(code, (), ())


def build_full_matrix_M(code: DiagramCode) -> AlexanderMatrix:
    """(2n+3) x (2n+3) bordered matrix: A plus s/q/h columns plus the three
    commutator rows [0...0, 1-q, s-1, 0], [0...0, 1-h, 0, s-1],
    [0...0, 0, h-1, 1-q]."""
    return _fox_matrix(code, ("s", "q", "h"), COMMUTATORS)


# -- row templates (the production path) ----------------------------------------

# crossing class, or "smooth", -> (z row, w row), each the (incoming role,
# coefficient) entries besides the -1 on the row's target arc
ROW_TEMPLATES: Dict[str, Tuple[Tuple[Tuple[str, LaurentPoly], ...], ...]] = {
    "even+": ((("x", ONE - S * T), ("y", T)), (("x", S),)),
    "even-": ((("y", S1),), (("x", T1), ("y", ONE - S1 * T1))),
    ODD: ((("y", H1),), (("x", H),)),
    "virtual": ((("y", Q1),), (("x", Q),)),
    "smooth": ((("x", ONE),), (("y", ONE),)),
}
_MINUS_ONE = LaurentPoly.const(-1)


def _template_rows(c: Crossing, template: str) -> List[Dict[ColKey, LaurentPoly]]:
    """The z and w rows of one crossing under ROW_TEMPLATES[template]."""
    incoming = {"x": c.x_in, "y": c.y_in}
    rows = []
    for target, entries in zip((c.z_out, c.w_out), ROW_TEMPLATES[template]):
        row: Dict[ColKey, LaurentPoly] = {target: _MINUS_ONE}
        for role, coeff in entries:
            col = incoming[role]
            row[col] = row[col] + coeff if col in row else coeff
        rows.append({c: v for c, v in row.items() if v})
    return rows


def build_matrix_A(code: DiagramCode,
                   table: Optional[List[Crossing]] = None) -> AlexanderMatrix:
    """2n x 2n matrix A read off ROW_TEMPLATES: one column per arc, rows by
    ascending crossing id, z before w; entries on coinciding arcs add and
    zero entries are dropped.  ``table`` is ``crossings(code)`` when the
    caller has it.  fox_matrix_A builds the same matrix from Fox
    derivatives."""
    if table is None:
        table = crossings(code)
    rows: List[Dict[ColKey, LaurentPoly]] = []
    labels: List[Tuple] = []
    for c in table:
        rows += _template_rows(c, c.cls)
        labels += [(c.cid, "z"), (c.cid, "w")]
    return AlexanderMatrix(rows, labels, list(range(1, len(code.passes) + 1)))


# -- exact determinants --------------------------------------------------------


def _times(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b, as a shift when either factor is a single term."""
    if len(b.terms) == 1:
        ((e, c),) = b.terms.items()
        return a.shift(e, c)
    if len(a.terms) == 1:
        ((e, c),) = a.terms.items()
        return b.shift(e, c)
    return a * b


def _permutation_sign(perm: List[int]) -> int:
    """+1 or -1: the parity of perm, a permutation of range(len(perm))."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        length, k = 0, start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _det_units_then_laplace(rows: List[Dict[ColKey, LaurentPoly]],
                            cols: List[ColKey]) -> LaurentPoly:
    """Exact determinant: pivot on +/- monomial entries while any exist
    (cheap row operations, most relator rows have one), then expand the
    unit-free core with the division-free ``_laplace``.

    Each unit pivot is taken in the sparsest live row that has one, at its
    unit entry of lowest column position.  Rows wait in a heap of (length,
    row), re-queued whenever a pivot changes them; an entry whose row was
    pivoted or changed length is skipped.  A column -> rows index confines
    each elimination step to the rows holding the pivot column.  The pivot
    rows then form a triangular block, so det is the product of the pivots
    times det(core), signed by the parity of the row -> column matching:
    each pivot row to its column, then the core rows to the core columns in
    order.
    """
    position = {c: j for j, c in enumerate(cols)}
    work = [dict(r) for r in rows]
    holders: Dict[ColKey, Set[int]] = {c: set() for c in cols}
    for i, row in enumerate(work):
        for c in row:
            holders[c].add(i)
    heap = [(len(row), i) for i, row in enumerate(work)]
    heapq.heapify(heap)
    match: Dict[int, int] = {}  # row -> column position
    pivots: List[Tuple[int, int, int, int]] = [(0, 0, 0, 0)]  # exponents; summed at the end
    unit_sign = 1

    while heap:
        length, i = heapq.heappop(heap)
        if i in match or length != len(work[i]):
            continue  # stale entry
        if not length:
            return LaurentPoly.zero()
        row = work[i]
        col = None
        for c, v in row.items():
            if v.is_unit_monomial() and (col is None or position[c] < position[col]):
                col = c
        if col is None:
            continue  # queued again if a later pivot changes the row
        match[i] = position[col]
        for c in row:
            holders[c].discard(i)
        ((e, sign),) = row.pop(col).terms.items()
        pivots.append(e)
        unit_sign *= sign
        # row_k -= (row_k[col] / pivot) * row_i, with the pivot a signed monomial
        inverse = (-e[0], -e[1], -e[2], -e[3])
        scaled = [(c, v.shift(inverse, -sign)) for c, v in row.items()]
        for k in holders.pop(col):
            other = work[k]
            factor = other.pop(col)
            for c, v in scaled:
                delta = _times(factor, v)
                cur = other.get(c)
                if cur is None:
                    other[c] = delta
                    holders[c].add(k)
                    continue
                new = cur + delta
                if new:
                    other[c] = new
                else:
                    del other[c]
                    holders[c].discard(k)
            heapq.heappush(heap, (len(other), k))

    core_rows = [i for i in range(len(work)) if i not in match]
    taken = set(match.values())
    core_cols = [c for c in cols if position[c] not in taken]
    for i, c in zip(core_rows, core_cols):
        match[i] = position[c]
    core = _laplace([[work[i].get(c) for c in core_cols] for i in core_rows])
    sign = unit_sign * _permutation_sign([match[i] for i in range(len(work))])
    return core.shift(tuple(map(sum, zip(*pivots))), sign)


def _laplace(m: List[List[Optional[LaurentPoly]]]) -> LaurentPoly:
    """Division-free determinant of a square matrix (None for a zero entry)
    by Laplace expansion from the bottom row up.

    After the rows i..k-1 are taken, ``minors`` maps each set of k-i
    columns, as a bitmask, to the determinant of those rows on those
    columns, so each minor is computed once; a dense k x k matrix costs
    k * 2^(k-1) entry-by-minor products."""
    minors: Dict[int, LaurentPoly] = {0: LaurentPoly.one()}
    for row in reversed(m):
        entries = [(1 << j, v) for j, v in enumerate(row) if v]
        grown: Dict[int, Dict] = {}
        for mask, minor in minors.items():
            for bit, v in entries:
                if mask & bit:
                    continue
                # the entry's sign in the larger minor: -1 per column left of it
                sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
                acc = grown.setdefault(mask | bit, {})
                for e, c in _times(v, minor).terms.items():
                    acc[e] = acc.get(e, 0) + sign * c
        minors = {}
        for mask, acc in grown.items():
            terms = {e: c for e, c in acc.items() if c}
            if terms:
                minors[mask] = LaurentPoly(terms)
        if not minors:
            return LaurentPoly.zero()
    return minors[(1 << len(m)) - 1]


def determinant(matrix: AlexanderMatrix) -> LaurentPoly:
    """Exact determinant, division-free: unit pivots, then a Laplace
    expansion of the unit-free core.  The 0x0 matrix has determinant 1."""
    n_rows, n_cols = matrix.size
    if n_rows != n_cols:
        raise ValueError(f"matrix is {n_rows}x{n_cols}, not square")
    return _det_units_then_laplace(matrix.rows, matrix.cols)


def determinant_cofactor(matrix: AlexanderMatrix) -> LaurentPoly:
    """Naive cofactor expansion along the first row; the independent oracle."""
    n_rows, n_cols = matrix.size
    if n_rows != n_cols:
        raise ValueError(f"matrix is {n_rows}x{n_cols}, not square")
    grid = [[r.get(c, LaurentPoly.zero()) for c in matrix.cols] for r in matrix.rows]

    def rec(rows: List[List[LaurentPoly]]) -> LaurentPoly:
        if not rows:
            return LaurentPoly.one()
        if len(rows) == 1:
            return rows[0][0]
        total = LaurentPoly.zero()
        for j, head in enumerate(rows[0]):
            if not head:
                continue
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = head * rec(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    return rec(grid)


# -- the invariant --------------------------------------------------------------


@dataclass
class InvariantResult:
    canonical: LaurentPoly
    unit: LaurentPoly
    q_width: Optional[int]
    h_width: Optional[int]
    n_even: int
    n_odd: int
    n_virtual: int

    @property
    def widths(self) -> Dict[str, Optional[int]]:
        return {"q": self.q_width, "h": self.h_width}


def parity_alexander(code: DiagramCode) -> InvariantResult:
    """Canonical invariant of a diagram code, with widths and crossing counts.

    Computed as det(A) of build_matrix_A, no Fox derivatives involved; the
    gcd-of-minors definition agrees up to unit and is kept as the
    small-instance oracle gcd_of_minors.  The empty code has a 0x0 matrix
    and canonical invariant 1.
    """
    table = crossings(code)
    det = determinant(build_matrix_A(code, table))
    canonical, unit = det.canonicalize()
    zero = canonical.is_zero()
    kinds = [c.cls for c in table]
    return InvariantResult(
        canonical=canonical,
        unit=unit,
        q_width=None if zero else canonical.width("q"),
        h_width=None if zero else canonical.width("h"),
        n_even=kinds.count("even+") + kinds.count("even-"),
        n_odd=kinds.count(ODD),
        n_virtual=kinds.count("virtual"),
    )


def crossing_bounds(poly: LaurentPoly) -> Tuple[Optional[int], Optional[int]]:
    """(virtual lower bound, odd lower bound) from the q/h widths.

    The q width bounds twice the virtual crossing number and the h width
    twice the odd crossing number; the zero polynomial carries no
    information and yields (None, None).
    """
    if poly.is_zero():
        return None, None
    return (poly.width("q") + 1) // 2, (poly.width("h") + 1) // 2


# -- gcd of minors (brute-force oracle) -------------------------------------------


def _int_content(p: LaurentPoly) -> int:
    return math.gcd(*(abs(c) for c in p.terms.values())) if p.terms else 0


def _main_var(a: LaurentPoly, b: LaurentPoly) -> Optional[int]:
    for i in range(4):
        for p in (a, b):
            exps = {e[i] for e in p.terms}
            if len(exps) > 1 or (exps and exps != {0}):
                return i
    return None


def _var_deg(p: LaurentPoly, i: int) -> int:
    return max(e[i] for e in p.terms)


def _var_coeff(p: LaurentPoly, i: int, d: int) -> LaurentPoly:
    out = {}
    for e, c in p.terms.items():
        if e[i] == d:
            ne = list(e)
            ne[i] = 0
            out[tuple(ne)] = c
    return LaurentPoly(out)


def _var_shift(p: LaurentPoly, i: int, d: int) -> LaurentPoly:
    sh = [0, 0, 0, 0]
    sh[i] = d
    return p.shift(tuple(sh))


def _content_in(p: LaurentPoly, i: int) -> LaurentPoly:
    g = LaurentPoly.zero()
    for d in sorted({e[i] for e in p.terms}):
        g = poly_gcd(g, _var_coeff(p, i, d))
    return g


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd up to unit in the Laurent ring, via a primitive pseudo-remainder
    sequence.  Only the minor-enumeration oracle uses this; the production
    invariant never needs polynomial gcds."""
    a = a.canonical()
    b = b.canonical()
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    i = _main_var(a, b)
    if i is None:
        ca, cb = _int_content(a), _int_content(b)
        return LaurentPoly.const(math.gcd(ca, cb))
    content_a, content_b = _content_in(a, i), _content_in(b, i)
    cont = poly_gcd(content_a, content_b)
    a = a.exact_div(content_a)
    b = b.exact_div(content_b)
    if _var_deg(a, i) < _var_deg(b, i):
        a, b = b, a
    while not b.is_zero():
        if _var_deg(b, i) == 0:
            # a common divisor must divide a degree-0 primitive poly: coprime
            return cont.canonical()
        r = _pseudo_rem(a, b, i)
        a, b = b, (r.exact_div(_content_in(r, i)) if not r.is_zero() else r)
    return (cont * a).canonical()


def _pseudo_rem(a: LaurentPoly, b: LaurentPoly, i: int) -> LaurentPoly:
    db = _var_deg(b, i)
    lb = _var_coeff(b, i, db)
    r = a
    while not r.is_zero() and _var_deg(r, i) >= db:
        dr = _var_deg(r, i)
        lr = _var_coeff(r, i, dr)
        r = r * lb - _var_shift(lr * b, i, dr - db)
    return r


def gcd_of_minors(matrix: AlexanderMatrix) -> LaurentPoly:
    """Canonical gcd of all corank-1 minors, by enumeration.

    Brute force: intended for matrices of dimension <= 8 only.  The gcd of
    an all-zero (or empty) minor set is the zero polynomial.
    """
    n_rows, n_cols = matrix.size
    k = min(n_rows, n_cols) - 1
    if max(n_rows, n_cols) > 8:
        raise ValueError("gcd_of_minors is a brute-force oracle; dimension > 8 refused")
    if k <= 0:
        return LaurentPoly.one()
    g = LaurentPoly.zero()
    for rsel in combinations(range(n_rows), k):
        for csel in combinations(matrix.cols, k):
            sub = AlexanderMatrix(
                [{c: matrix.rows[r][c] for c in csel if c in matrix.rows[r]} for r in rsel],
                [matrix.row_labels[r] for r in rsel],
                list(csel),
            )
            g = poly_gcd(g, determinant(sub))
            if g == 1:
                return g
    return g.canonical()


# -- skein triples ------------------------------------------------------------------


def skein_matrices(code: DiagramCode, crossing_id: int
                   ) -> Tuple[AlexanderMatrix, AlexanderMatrix, AlexanderMatrix]:
    """(M_plus, M_minus, M_smooth): A with the two rows of the selected even
    crossing read off the "even+", "even-" and "smooth" templates; the other
    rows and the labeling are shared."""
    table = crossings(code)
    k = next((i for i, c in enumerate(table) if c.cid == crossing_id), None)
    if k is None or table[k].cls == "virtual":
        raise DiagramError(f"crossing {crossing_id} is not classical")
    if table[k].cls == ODD:
        raise DiagramError(f"crossing {crossing_id} is odd; use switch_crossing")
    base = build_matrix_A(code, table)
    out = []
    for template in ("even+", "even-", "smooth"):
        rows = list(base.rows)
        rows[2 * k:2 * k + 2] = _template_rows(table[k], template)
        out.append(AlexanderMatrix(rows, list(base.row_labels), list(base.cols)))
    return tuple(out)  # type: ignore[return-value]


@dataclass
class SkeinReport:
    crossing_id: int
    d_plus: LaurentPoly
    d_minus: LaurentPoly
    d_smooth: LaurentPoly
    proof_form_holds: bool     # D+ - st D- == (1-st) Dv


def check_even_skein(code: DiagramCode, crossing_id: int) -> SkeinReport:
    """Evaluate the skein identity D+ - st D- = (1-st) Dv exactly (no unit
    normalization; the shared labeling makes the determinants comparable)."""
    m_plus, m_minus, m_smooth = skein_matrices(code, crossing_id)
    dp = determinant(m_plus)
    dm = determinant(m_minus)
    dv = determinant(m_smooth)
    st = LaurentPoly.var("s") * LaurentPoly.var("t")
    return SkeinReport(
        crossing_id=crossing_id,
        d_plus=dp, d_minus=dm, d_smooth=dv,
        proof_form_holds=(dp - st * dm == (LaurentPoly.one() - st) * dv),
    )


def switch_crossing(code: DiagramCode, crossing_id: int) -> DiagramCode:
    """Swap over/under and negate the sign at one classical crossing.

    For an odd crossing this leaves the relator pair unchanged word for
    word (the odd relations are sign-free and the frame, hence the role
    assignment, is direction-determined), so the invariant is unchanged
    exactly.
    """
    if crossing_id not in code.signs:
        raise DiagramError(f"crossing {crossing_id} is not classical")
    passes = tuple(
        Pass(p.cid, UNDER if p.kind == OVER else OVER) if p.cid == crossing_id else p
        for p in code.passes
    )
    signs = dict(code.signs)
    signs[crossing_id] = -signs[crossing_id]
    return DiagramCode(passes, signs)


# -- symmetry checks -----------------------------------------------------------------


@dataclass
class SymmetryReport:
    base: LaurentPoly
    outcomes: Dict[str, bool]

    def all_hold(self) -> bool:
        return all(self.outcomes.values())


def check_symmetries(code: DiagramCode) -> SymmetryReport:
    """Verify, up to unit: reverse keeps the invariant; switch inverts s,t;
    flip inverts q,h; switched flip inverts all four."""
    base = parity_alexander(code).canonical
    expect = {
        "reverse": (reverse, ()),
        "switch": (switch, ("s", "t")),
        "flip": (flip, ("q", "h")),
        "switched_flip": (switched_flip, ("s", "t", "q", "h")),
    }
    outcomes = {}
    for name, (op, inverted) in expect.items():
        got = parity_alexander(op(code)).canonical
        want = base.substitute_inverses(inverted).canonical()
        outcomes[name] = got == want
    return SymmetryReport(base, outcomes)


# -- group presentation printer --------------------------------------------------------


def group_presentation(code: DiagramCode) -> str:
    """Printable presentation: arc generators, s, q, h, and all relators."""
    n2 = len(code.passes)
    gens = [f"a{i}" for i in range(1, n2 + 1)] + ["s", "q", "h"]
    lines = ["generators: " + " ".join(gens), "relators:"]
    for rel in crossing_relators(code):
        lines.append(f"  r[{rel.cid}.{rel.rel_kind}]: {fx.word_to_string(rel.word)}")
    for name, word in COMMUTATORS:
        lines.append(f"  {name}: {fx.word_to_string(word)}")
    return "\n".join(lines)
