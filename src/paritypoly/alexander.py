"""Crossing relators, the linearized matrices, and the invariant itself.

For a diagram with n total crossings the group on the 2n semi-arc labels
plus s, q, h has two relators per crossing and three commutator relators
[s,q], [s,h], [h,q].  Fox derivatives of the relators, abelianized by
arc -> t, produce the (2n+3) x (2n+3) matrix M whose upper-left 2n x 2n
block A has determinant det(A) = the invariant (up to a signed monomial
unit, fixed by canonicalization).

Role assignment at a crossing (the unified rule, same for classical and
virtual crossings): X is the strand whose direction, followed by the other
strand's direction, forms a positively oriented frame; x/w are the incoming
and outgoing arcs of X, y/z those of the other strand.  For classical
crossings this means: positive sign => x is the over-incoming arc,
negative sign => x is the under-incoming arc.  For virtual crossings the
frame bit marks the X pass directly.

Relators by crossing class (z is the outgoing arc of the y strand, w of
the x strand; every relator is stored as RHS * target^-1):

    even positive:   z = x y s x^-1 s^-1      w = s x s^-1
    even negative:   z = s^-1 y s             w = s^-1 y^-1 s x y
    odd, any sign:   z = h^-1 y h             w = h x h^-1
    virtual:         z = q^-1 y q             w = q x q^-1

Their abelianized Fox derivatives are the row templates of A: each row is
-1 on its target arc plus monomial-weighted incoming arcs,

    even positive:   z: (1 - st) x + t y      w: s x
    even negative:   z: s^-1 y                w: t^-1 x + (1 - s^-1 t^-1) y
    odd, any sign:   z: h^-1 y                w: h x
    virtual:         z: q^-1 y                w: q x

where entries on coinciding arcs add.

Two paths build A.  ``build_matrix_A``, which ``parity_alexander`` uses,
reads the rows straight off the templates.  The oracle path builds words
(``crossing_relators``) and differentiates them (``fox_matrix_A``,
``build_full_matrix_M``); the bordered matrix M, the presentation view and
the tests use it, and the tests check that both paths give the same A.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

from . import foxcalc as fx
from .diagram import (
    EVEN, ODD, OVER, UNDER, VIRTUAL,
    DiagramCode, DiagramError, Pass, parity, semi_arcs,
    switch, flip, reverse, switched_flip,
)
from .foxcalc import H_GEN, Q_GEN, S_GEN, Word, arc, gen_word, invert, multiply
from .laurent import H, H1, ONE, Q, Q1, S, S1, T, T1, InexactDivision, LaurentPoly

ColKey = object  # arc index (int) or one of "s", "q", "h"


class InternalArithmeticError(ArithmeticError):
    """An exactness invariant broke inside elimination; always a bug."""


@dataclass(frozen=True)
class CrossingRoles:
    x_in: int
    y_in: int
    z_out: int
    w_out: int
    x_pos: int  # pass position of the X strand
    y_pos: int


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


# -- roles and relators -------------------------------------------------------


def assign_roles(code: DiagramCode) -> Dict[int, CrossingRoles]:
    arcs = semi_arcs(code)
    positions: Dict[int, List[int]] = {}
    for i, p in enumerate(code.passes):
        positions.setdefault(p.cid, []).append(i)
    out: Dict[int, CrossingRoles] = {}
    for cid, (p1, p2) in positions.items():
        if code.passes[p1].kind == VIRTUAL:
            x_pos = p1 if code.passes[p1].frame else p2
        else:
            want = OVER if code.signs[cid] > 0 else UNDER
            x_pos = p1 if code.passes[p1].kind == want else p2
        y_pos = p2 if x_pos == p1 else p1
        out[cid] = CrossingRoles(
            x_in=arcs.incoming(x_pos),
            y_in=arcs.incoming(y_pos),
            z_out=arcs.outgoing(y_pos),
            w_out=arcs.outgoing(x_pos),
            x_pos=x_pos,
            y_pos=y_pos,
        )
    return out


def _conj(g: fx.Gen, inner: Word, inverse_first: bool) -> Word:
    """g^-1 inner g when inverse_first else g inner g^-1."""
    e = -1 if inverse_first else 1
    return multiply(multiply(gen_word(g, e), inner), gen_word(g, -e))


def relator_pair(roles: CrossingRoles, crossing_class: str, sign: int) -> Tuple[Word, Word]:
    """(z-relator, w-relator) for one crossing, as words RHS * target^-1."""
    x = gen_word(arc(roles.x_in))
    y = gen_word(arc(roles.y_in))
    if crossing_class == "virtual":
        rhs_z = _conj(Q_GEN, y, inverse_first=True)
        rhs_w = _conj(Q_GEN, x, inverse_first=False)
    elif crossing_class == ODD:
        rhs_z = _conj(H_GEN, y, inverse_first=True)
        rhs_w = _conj(H_GEN, x, inverse_first=False)
    elif sign > 0:
        # z = x y s x^-1 s^-1, w = s x s^-1
        rhs_z = multiply(multiply(multiply(x, y), gen_word(S_GEN)),
                         multiply(invert(x), gen_word(S_GEN, -1)))
        rhs_w = _conj(S_GEN, x, inverse_first=False)
    else:
        # z = s^-1 y s, w = s^-1 y^-1 s x y
        rhs_z = _conj(S_GEN, y, inverse_first=True)
        rhs_w = multiply(multiply(gen_word(S_GEN, -1), invert(y)),
                         multiply(multiply(gen_word(S_GEN), x), y))
    r_z = multiply(rhs_z, invert(gen_word(arc(roles.z_out))))
    r_w = multiply(rhs_w, invert(gen_word(arc(roles.w_out))))
    return r_z, r_w


def crossing_relators(code: DiagramCode) -> List[Relator]:
    """Two relators per crossing, crossings ordered by id, z before w."""
    parities = parity(code)
    roles = assign_roles(code)
    virtual_ids = set(code.virtual_ids())
    out: List[Relator] = []
    for cid in sorted(roles):
        cls = "virtual" if cid in virtual_ids else parities[cid]
        r_z, r_w = relator_pair(roles[cid], cls, code.signs.get(cid, 0))
        out.append(Relator(r_z, cid, "z"))
        out.append(Relator(r_w, cid, "w"))
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
        entry = fx.abelianize(fx.fox_derivative(word, g))
        if entry:
            row[col] = entry
    return row


def fox_matrix_A(code: DiagramCode) -> AlexanderMatrix:
    """The oracle for build_matrix_A: the 2n x 2n matrix of arc-derivatives
    of the crossing relators."""
    cols: List[ColKey] = list(range(1, len(code.passes) + 1))
    col_set = set(cols)
    rows, labels = [], []
    for rel in crossing_relators(code):
        rows.append(_word_row(rel.word, col_set))
        labels.append((rel.cid, rel.rel_kind))
    return AlexanderMatrix(rows, labels, cols)


def build_full_matrix_M(code: DiagramCode) -> AlexanderMatrix:
    """(2n+3) x (2n+3) bordered matrix: A plus s/q/h columns plus the three
    commutator rows [0...0, 1-q, s-1, 0], [0...0, 1-h, 0, s-1],
    [0...0, 0, h-1, 1-q]."""
    cols: List[ColKey] = list(range(1, len(code.passes) + 1)) + ["s", "q", "h"]
    col_set = set(cols)
    rows, labels = [], []
    for rel in crossing_relators(code):
        rows.append(_word_row(rel.word, col_set))
        labels.append((rel.cid, rel.rel_kind))
    for name, word in COMMUTATORS:
        rows.append(_word_row(word, col_set))
        labels.append(("comm", name))
    return AlexanderMatrix(rows, labels, cols)


# -- row templates (the production path) ----------------------------------------

# crossing class -> (z row, w row), each the (incoming role, coefficient)
# entries besides the -1 on the row's target arc
ROW_TEMPLATES: Dict[str, Tuple[Tuple[Tuple[str, LaurentPoly], ...], ...]] = {
    "even+": ((("x", ONE - S * T), ("y", T)), (("x", S),)),
    "even-": ((("y", S1),), (("x", T1), ("y", ONE - S1 * T1))),
    ODD: ((("y", H1),), (("x", H),)),
    "virtual": ((("y", Q1),), (("x", Q),)),
}
_MINUS_ONE = LaurentPoly.const(-1)


def build_matrix_A(code: DiagramCode,
                   parities: Optional[Dict[int, str]] = None) -> AlexanderMatrix:
    """2n x 2n matrix A read off ROW_TEMPLATES: one column per arc, rows by
    ascending crossing id, z before w; entries on coinciding arcs add and
    zero entries are dropped.  ``parities`` is ``parity(code)`` when the
    caller has it.  fox_matrix_A builds the same matrix from Fox derivatives."""
    if parities is None:
        parities = parity(code)
    cols: List[ColKey] = list(range(1, len(code.passes) + 1))
    rows: List[Dict[ColKey, LaurentPoly]] = []
    labels = []
    for cid, roles in sorted(assign_roles(code).items()):
        sign = code.signs.get(cid)
        if sign is None:
            cls = "virtual"
        elif parities[cid] == ODD:
            cls = ODD
        else:
            cls = "even+" if sign > 0 else "even-"
        incoming = {"x": roles.x_in, "y": roles.y_in}
        for kind, target, entries in zip("zw", (roles.z_out, roles.w_out), ROW_TEMPLATES[cls]):
            row: Dict[ColKey, LaurentPoly] = {target: _MINUS_ONE}
            for role, coeff in entries:
                col = incoming[role]
                row[col] = row[col] + coeff if col in row else coeff
            rows.append({c: v for c, v in row.items() if v})
            labels.append((cid, kind))
    return AlexanderMatrix(rows, labels, cols)


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


def _det_units_then_bareiss(rows: List[Dict[ColKey, LaurentPoly]],
                            cols: List[ColKey]) -> LaurentPoly:
    """Exact determinant: pivot on +/- monomial entries while any exist
    (cheap row operations, most relator rows have one), then finish the
    unit-free core with fraction-free Bareiss elimination.

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

    core = LaurentPoly.one()
    if len(match) < len(work):
        core_rows = [i for i in range(len(work)) if i not in match]
        taken = set(match.values())
        core_cols = [c for c in cols if position[c] not in taken]
        for i, c in zip(core_rows, core_cols):
            match[i] = position[c]
        zero = LaurentPoly.zero()
        core = _bareiss([[work[i].get(c, zero) for c in core_cols] for i in core_rows])
    sign = unit_sign * _permutation_sign([match[i] for i in range(len(work))])
    return core.shift(tuple(map(sum, zip(*pivots))), sign)


def _bareiss(m: List[List[LaurentPoly]]) -> LaurentPoly:
    """Fraction-free Bareiss determinant; every division is exact or it
    raises InternalArithmeticError.  Row monomial content is factored out
    first so the elimination runs over plain polynomials."""
    n = len(m)
    if n == 0:
        return LaurentPoly.one()
    content = LaurentPoly.one()
    work: List[List[LaurentPoly]] = []
    for row in m:
        mins = [e.min_exps() for e in row if e]
        if not mins:
            return LaurentPoly.zero()
        shift = tuple(min(v[i] for v in mins) for i in range(4))
        content = content * LaurentPoly({shift: 1})
        neg = tuple(-x for x in shift)
        work.append([e.shift(neg) if e else e for e in row])

    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        if not work[k][k]:
            for i in range(k + 1, n):
                if work[i][k]:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero()
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * work[i][j] - work[i][k] * work[k][j]
                try:
                    work[i][j] = num.exact_div(prev) if prev != 1 else num
                except InexactDivision as exc:
                    raise InternalArithmeticError(
                        f"Bareiss division failed at step {k}: {exc}") from exc
            work[i][k] = LaurentPoly.zero()
        prev = pivot
    det = work[n - 1][n - 1]
    return content * (det if sign > 0 else -det)


def determinant(matrix: AlexanderMatrix) -> LaurentPoly:
    """Exact determinant; the 0x0 matrix has determinant 1."""
    n_rows, n_cols = matrix.size
    if n_rows != n_cols:
        raise ValueError(f"matrix is {n_rows}x{n_cols}, not square")
    return _det_units_then_bareiss(matrix.rows, matrix.cols)


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
    par = parity(code)
    det = determinant(build_matrix_A(code, par))
    canonical, unit = det.canonicalize()
    zero = canonical.is_zero()
    return InvariantResult(
        canonical=canonical,
        unit=unit,
        q_width=None if zero else canonical.width("q"),
        h_width=None if zero else canonical.width("h"),
        n_even=sum(1 for v in par.values() if v == EVEN),
        n_odd=sum(1 for v in par.values() if v == ODD),
        n_virtual=len(code.virtual_ids()),
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
    cont = poly_gcd(_content_in(a, i), _content_in(b, i))
    a = a.exact_div(_content_in(a, i))
    b = b.exact_div(_content_in(b, i))
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


def gcd_of_minors(matrix: AlexanderMatrix, corank: int = 1) -> LaurentPoly:
    """Canonical gcd of all minors of the given corank, by enumeration.

    Brute force: intended for matrices of dimension <= 8 only.  The gcd of
    an all-zero (or empty) minor set is the zero polynomial.
    """
    n_rows, n_cols = matrix.size
    k = min(n_rows, n_cols) - corank
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


def _selected_rows(roles: CrossingRoles, kind: str) -> List[Dict[ColKey, LaurentPoly]]:
    """The two selected-crossing rows of the K+, K- or smoothed matrix,
    under the shared column labeling (role arcs may coincide; entries add)."""
    if kind == "plus":
        z_word, w_word = relator_pair(roles, EVEN, 1)
    elif kind == "minus":
        z_word, w_word = relator_pair(roles, EVEN, -1)
    elif kind == "smooth":
        # oriented smoothing: each incoming continues on its own side
        z_word = multiply(gen_word(arc(roles.x_in)), invert(gen_word(arc(roles.z_out))))
        w_word = multiply(gen_word(arc(roles.y_in)), invert(gen_word(arc(roles.w_out))))
    else:
        raise ValueError(kind)
    cols = {roles.x_in, roles.y_in, roles.z_out, roles.w_out}
    return [_word_row(z_word, cols), _word_row(w_word, cols)]


def skein_matrices(code: DiagramCode, crossing_id: int
                   ) -> Tuple[AlexanderMatrix, AlexanderMatrix, AlexanderMatrix]:
    """(M_plus, M_minus, M_smooth): identical outside the two rows of the
    selected crossing, which carry the positive / negative / smoothing
    templates under one shared labeling."""
    if crossing_id not in code.signs:
        raise DiagramError(f"crossing {crossing_id} is not classical")
    parities = parity(code)
    if parities[crossing_id] != EVEN:
        raise DiagramError(f"crossing {crossing_id} is odd; use switch_crossing")
    base = build_matrix_A(code, parities)
    roles = assign_roles(code)[crossing_id]
    out = []
    for kind in ("plus", "minus", "smooth"):
        rows = [dict(r) for r in base.rows]
        z_row, w_row = _selected_rows(roles, kind)
        for idx, lbl in enumerate(base.row_labels):
            if lbl == (crossing_id, "z"):
                rows[idx] = z_row
            elif lbl == (crossing_id, "w"):
                rows[idx] = w_row
        out.append(AlexanderMatrix(rows, list(base.row_labels), list(base.cols)))
    return tuple(out)  # type: ignore[return-value]


@dataclass
class SkeinReport:
    crossing_id: int
    d_plus: LaurentPoly
    d_minus: LaurentPoly
    d_smooth: LaurentPoly
    theorem_form_holds: bool   # D+ -    D- == (1-st) Dv
    proof_form_holds: bool     # D+ - st D- == (1-st) Dv


def check_even_skein(code: DiagramCode, crossing_id: int) -> SkeinReport:
    """Evaluate both candidate skein identities exactly (no unit
    normalization; the shared labeling makes the determinants comparable)."""
    m_plus, m_minus, m_smooth = skein_matrices(code, crossing_id)
    dp = determinant(m_plus)
    dm = determinant(m_minus)
    dv = determinant(m_smooth)
    st = LaurentPoly.var("s") * LaurentPoly.var("t")
    rhs = (LaurentPoly.one() - st) * dv
    return SkeinReport(
        crossing_id=crossing_id,
        d_plus=dp, d_minus=dm, d_smooth=dv,
        theorem_form_holds=(dp - dm == rhs),
        proof_form_holds=(dp - st * dm == rhs),
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
