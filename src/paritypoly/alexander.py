"""Crossing relators, the linearized matrices, and the invariant itself.

For a diagram with n total crossings the group on the 2n semi-arc labels
plus s, q, h has two relators per crossing and three commutator relators
[s,q], [s,h], [h,q].  Fox derivatives of the relators, abelianized by
arc -> t, produce the (2n+3) x (2n+3) matrix M whose upper-left 2n x 2n
block A has determinant det(A) = the invariant (up to a signed monomial
unit, fixed by canonicalization).

Each crossing is "virtual", "odd", "even+" or "even-"; ``diagram.roles``
gives every crossing's class and the positions of its two passes, and
``diagram.crossings`` reads its role arcs off them (x, y incoming; z, w
outgoing).
Per class, ``RELATOR_WORDS`` gives the crossing's two relators (z is the
outgoing arc of the y strand, w of the x strand; each is stored as
RHS * target^-1) and ``ROW_TEMPLATES`` their abelianized Fox derivatives,
the crossing's two rows of A: -1 on the target arc plus monomial-weighted
incoming arcs, entries on coinciding arcs adding.  The "smooth" rows of
``ROW_TEMPLATES`` (z = x, w = y) belong to no class of ``crossings``: they
are the oriented smoothing of an even crossing, which only the skein
role maps hold.

``_template_rows`` reads the rows of a crossing table straight off the
templates, as term dicts, and ``build_matrix_A`` wraps them as a
labelled ``AlexanderMatrix``.  The oracle path builds words
(``crossing_relators``) and differentiates them (``fox_matrix_A``,
``build_full_matrix_M``); the bordered matrix M, the presentation view
and the tests use it, and the tests check that both give the same A.
One path goes from a role map to det A, ``_det_A``, for
``parity_alexander`` and for the skein triple alike.

``_det_A`` contracts every one-step row first, so that its matrix K has
one row per even crossing, and two for a smoothed one.  Both rows of a
virtual or odd crossing, the w row of an even+ and the z row of an even-
crossing say that the outgoing arc is one monomial times the incoming arc
of its strand (z = q^-1 y, w = q x; z = h^-1 y, w = h x; w = s x;
z = s^-1 y).  The row of the pass at position p goes from arc p to arc
p + 1, so ``fold_roles`` lists each one-step row's exponents by pass
position and sums them once: every arc is a monomial times its head, the
last target of another row at or before it, and the monomial is the
steps' sum between the two.  It builds a ``Crossing`` for each kept
(even) crossing only, and ``build_matrix_A`` of that folded table puts
the monomials on the x and y entries of the kept rows.  Order the rows
and columns of A by row target (each arc is the target of one row), so
that -1 runs down the diagonal.  The m one-step rows on their target columns are then -I + N,
N nilpotent as each chain of step arcs starts after a head, of
determinant (-1)^m, and eliminating them substitutes its weighted head
for each step arc: K is their Schur complement.  With k kept rows
m = 2n - k, so

    det A = eps * det K,   eps = sgn(sigma_A) * sgn(sigma_K) * (-1)^k,

with sigma taking each row to the position of its target among the
matrix's ascending columns.  With no even crossing every row is one step,
and the weights walked around the knot close up at 1 (each crossing's two
steps are h^-1 and h, or q^-1 and q), a null vector of A, so det A = 0.
The empty code is read the same way and gives 0, as its R1 and V1
neighbours do (its 0 x 0 matrix A has det 1).  At h = q the odd template
is the virtual one, so the invariant at h = q is that of the code with its
odd crossings made virtual, framed on their X pass, whenever that keeps
every even crossing even.

With one or two rows K has no unit pivot worth taking, so ``_det_A``
reads det K off ``_template_rows`` in closed form; a larger K goes
through ``build_matrix_A`` and the kernel below.

``determinant`` divides nowhere: its kernel ``_det_parts`` pivots on the
+/- monomial entries (unit pivots: in the sparsest row, at the unit column
the fewest rows hold), then expands the small unit-free core that is left
by a memoized Laplace expansion, and returns the core's determinant and
the pivots' signed monomial apart, so that ``parity_alexander`` shifts the
terms once, to canonical form.  Both phases take every term product from
``laurent.add_product``, the one multiply-accumulate.  ``gcd_of_minors``
reads its minors off the same expansion.

1 - st divides det(A) for every nonempty code.  Along the knot, z
continues the y strand and w the x strand; at t = s^-1 every row of
``ROW_TEMPLATES`` says that the outgoing arc is one monomial times the
incoming arc of its strand, the step weights

    class     y -> z    x -> w
    even+     t         s
    even-     s^-1      t^-1 = s
    odd       h^-1      h
    virtual   q^-1      q

(the 1 - st and 1 - s^-1 t^-1 entries vanish there).  The two steps of a
crossing multiply to 1, so weights walked once around the knot from 1 on
any arc close up: they are a nonzero vector v with A v = 0 at t = s^-1.
So det(A) vanishes at t = s^-1, and the kernel of that substitution is
the ideal of 1 - st.

The quotient's value at s = t = 1 is a sum over the even crossings.  Let
P be the canonical invariant of a nonempty code and R = P / (1 - st).
Up to a signed monomial,

    R(1, 1, q, h) = sum over even c of  eps_c (m_c^eps_c - 1),

with eps_c the sign of c and m_c the product of the step weights met
walking along the knot strictly from c's y pass to its x pass: q per
virtual and h per odd pass on that crossing's X strand, q^-1 or h^-1 on
its other strand.  The tests check it as an oracle on routed and random
codes.  Proof sketch: at s = t = 1 every row of ``ROW_TEMPLATES`` is one
step, so A0 = A(1, 1) is -I plus a weighted cycle whose weights close up
at 1.  It has corank 1 and adj(A0) = kappa v u^T, kappa a unit, v the
walk weight of each arc and u_r = 1 / v(target of r).  The s-derivative
of A at (1, 1) has entries on even rows only: -x on the z row and +x on
the w row of an even+ crossing, -y and +y on an even- one.  Jacobi's
formula gives d_s P(1, 1) = kappa u^T (d_s A) v up to the unit, a sum of
one term per even crossing, and d_s P(1, 1) = -R(1, 1) as P = (1 - st) R.

The skein relation D+ - st D- = (1 - st) Dv (``check_even_skein``) follows
from the z and w templates alone.  Write D(u, v) for det A with the
crossing's z row set to u and its w row to v, and a, b for its -1 entries
on z and w; D is bilinear, D(x, x) = D(y, y) = 0 and D(y, x) = -D(x, y):

    D+     = D(a + (1-st) x + t y, b + s x)
           = D(a,b) + s D(a,x) + (1-st) D(x,b) + t D(y,b) - st D(x,y)
    st D-  = st D(a + s^-1 y, b + t^-1 x + (1 - s^-1 t^-1) y)
           = st D(a,b) + s D(a,x) - (1-st) D(a,y) + t D(y,b) - D(x,y)
    D+ - st D- = (1-st) (D(a,b) + D(x,b) + D(a,y) + D(x,y))
               = (1-st) D(a + x, b + y) = (1-st) Dv.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import foxcalc as fx
from .diagram import (
    ODD,
    Crossing, DiagramCode, DiagramError, Role, crossings, roles,
    switch, flip, reverse, switched_flip,
    switch_crossing,  # re-exported: the odd-switch checks import it from here
)
from .foxcalc import H_GEN, Q_GEN, S_GEN, Word, arc
from .laurent import (H, H1, ONE, Q, Q1, S, S1, T, T1, Exps, InexactDivision, LaurentPoly,
                      Terms, add_product, drop_zeros)

ColKey = object  # arc index (int) or one of "s", "q", "h"


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


def crossing_relators(code: DiagramCode) -> List[Tuple[Tuple[int, str], Word]]:
    """Two relators per crossing, labelled (cid, "z") and (cid, "w"), as
    words RHS * target^-1; crossings ordered by id, z before w."""
    out: List[Tuple[Tuple[int, str], Word]] = []
    for c in crossings(code):
        role_arcs = {_X: arc(c.x_in), _Y: arc(c.y_in)}
        for rel_kind, rhs, target in zip("zw", _RELATOR_LETTERS[c.cls], (c.z_out, c.w_out)):
            word = [(role_arcs.get(g, g), e) for g, e in rhs] + [(arc(target), -1)]
            out.append(((c.cid, rel_kind), fx.reduce_word(word)))
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
    labeled = crossing_relators(code) + [(("comm", name), word) for name, word in extra_rows]
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


def _template_rows(table: Sequence[Crossing]) -> Tuple[List[Dict[int, Terms]], List[int]]:
    """(rows, targets): a row of ROW_TEMPLATES[c.cls] per nonzero target in
    the table, by ascending crossing id, z before w, as {column: terms},
    and each row's target.  Every term dict is fresh; entries on coinciding
    arcs add, and zero entries are dropped.  The x and y entries of a table
    folded by ``fold_roles`` are shifted by x_exp and y_exp."""
    rows: List[Dict[int, Terms]] = []
    targets: List[int] = []
    for c in table:
        incoming = {"x": (c.x_in, c.x_exp), "y": (c.y_in, c.y_exp)}
        for target, entries in zip((c.z_out, c.w_out), ROW_TEMPLATES[c.cls]):
            if not target:
                continue
            row: Dict[int, Terms] = {target: {(0, 0, 0, 0): -1}}
            for role, coeff in entries:
                col, (e0, e1, e2, e3) = incoming[role]
                acc = row.setdefault(col, {})
                for (a0, a1, a2, a3), v in coeff.terms.items():
                    e = (a0 + e0, a1 + e1, a2 + e2, a3 + e3)
                    acc[e] = acc.get(e, 0) + v
            if len(row) <= len(entries):  # entries met on a column: drop the zeros
                row = {col: v for col, v in zip(row, map(drop_zeros, row.values())) if v}
            rows.append(row)
            targets.append(target)
    return rows, targets


def build_matrix_A(code: DiagramCode,
                   table: Optional[List[Crossing]] = None) -> AlexanderMatrix:
    """Square matrix of the ``_template_rows`` of the table, labelled
    (crossing id, "z" or "w"), with one column per row target, ascending.
    ``table`` is ``crossings(code)``, possibly of a role map with a
    crossing's class replaced (the skein role maps), or a table folded by
    ``fold_roles``.  For ``crossings(code)`` this is the 2n x 2n matrix A
    over the arcs 1..n, which fox_matrix_A builds from Fox derivatives."""
    if table is None:
        table = crossings(code)
    rows, targets = _template_rows(table)
    labels = [(c.cid, kind) for c in table
              for kind, target in (("z", c.z_out), ("w", c.w_out)) if target]
    return AlexanderMatrix([{col: LaurentPoly(v) for col, v in row.items()} for row in rows],
                           labels, sorted(targets))


def _one_step(row: Tuple[Tuple[str, LaurentPoly], ...], strand: str) -> Optional[Exps]:
    """The exponents of m if a template row says target = m * the incoming
    arc of ``strand``, else None."""
    terms = row[0][1].terms if len(row) == 1 and row[0][0] == strand else {}
    return next(iter(terms)) if list(terms.values()) == [1] else None


# Exponents (a, b, c, d) packed into one int, one 32-bit digit each, so that
# a sum of exponents is one int sum; biasing each digit by half the base
# makes every digit of a sum of sizes below 2^31 read back without carries.
_BASE = 1 << 32
_HALF = _BASE // 2
_MASK = _BASE - 1


def _pack(e: Exps) -> int:
    return ((e[0] * _BASE + e[1]) * _BASE + e[2]) * _BASE + e[3]


_BIAS = _pack((_HALF, _HALF, _HALF, _HALF))


def _unpack(v: int) -> Exps:
    v += _BIAS
    return ((v >> 96) - _HALF, (v >> 64 & _MASK) - _HALF, (v >> 32 & _MASK) - _HALF,
            (v & _MASK) - _HALF)


# crossing class -> (z step, w step), packed, None for a row that is not one step
_STEPS = {cls: tuple(None if e is None else _pack(e)
                     for e in (_one_step(z, "y"), _one_step(w, "x")))
          for cls, (z, w) in ROW_TEMPLATES.items()}


def fold_roles(role_map: Dict[int, Role]) -> Tuple[List[Crossing], int]:
    """(folded, sign) with det A = sign * det build_matrix_A(code, folded),
    for ``role_map`` the ``roles`` of a code of n = 2 * len(role_map)
    passes, possibly with a crossing's class replaced: the even crossings,
    each with its one row that is not one step, on segment heads (see the
    module docstring).

    The pass at position p holds the row from arc p to arc p + 1 (arc n
    at p = 0), so a list by position holds every one-step row's exponents,
    and one prefix sum composes them: the arc that enters position p is a
    monomial times its head, the target of the last kept row before p,
    and the monomial's exponents are the sum of the steps between.  A kept
    crossing gets its incoming arcs as heads, their monomials' exponents
    in x_exp and y_exp, and 0 for its one-step row's target.  sign is
    sgn(sigma_A) * sgn(sigma_K) * (-1)^k for k kept rows, and 0 when no row
    is kept, as the weights then close up at 1; the empty map too gives
    ([], 0).  Row z of a crossing targets the arc after its other pass, row
    w the arc after its X pass, so sigma_A takes them to those positions;
    reordering whole crossings is an even permutation of the rows of A.
    """
    n = 2 * len(role_map)
    step = [0] * n  # position -> packed exponents of its one-step row
    ends: List[int] = []  # positions of the kept rows
    kept: List[int] = []
    for cid, (cls, x, y) in role_map.items():
        z_step, w_step = _STEPS[cls]
        if z_step is None:
            ends.append(y)
        else:
            step[y] = z_step
        if w_step is None:
            ends.append(x)
        else:
            step[x] = w_step
        if z_step is None or w_step is None:
            kept.append(cid)
    if not kept:
        return [], 0
    ends.sort()
    total = [0, *accumulate(step)]  # total[p]: the steps at positions < p

    def segment(p: int) -> Tuple[int, Exps]:
        """(head, exponents) of the arc that enters position p."""
        head = ends[bisect_left(ends, p) - 1] + 1  # a kept row's target, in 1..n
        v = total[p] - total[head] + (total[n] if head > p else 0)
        return head, _unpack(v)

    folded = []
    for cid in sorted(kept):
        cls, x, y = role_map[cid]
        z_step, w_step = _STEPS[cls]
        (x_in, x_exp), (y_in, y_exp) = segment(x), segment(y)
        folded.append(Crossing(cid, cls, x_in, y_in, 0 if z_step is not None else y + 1,
                               0 if w_step is not None else x + 1, x_exp, y_exp))
    targets = [t for c in folded for t in (c.z_out, c.w_out) if t]
    rank = {t: j for j, t in enumerate(sorted(targets))}
    sign = (_permutation_sign([p for _cls, x, y in role_map.values() for p in (y, x)])
            * _permutation_sign([rank[t] for t in targets]) * (-1) ** len(targets))
    return folded, sign


# -- exact determinants --------------------------------------------------------


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


def determinant(matrix: AlexanderMatrix) -> LaurentPoly:
    """Exact determinant, division-free: poly * unit of ``_det_parts``, the
    one product that puts the unit pivots' signed monomial on the core's
    determinant.  The 0x0 matrix has determinant 1."""
    poly, unit = _det_parts(matrix)
    return poly * unit


def _det_parts(matrix: AlexanderMatrix) -> Tuple[LaurentPoly, LaurentPoly]:
    """(poly, unit) with det = poly * unit, unit a signed monomial (1 when
    det is 0): pivot on +/- monomial entries while any exist (cheap row
    operations, most relator rows have one), then expand the unit-free
    core with ``_laplace``; poly is the core's determinant.  Callers that
    canonicalize take poly's terms once and multiply the units.

    Each unit pivot is taken in the sparsest live row that has one, at the
    unit whose column the fewest live rows hold (Markowitz's fill-in rule;
    the lowest column position on a tie).  Rows wait in a heap of (length,
    row), re-queued when a pivot changes them; stale entries are skipped.
    A column -> rows index confines each step to the rows holding the pivot
    column.  Work rows map column position -> a copy of the entry's term
    dict.  Every term product goes through ``laurent.add_product``: an
    elimination step adds factor times pivot-row entry into the other row's
    entry (a fresh dict where that row had none), drops the zeros, and
    stores the entry or deletes it if nothing is left; the Laplace products
    go into the core's growing minors.  The pivots themselves are never
    multiplied into anything: their exponents are summed into the unit's,
    and their signs times the parity of the row -> column matching (each
    pivot row to its column, the core rows to the core columns in order)
    give the unit's sign.
    """
    n_rows, n_cols = matrix.size
    if n_rows != n_cols:
        raise ValueError(f"matrix is {n_rows}x{n_cols}, not square")
    cols = matrix.cols
    position = {c: j for j, c in enumerate(cols)}
    work = [{position[c]: dict(v.terms) for c, v in r.items() if v.terms} for r in matrix.rows]
    holders: Dict[int, Set[int]] = {j: set() for j in range(len(cols))}
    for i, row in enumerate(work):
        for j in row:
            holders[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(work)]
    heapq.heapify(heap)
    match: Dict[int, int] = {}  # row -> column position
    pivots: List[Exps] = [(0, 0, 0, 0)]  # exponents; summed at the end
    unit_sign = 1

    while heap:
        length, i = heapq.heappop(heap)
        if i in match or length != len(work[i]):
            continue  # stale entry
        if not length:
            return LaurentPoly.zero(), ONE
        row = work[i]
        units = [(len(holders[j]), j) for j, v in row.items()
                 if len(v) == 1 and abs(*v.values()) == 1]
        if not units:
            continue  # queued again if a later pivot changes the row
        _, col = min(units)
        match[i] = col
        for j in row:
            holders[j].discard(i)
        ((e, sign),) = row.pop(col).items()
        pivots.append(e)
        unit_sign *= sign
        e0, e1, e2, e3 = e
        # row_k -= (row_k[col] / pivot) * row_i, with the pivot a signed monomial
        for k in holders.pop(col):
            other = work[k]
            factor = {(f0 - e0, f1 - e1, f2 - e2, f3 - e3): -sign * c
                      for (f0, f1, f2, f3), c in other.pop(col).items()}
            for j, v in row.items():
                cur = drop_zeros(add_product(other.get(j), factor, v, 1))
                if cur:
                    other[j] = cur
                    holders[j].add(k)
                else:
                    del other[j]
                    holders[j].discard(k)
            heapq.heappush(heap, (len(other), k))

    core_rows = [i for i in range(len(work)) if i not in match]
    taken = set(match.values())
    core_cols = [j for j in range(len(cols)) if j not in taken]
    for i, j in zip(core_rows, core_cols):
        match[i] = j
    core = _laplace([[work[i].get(j) for j in core_cols] for i in core_rows])
    sign = unit_sign * _permutation_sign([match[i] for i in range(len(work))])
    full = core.get((1 << len(core_cols)) - 1)
    if full is None:
        return LaurentPoly.zero(), ONE
    return LaurentPoly(full), LaurentPoly({tuple(map(sum, zip(*pivots))): sign})


def _laplace(m: Sequence[Sequence[Optional[Terms]]]) -> Dict[int, Terms]:
    """Every len(m)-column minor of the rows m, by a division-free Laplace
    expansion from the bottom row up: {column bitmask: terms}, zero minors
    left out.  Entries are term dicts, None for a zero entry; a square m
    has one minor, its determinant, at the full mask.

    After the rows i..k-1 are taken, ``minors`` maps each set of k-i
    columns to the determinant of those rows on those columns, so each
    minor is computed once; a dense k x k matrix costs k * 2^(k-1)
    entry-by-minor products."""
    minors: Dict[int, Terms] = {0: {(0, 0, 0, 0): 1}}
    for row in reversed(m):
        entries = [(1 << j, v) for j, v in enumerate(row) if v]
        grown: Dict[int, Terms] = {}
        for mask, minor in minors.items():
            for bit, v in entries:
                if mask & bit:
                    continue
                # the entry's sign in the larger minor: -1 per column left of it
                sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
                grown[mask | bit] = add_product(grown.get(mask | bit), v, minor, sign)
        kept = zip(grown, map(drop_zeros, grown.values()))
        minors = {mask: acc for mask, acc in kept if acc}
    return minors


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


def _det_A(code: DiagramCode, role_map: Dict[int, Role]) -> Tuple[LaurentPoly, LaurentPoly]:
    """det A of code, its roles given as ``role_map``, exactly, as the
    (poly, unit) of ``_det_parts`` with det A = poly * unit: eps * det(K),
    K the matrix of the table that fold_roles leaves (see the module
    docstring), eps folded into the unit, and (0, 1) when fold_roles keeps
    no row.  ``role_map`` holds every crossing of code, so fold_roles reads
    the pass count off it.

    K has a row per kept crossing, two for a smoothed one, and a column
    per row target: every entry sits on a head.  With at most two rows no
    unit pivot saves a product, so K is read off ``_template_rows`` in
    closed form, its one entry or a d - b c, with unit +/-1.  A larger K
    goes through ``build_matrix_A`` and ``_det_parts``."""
    folded, sign = fold_roles(role_map)
    if not sign:
        return LaurentPoly.zero(), ONE
    if len(folded) + [c.cls for c in folded].count("smooth") > 2:
        poly, unit = _det_parts(build_matrix_A(code, folded))
        return poly, (-unit if sign < 0 and poly else unit)
    rows, targets = _template_rows(folded)
    if len(rows) == 1:
        det = rows[0].get(targets[0], {})
    else:  # a d - b c, with rows (a, b) and (c, d) over the ascending targets
        (lo, hi), (r0, r1) = sorted(targets), rows
        det = drop_zeros(add_product(add_product(None, r0.get(lo, {}), r1.get(hi, {}), 1),
                                     r0.get(hi, {}), r1.get(lo, {}), -1))
    return LaurentPoly(det), (_MINUS_ONE if sign < 0 and det else ONE)


def parity_alexander(code: DiagramCode) -> InvariantResult:
    """Canonical invariant of a diagram code, with widths and crossing counts.

    Computed as ``_det_A`` of ``roles(code)``, no Fox derivatives
    involved; the gcd-of-minors definition agrees up to unit and is kept
    as the small-instance oracle gcd_of_minors.  The empty code gives 0,
    as its R1 and V1 neighbours do.
    """
    role_map = roles(code)
    poly, det_unit = _det_A(code, role_map)
    canonical, unit = poly.canonicalize()
    unit = unit * det_unit
    zero = canonical.is_zero()
    kinds = [cls for cls, _x, _y in role_map.values()]
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
    twice the odd crossing number of the knot, for the invariant of a
    planar code; the invariant of a non-planar code is in general no
    knot's, and its widths bound only that code's own counts.  The zero
    polynomial carries no information and yields (None, None).
    """
    if poly.is_zero():
        return None, None
    return (poly.width("q") + 1) // 2, (poly.width("h") + 1) // 2


# -- gcd of minors (brute-force oracle) -------------------------------------------


def _by_power(p: LaurentPoly, i: int) -> Dict[int, LaurentPoly]:
    """p split by powers of variable i: {exponent: coefficient free of it}."""
    split: Dict[int, Terms] = {}
    for e, c in p.terms.items():
        split.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return {d: LaurentPoly(terms) for d, terms in split.items()}


def _gcd_fold(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Canonical gcd of polys in order, stopped at 1.  gcd(g, p) is g exactly
    when g divides p, so such a p costs one exact_div instead of a gcd."""
    g = LaurentPoly.zero()
    for p in polys:
        if g:
            try:
                p.exact_div(g)
                continue
            except InexactDivision:
                pass
        g = poly_gcd(g, p)
        if g == 1:
            break
    return g


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Canonical gcd in the Laurent ring: a primitive pseudo-remainder
    sequence in the first variable that a or b holds, on both split by its
    powers.  Only the minor-gcd oracle uses this; the production invariant
    never needs polynomial gcds.  Coefficients grow along the sequence: a
    coprime pair of 6-term four-variable minors can take minutes."""
    a, b = a.canonical(), b.canonical()
    if not (a and b):
        return a or b
    i = next((i for i in range(4) for p in (a, b) for e in p.terms if e[i]), None)
    if i is None:
        return LaurentPoly.const(math.gcd(*a.terms.values(), *b.terms.values()))

    def primitive(split: Dict[int, LaurentPoly]) -> Tuple[LaurentPoly, Dict[int, LaurentPoly]]:
        content = _gcd_fold(c for _d, c in sorted(split.items()))
        if content == 1:
            return content, split
        return content, {d: c.exact_div(content) for d, c in split.items()}

    # from here on a and b are primitive and split by powers of variable i
    (cont_a, a), (cont_b, b) = primitive(_by_power(a, i)), primitive(_by_power(b, i))
    cont = poly_gcd(cont_a, cont_b)
    if max(a) < max(b):
        a, b = b, a
    while b:
        db = max(b)
        if db == 0:
            return cont  # a common divisor must divide a degree-0 primitive poly: coprime
        while a and max(a) >= db:  # a becomes its pseudo-remainder by b
            da = max(a)
            lead = a[da]
            a = {d: c * b[db] for d, c in a.items()}
            for d, c in b.items():
                a[d + da - db] = a.get(d + da - db, LaurentPoly.zero()) - lead * c
            a = {d: c for d, c in a.items() if c}
        a, b = b, (primitive(a)[1] if a else {})
    joined = {e[:i] + (d,) + e[i + 1:]: c for d, p in a.items() for e, c in p.terms.items()}
    return (cont * LaurentPoly(joined)).canonical()


def gcd_of_minors(matrix: AlexanderMatrix) -> LaurentPoly:
    """Canonical gcd of all corank-1 minors, by enumeration.

    One ``_laplace`` pass per choice of k = min(size) - 1 rows gives every
    k-column minor of those rows.  Zero minors never appear, and each pass
    hands its minors to ``_gcd_fold`` by ascending term count, so that the
    gcd shrinks before it meets the larger ones.  Brute force: intended for
    matrices of dimension <= 8 only.  The gcd of an all-zero (or empty)
    minor set is the zero polynomial.
    """
    n_rows, n_cols = matrix.size
    k = min(n_rows, n_cols) - 1
    if max(n_rows, n_cols) > 8:
        raise ValueError("gcd_of_minors is a brute-force oracle; dimension > 8 refused")
    if k <= 0:
        return LaurentPoly.one()
    grid = [[r[c].terms if c in r else None for c in matrix.cols] for r in matrix.rows]
    return _gcd_fold(LaurentPoly(minor) for rows in combinations(grid, k)
                     for minor in sorted(_laplace(rows).values(), key=len))


# -- skein triples ------------------------------------------------------------------


def _skein_roles(code: DiagramCode, crossing_id: int) -> List[Dict[int, Role]]:
    """roles(code) with the selected even crossing's class replaced by
    "even+", "even-" and "smooth"."""
    role_map = roles(code)
    role = role_map.get(crossing_id)
    if role is None or role[0] == "virtual":
        raise DiagramError(f"crossing {crossing_id} is not classical")
    if role[0] == ODD:
        raise DiagramError(f"crossing {crossing_id} is odd; use switch_crossing")
    return [{**role_map, crossing_id: (cls, *role[1:])} for cls in ("even+", "even-", "smooth")]


def skein_matrices(code: DiagramCode, crossing_id: int
                   ) -> Tuple[AlexanderMatrix, AlexanderMatrix, AlexanderMatrix]:
    """(M_plus, M_minus, M_smooth): the unfolded A of the three skein
    role maps, the selected even crossing's two rows read off the "even+",
    "even-" and "smooth" templates; the other rows and the labeling are
    shared.  ``check_even_skein`` takes the same determinants through the
    fold; the tests compare it with these."""
    plus, minus, smooth = (build_matrix_A(code, crossings(code, r))
                           for r in _skein_roles(code, crossing_id))
    return plus, minus, smooth


@dataclass
class SkeinReport:
    d_plus: LaurentPoly
    d_minus: LaurentPoly
    d_smooth: LaurentPoly
    proof_form_holds: bool     # D+ - st D- == (1-st) Dv


def check_even_skein(code: DiagramCode, crossing_id: int) -> SkeinReport:
    """Evaluate the skein identity D+ - st D- = (1-st) Dv exactly (no unit
    normalization; the shared labeling makes the determinants comparable).
    Each is ``_det_A`` of a skein role map, the same fold and kernel as
    ``parity_alexander``."""
    dp, dm, dv = (poly * unit for poly, unit in
                  (_det_A(code, r) for r in _skein_roles(code, crossing_id)))
    st = LaurentPoly.var("s") * LaurentPoly.var("t")
    return SkeinReport(
        d_plus=dp, d_minus=dm, d_smooth=dv,
        proof_form_holds=(dp - st * dm == (LaurentPoly.one() - st) * dv),
    )


# -- symmetry checks -----------------------------------------------------------------


@dataclass
class SymmetryReport:
    base: LaurentPoly
    outcomes: Dict[str, bool]


def check_symmetries(code: DiagramCode) -> SymmetryReport:
    """Verify each operation's law, a map on the exponents (s, t, q, h) of
    the invariant, up to unit.  The laws follow from ``ROW_TEMPLATES``:

    - reverse inverts s, t, q and h.  It keeps each crossing's class and X
      strand and swaps x with w, y with z.  Rewritten in the old arcs, each
      class's two relations are its template with all four inverted, up to
      row operations of unit determinant (even+: y = (1-st) w + t z and
      x = s w give z = (1 - s^-1 t^-1) x + t^-1 y and w = s^-1 x).
    - switched_flip inverts all four.  It negates signs and toggles frames,
      so X becomes the other strand at every crossing (x with y, z with w)
      and even+ trades with even-: read in the old roles, each new template
      is the old one with all four inverted and its two rows swapped.
    - switch swaps s and t and inverts q and h.  The row of arc x in A^T
      holds A[z, x] and A[w, x]: read as the relation that ends on x, the
      reversed diagram's w.  So A^T is a matrix of reverse(K) in which each
      even+ crossing carries the even- template under s -> t^-1, t -> s^-1
      (z = t y, w = s x + (1-st) y), each even- crossing the even+ one, and
      odd and virtual crossings their own.  Hence det A(switch(reverse(K)))
      is det A(K) under that map, and with the reverse law the switch law
      follows.
    - flip, which is switch after switched_flip, maps s -> t^-1 and
      t -> s^-1 and keeps q and h.
    """
    base = parity_alexander(code).canonical
    expect = {
        "reverse": (reverse, lambda s, t, q, h: (-s, -t, -q, -h)),
        "switch": (switch, lambda s, t, q, h: (t, s, -q, -h)),
        "flip": (flip, lambda s, t, q, h: (-t, -s, q, h)),
        "switched_flip": (switched_flip, lambda s, t, q, h: (-s, -t, -q, -h)),
    }
    outcomes = {}
    for name, (op, law) in expect.items():
        got = parity_alexander(op(code)).canonical
        want = LaurentPoly({law(*e): c for e, c in base.terms.items()}).canonical()
        outcomes[name] = got == want
    return SymmetryReport(base, outcomes)


# -- group presentation printer --------------------------------------------------------


def group_presentation(code: DiagramCode) -> str:
    """Printable presentation: arc generators, s, q, h, and all relators."""
    n2 = len(code.passes)
    gens = [f"a{i}" for i in range(1, n2 + 1)] + ["s", "q", "h"]
    lines = ["generators: " + " ".join(gens), "relators:"]
    for (cid, rel_kind), word in crossing_relators(code):
        lines.append(f"  r[{cid}.{rel_kind}]: {fx.word_to_string(word)}")
    for name, word in COMMUTATORS:
        lines.append(f"  {name}: {fx.word_to_string(word)}")
    return "\n".join(lines)
