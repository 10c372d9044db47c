"""Output checks, independent of the program's arithmetic.

The determinant check evaluates the program's matrix A and its canonical
result at a random point modulo the prime 2^61 - 1 and compares them with
this module's own sparse elimination.  By Schwartz-Zippel a wrong result
passes with probability about (total degree) / 2^61, and no code of
``paritypoly.laurent`` or of the program's determinant is used.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional

P = (1 << 61) - 1


def canonical_problems(terms: Dict[tuple, int]) -> List[str]:
    """Problems with a canonical representative given as exponent -> coeff."""
    if not terms:
        return []
    out = []
    for i, var in enumerate("stqh"):
        low = min(e[i] for e in terms)
        if low != 0:
            out.append(f"minimum {var} exponent is {low}, not 0")
    if terms[min(terms)] <= 0:
        out.append("coefficient of the lowest exponent tuple is not positive")
    if any(not isinstance(c, int) or c == 0 for c in terms.values()):
        out.append("zero or non-integer coefficient stored")
    return out


def width(terms: Dict[tuple, int], i: int) -> Optional[int]:
    if not terms:
        return None
    exps = [e[i] for e in terms]
    return max(exps) - min(exps)


class Point:
    """A random point (s, t, q, h) over Z/P with cached powers."""

    def __init__(self, rng: random.Random):
        self.values = [rng.randrange(2, P - 1) for _ in range(4)]
        self._pow: Dict[tuple, int] = {}

    def monomial(self, e: tuple) -> int:
        out = 1
        for i, k in enumerate(e):
            if k:
                key = (i, k)
                v = self._pow.get(key)
                if v is None:
                    v = self._pow[key] = pow(self.values[i], k, P)
                out = out * v % P
        return out

    def poly(self, terms: Dict[tuple, int]) -> int:
        return sum(c * self.monomial(e) for e, c in terms.items()) % P


def det_mod_p(rows: List[Dict[object, int]], cols: List[object]) -> int:
    """Determinant over Z/P of a sparse square matrix (rows: col -> value).

    Gaussian elimination that pivots on the shortest live row and, in it,
    the column with the fewest live entries; the sign follows from the
    permutation that pairs pivot rows with pivot columns.
    """
    n = len(rows)
    if n != len(cols):
        raise ValueError("matrix is not square")
    col_id = {c: j for j, c in enumerate(cols)}
    work = [{col_id[c]: v % P for c, v in r.items() if v % P} for r in rows]
    in_col: List[set] = [set() for _ in range(n)]
    for i, r in enumerate(work):
        for j in r:
            in_col[j].add(i)
    live = [True] * n
    heap = [(len(r), i) for i, r in enumerate(work)]
    heapq.heapify(heap)
    det, pairing = 1, [0] * n
    for _ in range(n):
        while True:
            length, i = heapq.heappop(heap)
            if live[i] and length == len(work[i]):
                break
        if length == 0:
            return 0
        row = work[i]
        j = min(row, key=lambda c: len(in_col[c]))
        pivot = row[j]
        det = det * pivot % P
        pairing[i] = j
        live[i] = False
        for c in row:
            in_col[c].discard(i)
        inv = pow(pivot, P - 2, P)
        for k in list(in_col[j]):
            other = work[k]
            f = other.pop(j) * inv % P
            in_col[j].discard(k)
            for c, v in row.items():
                if c == j:
                    continue
                nv = (other.get(c, 0) - f * v) % P
                if nv:
                    if c not in other:
                        in_col[c].add(k)
                    other[c] = nv
                elif c in other:
                    del other[c]
                    in_col[c].discard(k)
            heapq.heappush(heap, (len(other), k))
    # sign of the permutation row -> pivot column
    seen, sign = [False] * n, 1
    for start in range(n):
        length, k = 0, start
        while not seen[k]:
            seen[k] = True
            k = pairing[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return det % P if sign > 0 else (-det) % P
