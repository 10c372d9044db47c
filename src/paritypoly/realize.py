"""Planar realization of classical signed Gauss codes.

A signed Gauss code lists only the classical crossings.  To compute the
invariant we need an actual planar diagram, so this module routes the knot
as an axis-aligned polyline over integer coordinates: classical crossing
sites are fixed little crosses on the x-axis (over strand runs west to
east, under strand runs through vertically with the direction chosen so
the geometric sign matches the code), and each semi-arc travels through a
private horizontal bus and private vertical channels.  Every intersection
between routed arcs away from the crossing sites becomes a virtual
crossing, with its frame bit read off the two travel directions.

One west-to-east sweep finds the K intersections of the S segments in
O((S + K) log S) and gives each segment its hits in travel order, so the
passes are read off in one loop over the segments.

All geometry is exact integer arithmetic.  The construction never tries to
minimize virtual crossings; it only guarantees transversality: if any
degeneracy survives the channel allocation (it cannot, but the checks
stay), realization fails loudly rather than mis-setting a frame bit.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .diagram import (
    EMPTY_CODE, OVER, UNDER, VIRTUAL, DiagramCode, Pass, classical_gauss_code,
)

GaussEntry = Tuple[int, str, int]  # (crossing id, "O"/"U", sign)
SignedGaussCode = Tuple[GaussEntry, ...]


class GaussError(ValueError):
    """Syntax or pairing error in a signed Gauss code."""


class RealizationError(RuntimeError):
    """Geometric degeneracy the routing scheme could not avoid."""


_GAUSS_TOKEN = re.compile(r"([OU])(\d+)([+-])")


def parse_gauss(text: str) -> SignedGaussCode:
    """Parse e.g. "O1+U2+O3+U1+O2+U3+" (whitespace allowed anywhere)."""
    compact = "".join(text.split())
    out: List[GaussEntry] = []
    pos = 0
    while pos < len(compact):
        m = _GAUSS_TOKEN.match(compact, pos)
        if not m:
            raise GaussError(f"bad Gauss code near {compact[pos:pos + 8]!r}")
        out.append((int(m.group(2)), m.group(1), 1 if m.group(3) == "+" else -1))
        pos = m.end()
    validate_gauss(tuple(out))
    return tuple(out)


def validate_gauss(g: SignedGaussCode) -> None:
    seen: Dict[int, Dict[str, int]] = {}
    for cid, kind, sign in g:
        if cid < 1:
            raise GaussError(f"crossing {cid}: id must be a positive integer")
        seen.setdefault(cid, {})
        if kind in seen[cid]:
            raise GaussError(f"crossing {cid}: duplicate {kind} pass")
        seen[cid][kind] = sign
    for cid, kinds in seen.items():
        if set(kinds) != {"O", "U"}:
            raise GaussError(f"crossing {cid}: needs exactly one O and one U pass")
        if kinds["O"] != kinds["U"]:
            raise GaussError(f"crossing {cid}: sign mismatch between passes")


def gauss_lines(text: str) -> Iterator[Tuple[int, Optional[str], str]]:
    """(line number, name or None, code text) for each code line of a
    ``.gauss`` table: ``name<TAB>code`` or bare code; blank lines and
    # comments are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name: Optional[str] = None
        if "\t" in raw:  # split before stripping: "unknot<TAB>" is a named empty code
            name, line = (part.strip() for part in raw.split("\t", 1))
        yield lineno, name, line


def parse_gauss_line(lineno: int, line: str) -> SignedGaussCode:
    """parse_gauss, its error prefixed with the line number."""
    try:
        return parse_gauss(line)
    except GaussError as exc:
        raise GaussError(f"line {lineno}: {exc}") from None


def parse_gauss_file(text: str) -> List[Tuple[Optional[str], SignedGaussCode]]:
    """One code per line, as split by gauss_lines."""
    return [(name, parse_gauss_line(lineno, line)) for lineno, name, line in gauss_lines(text)]


def frame_sign(dir_a: Tuple[int, int], dir_b: Tuple[int, int]) -> int:
    """+1 iff (dir_a, dir_b) is a positively oriented plane frame."""
    det = dir_a[0] * dir_b[1] - dir_a[1] * dir_b[0]
    if det == 0:
        raise RealizationError(f"parallel directions {dir_a}, {dir_b}")
    return 1 if det > 0 else -1


# -- routing ------------------------------------------------------------------

Point = Tuple[int, int]


def _route_vertices(g: SignedGaussCode, perm: Sequence[int],
                    x_of: Dict[int, int]) -> List[Point]:
    """Closed axis-aligned polyline visiting the crossing sites in code order.

    x_of gives each crossing site's x coordinate.  perm permutes the
    per-connection channel allocation; two different permutations give two
    genuinely different routings of the same knot.
    """
    n = len(g) // 2

    def ports(entry: GaussEntry) -> Tuple[Point, Point, str, str]:
        """(entry port, exit port, entry kind, exit kind) of one pass."""
        cid, kind, sign = entry
        x = x_of[cid]
        if kind == "O":
            return (x - 10, 0), (x + 10, 0), "W", "E"
        if sign > 0:
            return (x, -10), (x, 10), "S", "N"
        return (x, 10), (x, -10), "N", "S"

    verts: List[Point] = []
    m = len(g)
    for j, entry in enumerate(g):
        p_in, p_out, _kin, kout = ports(entry)
        verts.append(p_in)
        verts.append(p_out)
        nxt = g[(j + 1) % m]
        q_in, _q_out, kin, _ko = ports(nxt)
        k = perm[j]
        bus = 20 + 4 * k
        south_exit = -24 - 8 * k
        south_entry = -20 - 8 * k
        east = 100 * n + 100 + 8 * k
        west = -100 - 8 * k
        x_here, x_next = x_of[entry[0]], x_of[nxt[0]]
        if kout == "E":
            verts += [(x_here + 13, 0), (x_here + 13, bus)]
        elif kout == "N":
            verts += [(x_here, bus)]
        else:  # south exit: detour around the east side
            verts += [(x_here, south_exit), (east, south_exit), (east, bus)]
        if kin == "W":
            verts += [(x_next - 13, bus), (x_next - 13, 0)]
        elif kin == "N":
            verts += [(x_next, bus)]
        else:  # south entry: approach from below via the west side
            verts += [(west, bus), (west, south_entry), (x_next, south_entry)]
    return verts


def _segments(verts: List[Point]) -> List[Tuple[Point, Point]]:
    segs = []
    m = len(verts)
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        if a == b:
            raise RealizationError(f"zero-length segment at vertex {i}: {a}")
        if a[0] != b[0] and a[1] != b[1]:
            raise RealizationError(f"non-axis-aligned segment {a} -> {b}")
        segs.append((a, b))
    return segs


def _intersections(segs: List[Tuple[Point, Point]]) -> List[List[Point]]:
    """Each segment's strict-interior crossings, in its travel order.

    A horizontal segment is in the y-sorted active list from its west end
    to its east end; each vertical one asks for those in its closed y
    range.  At equal x, opens come before queries and queries before
    closes, so every touching pair is found.  A touch other than a strict
    crossing (overlap, T-junction, kiss) raises unless the two segments are
    adjacent and meet at their shared end.
    """
    m = len(segs)

    def adjacent(i: int, j: int) -> bool:
        return (i + 1) % m == j or (j + 1) % m == i

    span: List[Tuple[int, int, int]] = []  # (lo, hi, line): extent along the segment's line
    events: List[Tuple[int, int, int]] = []  # (x, 0 open / 1 query / 2 close, segment)
    lines: List[Tuple[int, int, int, int, int]] = []  # (axis, line, lo, hi, segment)
    for i, ((ax, ay), (bx, by)) in enumerate(segs):
        if ay == by:  # horizontal: axis 0
            lo, hi = (ax, bx) if ax < bx else (bx, ax)
            span.append((lo, hi, ay))
            lines.append((0, ay, lo, hi, i))
            events.append((lo, 0, i))
            events.append((hi, 2, i))
        else:
            lo, hi = (ay, by) if ay < by else (by, ay)
            span.append((lo, hi, ax))
            lines.append((1, ax, lo, hi, i))
            events.append((ax, 1, i))
    events.sort()

    hits: List[List[Point]] = [[] for _ in segs]
    active: List[Tuple[int, int]] = []  # (y, segment) of the open horizontals
    crossed = set()
    for x, kind, i in events:
        if kind == 1:
            y1, y2, _x = span[i]
            for y, h in active[bisect_left(active, (y1, -1)):bisect_right(active, (y2, m))]:
                x1, x2, _y = span[h]
                if not (x1 < x < x2 and y1 < y < y2):
                    if adjacent(h, i):
                        continue
                    raise RealizationError(
                        f"segments #{h}, #{i} touch non-transversally at {(x, y)}")
                p = (x, y)
                if p in crossed:
                    raise RealizationError(f"three segments meet at {p}")
                crossed.add(p)
                hits[h].append(p)
                hits[i].append(p)
        elif kind == 0:
            insort(active, (span[i][2], i))
        else:
            del active[bisect_left(active, (span[i][2], i))]
    lines.sort()
    for (axis1, c1, _lo1, hi1, i1), (axis2, c2, lo2, _hi2, i2) in zip(lines, lines[1:]):
        if axis1 == axis2 and c1 == c2 and (lo2 < hi1 or (lo2 == hi1 and not adjacent(i1, i2))):
            raise RealizationError(
                f"collinear segments touch on {'yx'[axis1]}={c1}: #{i1}, #{i2}")
    for (a, b), seg_hits in zip(segs, hits):
        if b < a:  # travels west or south
            seg_hits.reverse()
    return hits


def realize(g: SignedGaussCode, strategy: int = 0) -> DiagramCode:
    """Route g in the plane; intersections not in g become virtual crossings.

    Postconditions: the classical projection of the result equals g (same
    basepoint); the geometric sign at each classical site equals the coded
    sign; every virtual crossing carries the frame bit of the pass whose
    direction, followed by the other pass's direction, is a positive frame.
    Virtual ids run on from the largest classical id in first-visit order.
    Two strategies (0 and 1) allocate routing channels in opposite orders
    and generally produce different diagrams of the same knot.
    """
    validate_gauss(g)
    if not g:
        return EMPTY_CODE
    m = len(g)
    perm = list(range(m)) if strategy == 0 else list(reversed(range(m)))
    # crossing sites on the x-axis, 100 apart, in order of first appearance
    x_of = {cid: 100 * (i + 1) for i, cid in enumerate(dict.fromkeys(c for c, _k, _s in g))}
    segs = _segments(_route_vertices(g, perm, x_of))
    center_of = {(x, 0): cid for cid, x in x_of.items()}
    sign_of = {cid: s for cid, _k, s in g}

    final: List[Optional[Pass]] = []
    next_vid = max(x_of) + 1
    # virtual point -> (pass index, direction, id) of its first visit; None after the second
    first: Dict[Point, Optional[Tuple[int, Tuple[int, int], int]]] = {}
    for (a, b), seg_hits in zip(segs, _intersections(segs)):
        dx, dy = (b[0] > a[0]) - (b[0] < a[0]), (b[1] > a[1]) - (b[1] < a[1])
        d = (dx, dy)
        classical_kind = OVER if dy == 0 else UNDER
        for p in seg_hits:
            cid = center_of.get(p)
            if cid is not None:
                # classical sign sanity: over runs east, under runs north for +, south for -,
                # so the frame (east, d) of an under pass has the sign dy
                if dy and dy != sign_of[cid]:
                    raise RealizationError(f"geometric sign mismatch at crossing {cid}")
                final.append(Pass(cid, classical_kind))
                continue
            visit = first.get(p, 0)  # 0: not visited yet
            if visit == 0:
                first[p] = (len(final), d, next_vid)
                final.append(None)  # filled in at the second visit, which fixes the frame bit
                next_vid += 1
            elif visit is None:
                raise RealizationError("virtual crossing visited other than twice")
            else:
                j, d1, vid = visit
                first[p] = None
                det = d1[0] * dy - d1[1] * dx  # frame_sign(d1, d), inlined
                if det == 0:
                    raise RealizationError(f"parallel directions {d1}, {d}")
                final[j] = Pass(vid, VIRTUAL, det > 0)
                final.append(Pass(vid, VIRTUAL, det < 0))
    if any(visit is not None for visit in first.values()):
        raise RealizationError("virtual crossing visited other than twice")

    code = DiagramCode(tuple(final), dict(sign_of))
    if classical_gauss_code(code) != tuple(g):
        raise RealizationError("classical projection does not reproduce the input code")
    return code
