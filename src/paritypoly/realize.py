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

One crossing finder visits the horizontal segments in ascending y; each
takes the verticals of its closed x range from one x-sorted list.  For S
segments it costs O(S log S) plus the candidates in each horizontal's x
range (every pair in the worst case, about six per crossing found on these
routes).  It numbers each crossing where it finds it: a classical site
gets its (O, U) passes, a virtual crossing the frame bits of its two
passes.  Each segment's hits come out in travel order, so the passes are
read off in one loop over the segments.

All geometry is exact integer arithmetic.  The construction never tries to
minimize virtual crossings; it only guarantees transversality: if any
degeneracy survives the channel allocation (it cannot, but the checks
stay), realization fails loudly rather than mis-setting a frame bit.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
        if sign not in (1, -1):
            raise GaussError(f"crossing {cid}: sign must be +1 or -1, not {sign!r}")
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


def _crossings(segs: List[Tuple[Point, Point]],
               sites: Dict[int, Tuple[int, int]],
               ) -> Tuple[List[List[int]], List[Union[Pass, bool]]]:
    """Number the strict crossings of segs and list each segment's in travel order.

    Crossing c has two pass slots, 2c on its horizontal segment and 2c + 1
    on its vertical one; hits[i] holds segment i's slots.  slots[2c] and
    slots[2c + 1] are the (O, U) passes when c is a classical site, which
    sites gives as x -> (id, sign) on the x-axis.  Otherwise they are the
    frame bits of a virtual crossing: the horizontal pass has the bit iff
    (its direction, the vertical's) is a positive frame, i.e. iff the two
    directions have the same sign, and the vertical pass has the other bit.

    The horizontals are visited in ascending y, and each takes the verticals
    of its closed x range from one x-sorted list, so every touching pair is
    found and each hit list comes out in ascending coordinate.  A touch other
    than a strict crossing (overlap, T-junction, kiss) raises unless the two
    segments are adjacent and meet at their shared end.
    """
    m = len(segs)
    horiz: List[Tuple[int, int, int, int, int]] = []  # (y, x lo, x hi, segment, x direction)
    vert: List[Tuple[int, int, int, int, int]] = []  # (x, y lo, y hi, segment, y direction)
    for i, ((ax, ay), (bx, by)) in enumerate(segs):
        if ay == by:
            horiz.append((ay, ax, bx, i, 1) if ax < bx else (ay, bx, ax, i, -1))
        else:
            vert.append((ax, ay, by, i, 1) if ay < by else (ax, by, ay, i, -1))
    horiz.sort()
    vert.sort()
    xs = [v[0] for v in vert]

    hits: List[List[int]] = [[] for _ in segs]
    slots: List[Union[Pass, bool]] = []
    last_y: List[Optional[int]] = [None] * m  # y of each vertical's latest crossing
    for y, x1, x2, h, dh in horiz:
        row = hits[h]
        last_x = None
        for x, y1, y2, v, dv in vert[bisect_left(xs, x1):bisect_right(xs, x2)]:
            if not y1 <= y <= y2:
                continue
            if not (x1 < x < x2 and y1 < y < y2):
                if abs(h - v) in (1, m - 1):  # adjacent: the shared end
                    continue
                raise RealizationError(
                    f"segments #{h}, #{v} touch non-transversally at {(x, y)}")
            if x == last_x or y == last_y[v]:
                raise RealizationError(f"three segments meet at {(x, y)}")
            last_x, last_y[v] = x, y
            c = len(slots)
            row.append(c)
            hits[v].append(c + 1)
            if y == 0 and x in sites:
                cid, sign = sites[x]
                # the over pass runs east, the under pass north for +, south for -
                if dv != sign:
                    raise RealizationError(f"geometric sign mismatch at crossing {cid}")
                slots += (Pass(cid, OVER), Pass(cid, UNDER))
            else:
                slots += (dh == dv, dh != dv)
    # collinear touches last, so that three segments through one point say so
    for axis, lines in (("y", horiz), ("x", vert)):
        for (c1, _lo1, hi1, i1, _d1), (c2, lo2, _hi2, i2, _d2) in zip(lines, lines[1:]):
            if c1 == c2 and (lo2 < hi1 or (lo2 == hi1 and abs(i1 - i2) not in (1, m - 1))):
                raise RealizationError(f"collinear segments touch on {axis}={c1}: #{i1}, #{i2}")
    for (a, b), row in zip(segs, hits):
        if b < a:  # travels west or south
            row.reverse()
    return hits, slots


def realize(g: SignedGaussCode, strategy: int = 0) -> DiagramCode:
    """Route g in the plane; intersections not in g become virtual crossings.

    Postconditions: the classical projection of the result equals g (same
    basepoint); the geometric sign at each classical site equals the coded
    sign; every virtual crossing carries the frame bit of the pass whose
    direction, followed by the other pass's direction, is a positive frame.
    Virtual ids run on from the largest classical id in first-visit order.
    Two strategies (0 and 1) allocate routing channels in opposite orders
    and generally produce different diagrams of the same knot; any other
    strategy raises ValueError.
    """
    validate_gauss(g)
    if strategy not in (0, 1):
        raise ValueError(f"strategy must be 0 or 1, not {strategy!r}")
    if not g:
        return EMPTY_CODE
    m = len(g)
    perm = list(range(m)) if strategy == 0 else list(reversed(range(m)))
    # crossing sites on the x-axis, 100 apart, in order of first appearance
    x_of = {cid: 100 * (i + 1) for i, cid in enumerate(dict.fromkeys(c for c, _k, _s in g))}
    sign_of = {cid: s for cid, _k, s in g}
    segs = _segments(_route_vertices(g, perm, x_of))
    hits, slots = _crossings(segs, {x_of[cid]: (cid, s) for cid, s in sign_of.items()})

    final: List[Pass] = []
    next_vid = max(x_of) + 1
    for row in hits:
        for h in row:
            p = slots[h]
            if isinstance(p, bool):  # first visit of a virtual crossing: number both passes
                p = Pass(next_vid, VIRTUAL, p)
                slots[h ^ 1] = Pass(next_vid, VIRTUAL, slots[h ^ 1])
                next_vid += 1
            final.append(p)

    code = DiagramCode(tuple(final), sign_of)
    if classical_gauss_code(code) != tuple(g):
        raise RealizationError("classical projection does not reproduce the input code")
    return code
