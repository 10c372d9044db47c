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

All geometry is exact integer arithmetic.  The construction never tries to
minimize virtual crossings; it only guarantees transversality: if any
degeneracy survives the channel allocation (it cannot, but the checks
stay), realization fails loudly rather than mis-setting a frame bit.
"""

from __future__ import annotations

import re
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
        seen.setdefault(cid, {})
        if kind in seen[cid]:
            raise GaussError(f"crossing {cid}: duplicate {kind} pass")
        seen[cid][kind] = sign
    for cid, kinds in seen.items():
        if set(kinds) != {"O", "U"}:
            raise GaussError(f"crossing {cid}: needs exactly one O and one U pass")
        if kinds["O"] != kinds["U"]:
            raise GaussError(f"crossing {cid}: sign mismatch between passes")


def gauss_to_text(g: SignedGaussCode) -> str:
    return "".join(f"{kind}{cid}{'+' if sign > 0 else '-'}" for cid, kind, sign in g)


def gauss_lines(text: str) -> Iterator[Tuple[int, Optional[str], str]]:
    """(line number, name or None, code text) for each code line of a
    ``.gauss`` table: ``name<TAB>code`` or bare code; blank lines and
    # comments are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name: Optional[str] = None
        if "\t" in line:
            name, line = line.split("\t", 1)
            name = name.strip()
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


def _intersections(segs: List[Tuple[Point, Point]]) -> Dict[Point, Tuple[int, int]]:
    """Strict-interior crossings between non-adjacent segments.

    Anything else that touches (overlap, T-junction, kiss) is a degeneracy
    and raises; the channel allocation is designed to make that impossible.
    """
    m = len(segs)
    horiz = []
    vert = []
    for i, (a, b) in enumerate(segs):
        if a[1] == b[1]:
            horiz.append((i, min(a[0], b[0]), max(a[0], b[0]), a[1]))
        else:
            vert.append((i, min(a[1], b[1]), max(a[1], b[1]), a[0]))

    def adjacent(i: int, j: int) -> bool:
        return (i + 1) % m == j or (j + 1) % m == i

    # collinear overlap checks
    for group, along in ((horiz, "y"), (vert, "x")):
        by_line: Dict[int, List[Tuple[int, int, int]]] = {}
        for i, lo, hi, coord in group:
            by_line.setdefault(coord, []).append((lo, hi, i))
        for coord, items in by_line.items():
            items.sort()
            for (lo1, hi1, i1), (lo2, hi2, i2) in zip(items, items[1:]):
                if lo2 < hi1 or (lo2 == hi1 and not adjacent(i1, i2)):
                    raise RealizationError(
                        f"collinear segments touch on {along}={coord}: #{i1}, #{i2}")

    out: Dict[Point, Tuple[int, int]] = {}
    for hi_, hx1, hx2, hy in horiz:
        for vi_, vy1, vy2, vx in vert:
            touches_x = hx1 <= vx <= hx2
            touches_y = vy1 <= hy <= vy2
            if not (touches_x and touches_y):
                continue
            strict = hx1 < vx < hx2 and vy1 < hy < vy2
            if not strict:
                if adjacent(hi_, vi_):
                    continue
                raise RealizationError(
                    f"segments #{hi_}, #{vi_} touch non-transversally at {(vx, hy)}")
            p = (vx, hy)
            if p in out:
                raise RealizationError(f"three segments meet at {p}")
            out[p] = (hi_, vi_)
    return out


def realize(g: SignedGaussCode, strategy: int = 0) -> DiagramCode:
    """Route g in the plane; intersections not in g become virtual crossings.

    Postconditions: the classical projection of the result equals g (same
    basepoint); the geometric sign at each classical site equals the coded
    sign; every virtual crossing carries the frame bit of the pass whose
    direction, followed by the other pass's direction, is a positive frame.
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
    verts = _route_vertices(g, perm, x_of)
    segs = _segments(verts)
    crossings = _intersections(segs)

    center_of = {(x, 0): cid for cid, x in x_of.items()}
    sign_of = {cid: s for cid, _k, s in g}

    # events per segment, ordered along the travel direction
    events_by_seg: Dict[int, List[Tuple[int, Point]]] = {}
    for p, (hi_, vi_) in crossings.items():
        for si in (hi_, vi_):
            a, b = segs[si]
            t = abs(p[0] - a[0]) + abs(p[1] - a[1])
            events_by_seg.setdefault(si, []).append((t, p))

    passes: List[Tuple[Point, str, Tuple[int, int]]] = []
    for si, (a, b) in enumerate(segs):
        d = ((b[0] > a[0]) - (b[0] < a[0]), (b[1] > a[1]) - (b[1] < a[1]))
        for _t, p in sorted(events_by_seg.get(si, [])):
            if p in center_of:
                kind = OVER if a[1] == b[1] else UNDER
                passes.append((p, kind, d))
            else:
                passes.append((p, VIRTUAL, d))

    # classical sign sanity: over runs east, under runs north for +, south for -
    for p, kind, d in passes:
        if kind == UNDER:
            cid = center_of[p]
            if frame_sign((1, 0), d) != sign_of[cid]:
                raise RealizationError(f"geometric sign mismatch at crossing {cid}")

    # each virtual point -> its two pass indices, points in first-visit order
    visits: Dict[Point, List[int]] = {}
    for idx, (p, kind, _d) in enumerate(passes):
        if kind == VIRTUAL:
            visits.setdefault(p, []).append(idx)
    virtual: Dict[int, Pass] = {}
    for vid, idxs in enumerate(visits.values(), start=max(x_of) + 1):
        if len(idxs) != 2:
            raise RealizationError("virtual crossing visited other than twice")
        first, second = idxs
        framed = frame_sign(passes[first][2], passes[second][2]) > 0
        virtual[first] = Pass(vid, VIRTUAL, framed)
        virtual[second] = Pass(vid, VIRTUAL, not framed)
    final = [virtual[idx] if kind == VIRTUAL else Pass(center_of[p], kind)
             for idx, (p, kind, _d) in enumerate(passes)]

    code = DiagramCode(tuple(final), dict(sign_of))
    if classical_gauss_code(code) != tuple(g):
        raise RealizationError("classical projection does not reproduce the input code")
    return code
