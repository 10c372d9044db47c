"""Planar realization of signed Gauss codes."""

import itertools
import random
import re

import pytest

from paritypoly.alexander import parity_alexander
from paritypoly.diagram import (
    OVER, UNDER, VIRTUAL, DiagramCode, Pass, classical_gauss_code, validate,
)
from paritypoly.realize import (
    GaussError, RealizationError, _crossings, _route_vertices, _segments,
    parse_gauss, parse_gauss_file, realize,
)


def random_gauss(rng, max_crossings=6, min_crossings=1):
    n = rng.randint(min_crossings, max_crossings)
    order = list(range(2 * n))
    rng.shuffle(order)
    entries = [None] * (2 * n)
    for cid in range(1, n + 1):
        i, j = order[2 * cid - 2], order[2 * cid - 1]
        s = rng.choice([1, -1])
        entries[i] = (cid, "O", s)
        entries[j] = (cid, "U", s)
    return tuple(entries)


def test_parse_gauss():
    g = parse_gauss("O1+U2+O3+U1+O2+U3+")
    assert len(g) == 6
    assert g[0] == (1, "O", 1)
    assert parse_gauss("O1+ U1+") == ((1, "O", 1), (1, "U", 1))
    assert parse_gauss("O1-U1-") == ((1, "O", -1), (1, "U", -1))


def test_parse_gauss_errors():
    with pytest.raises(GaussError):
        parse_gauss("O1+U2+")         # unpaired ids
    with pytest.raises(GaussError):
        parse_gauss("O1+U1-")         # sign mismatch
    with pytest.raises(GaussError):
        parse_gauss("O1+O1+")         # duplicate over pass
    with pytest.raises(GaussError):
        parse_gauss("O1+X2-U1+")      # bad token
    with pytest.raises(GaussError, match="crossing 0: id must be a positive integer"):
        parse_gauss("O0+U0+")


def test_parse_gauss_file():
    text = "# table\nfirst\tO1+U1+\nO1-U2-O1... oops"
    with pytest.raises(GaussError, match="line 3"):
        parse_gauss_file(text)
    entries = parse_gauss_file("# c\nname\tO1+U1+\nO1-U1-\nunknot\t\n")
    assert entries[0][0] == "name"
    assert entries[1][0] is None
    assert entries[2] == ("unknot", ())  # a named empty code


@pytest.mark.parametrize("sign", [2, 0, -2])
def test_gauss_signs_are_plus_or_minus_one(sign):
    g = ((1, "O", sign), (1, "U", sign))
    with pytest.raises(GaussError, match=f"crossing 1: sign must be \\+1 or -1, not {sign}"):
        realize(g)


@pytest.mark.parametrize("strategy", [7, -1, 2, None, "0"])
def test_realize_strategy_is_0_or_1(strategy):
    with pytest.raises(ValueError, match="strategy must be 0 or 1"):
        realize(parse_gauss("O1+U1+"), strategy=strategy)


def test_package_attribute_is_the_realize_module():
    import sys

    import paritypoly.realize as rz

    assert rz is sys.modules["paritypoly.realize"]
    assert rz.realize is realize


def test_realize_empty():
    assert realize(()) .passes == ()


def assert_virtual_numbering(code):
    """Virtual ids avoid the classical ones and run consecutively from the
    largest classical id + 1, in the order they are first visited."""
    vids = [cid for cid in code.crossing_ids() if cid not in code.signs]
    start = max(code.signs) + 1
    assert vids == list(range(start, start + len(vids)))


def test_realize_single_kink():
    g = parse_gauss("O1+U1+")
    code = realize(g)
    assert validate(code) == []
    assert classical_gauss_code(code) == g
    assert_virtual_numbering(code)


def test_round_trip_random():
    rng = random.Random(100)
    for _ in range(40):
        g = random_gauss(rng, max_crossings=8)
        code = realize(g)
        assert validate(code) == []
        assert classical_gauss_code(code) == g
        assert_virtual_numbering(code)
        # every extra crossing is virtual with exactly one frame bit
        for cid in code.crossing_ids() - code.signs.keys():
            frames = [p.frame for p in code.passes if p.cid == cid]
            assert sorted(frames) == [False, True]


def test_routing_strategy_independence():
    # the invariant may not depend on how the knot was routed; the last code
    # has 40 crossings, so its segments carry dozens of hits
    rng = random.Random(101)
    codes = [random_gauss(rng, max_crossings=5) for _ in range(15)]
    codes.append(random_gauss(random.Random(40), max_crossings=40, min_crossings=40))
    for g in codes:
        a = realize(g, strategy=0)
        b = realize(g, strategy=1)
        if a == b:
            continue
        pa = parity_alexander(a).canonical
        pb = parity_alexander(b).canonical
        assert pa == pb, g


def test_classical_trefoil_vanishes():
    code = realize(parse_gauss("O1-U2-O3-U1-O2-U3-"))
    assert parity_alexander(code).canonical.is_zero()


def test_realize_arbitrary_ids():
    g = parse_gauss("O3+U7+O7+U3+")
    code = realize(g)
    assert classical_gauss_code(code) == g
    assert set(code.signs) == {3, 7}
    assert_virtual_numbering(code)


def test_q_grading_reparametrization_on_even_diagrams():
    # On diagrams whose classical crossings are all even, the q variable is
    # a pure regrading: the invariant is recovered from its q=1 slice by the
    # substitution s -> s/q, t -> t*q.  Diagrams with odd crossings violate
    # this, so the parity refinement carries genuine extra content.
    from paritypoly.diagram import parity, EVEN
    from paritypoly.laurent import LaurentPoly

    def q_one_slice(p):
        out = {}
        for (es, et, eq, eh), c in p.terms.items():
            k = (es, et, 0, eh)
            out[k] = out.get(k, 0) + c
        return LaurentPoly({k: v for k, v in out.items() if v})

    def regrade(p):
        return LaurentPoly({(es, et, eq - es + et, eh): c
                            for (es, et, eq, eh), c in p.terms.items()})

    rng = random.Random(555)
    confirmed = 0
    while confirmed < 8:
        g = random_gauss(rng, max_crossings=4)
        code = realize(g)
        if any(v != EVEN for v in parity(code).values()):
            continue
        inv = parity_alexander(code).canonical
        if inv.is_zero():
            continue
        assert regrade(q_one_slice(inv)).canonical() == inv.canonical()
        confirmed += 1
    # contrast: a diagram with two odd crossings where the regrading fails
    odd_inv = parity_alexander(realize(parse_gauss("U1+U2-O1+U3-O2-O3-"))).canonical
    assert not odd_inv.is_zero()
    assert regrade(q_one_slice(odd_inv)).canonical() != odd_inv.canonical()


# -- the crossing search --------------------------------------------------------


def routed_segments(g, strategy):
    m = len(g)
    perm = list(range(m)) if strategy == 0 else list(reversed(range(m)))
    x_of = {cid: 100 * (i + 1) for i, cid in enumerate(dict.fromkeys(c for c, _k, _s in g))}
    return _segments(_route_vertices(g, perm, x_of))


def all_pairs_intersections(segs):
    """Reference crossing search: every horizontal against every vertical.

    Returns each segment's strict crossings, as points, in travel order,
    and raises on the same degeneracies as the crossing finder.
    """
    m = len(segs)
    horiz = []
    vert = []
    for i, (a, b) in enumerate(segs):
        if a[1] == b[1]:
            horiz.append((i, min(a[0], b[0]), max(a[0], b[0]), a[1]))
        else:
            vert.append((i, min(a[1], b[1]), max(a[1], b[1]), a[0]))

    def adjacent(i, j):
        return (i + 1) % m == j or (j + 1) % m == i

    for group, along in ((horiz, "y"), (vert, "x")):
        by_line = {}
        for i, lo, hi, coord in group:
            by_line.setdefault(coord, []).append((lo, hi, i))
        for coord, items in by_line.items():
            items.sort()
            for (lo1, hi1, i1), (lo2, hi2, i2) in zip(items, items[1:]):
                if lo2 < hi1 or (lo2 == hi1 and not adjacent(i1, i2)):
                    raise RealizationError(
                        f"collinear segments touch on {along}={coord}: #{i1}, #{i2}")

    out = {}
    for hi_, hx1, hx2, hy in horiz:
        for vi_, vy1, vy2, vx in vert:
            if not (hx1 <= vx <= hx2 and vy1 <= hy <= vy2):
                continue
            if not (hx1 < vx < hx2 and vy1 < hy < vy2):
                if adjacent(hi_, vi_):
                    continue
                raise RealizationError(
                    f"segments #{hi_}, #{vi_} touch non-transversally at {(vx, hy)}")
            p = (vx, hy)
            if p in out:
                raise RealizationError(f"three segments meet at {p}")
            out[p] = (hi_, vi_)

    hits = [[] for _ in segs]
    for p, pair in out.items():
        for si in pair:
            hits[si].append(p)
    for (a, _b), seg_hits in zip(segs, hits):
        seg_hits.sort(key=lambda p: abs(p[0] - a[0]) + abs(p[1] - a[1]))
    return hits


def travel(seg):
    """The unit direction of a segment."""
    (ax, ay), (bx, by) = seg
    return (bx > ax) - (bx < ax), (by > ay) - (by < ay)


def found_points(segs):
    """The crossing finder's hits as points, after checking that crossing c
    has its slot 2c on one horizontal and its slot 2c + 1 on one vertical."""
    hits, slots = _crossings(segs, {})
    seg_of = {h: i for i, row in enumerate(hits) for h in row}
    assert sorted(seg_of) == list(range(len(slots))) == sorted(h for row in hits for h in row)

    def point(c):
        (_hx, hy), (_hx2, hy2) = segs[seg_of[2 * c]]
        (vx, _vy), (vx2, _vy2) = segs[seg_of[2 * c + 1]]
        assert hy == hy2 and vx == vx2
        return vx, hy

    return [[point(h >> 1) for h in row] for row in hits]


def reference_realize(g, strategy):
    """Reference realization: a pass loop over the all-pairs hits, keyed by
    point, that fixes a virtual crossing's frame bits at its second visit
    from the 2x2 determinant of the two travel directions."""
    segs = routed_segments(g, strategy)
    x_of = {cid: 100 * (i + 1) for i, cid in enumerate(dict.fromkeys(c for c, _k, _s in g))}
    center_of = {(x, 0): cid for cid, x in x_of.items()}
    final, first, next_vid = [], {}, max(x_of) + 1
    for seg, seg_hits in zip(segs, all_pairs_intersections(segs)):
        dx, dy = travel(seg)
        for p in seg_hits:
            if p in center_of:
                final.append(Pass(center_of[p], OVER if dy == 0 else UNDER))
            elif p not in first:
                first[p] = (len(final), (dx, dy), next_vid)
                final.append(None)
                next_vid += 1
            else:
                j, (ex, ey), vid = first.pop(p)
                det = ex * dy - ey * dx
                assert det != 0
                final[j] = Pass(vid, VIRTUAL, det > 0)
                final.append(Pass(vid, VIRTUAL, det < 0))
    assert not first
    return DiagramCode(tuple(final), {cid: s for cid, _k, s in g})


def all_gauss_codes(n):
    """Every signed Gauss code on the crossing ids 1..n."""
    entries = [(cid, kind) for cid in range(1, n + 1) for kind in "OU"]
    for order in itertools.permutations(entries):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple((cid, kind, signs[cid - 1]) for cid, kind in order)


def test_crossing_finder_equals_all_pairs_scan():
    rng = random.Random(19)
    for _ in range(60):
        g = random_gauss(rng, max_crossings=30)
        for strategy in (0, 1):
            segs = routed_segments(g, strategy)
            assert found_points(segs) == all_pairs_intersections(segs), g


def test_realize_equals_the_reference_realization():
    codes = [g for n in (1, 2, 3) for g in all_gauss_codes(n)]
    assert len(codes) == 2 * 2 + 24 * 4 + 720 * 8
    rng = random.Random(26)
    codes += [random_gauss(rng, max_crossings=40, min_crossings=4) for _ in range(100)]
    for g in codes:
        for strategy in (0, 1):
            assert realize(g, strategy) == reference_realize(g, strategy), (g, strategy)


def test_frame_bits_are_the_determinant_of_the_travel_directions():
    # a virtual pass has the frame bit iff its direction, followed by the
    # other pass's direction, is a positive frame
    rng = random.Random(7)
    for _ in range(30):
        g = random_gauss(rng, max_crossings=12)
        for strategy in (0, 1):
            segs = routed_segments(g, strategy)
            visits = [(p, travel(seg))
                      for seg, seg_hits in zip(segs, all_pairs_intersections(segs))
                      for p in seg_hits]
            code = realize(g, strategy)
            assert len(visits) == len(code.passes)
            at = {}
            for (p, d), ps in zip(visits, code.passes):
                at.setdefault(p, []).append((d, ps))
            for ((d1, p1), (d2, p2)) in at.values():
                assert p1.cid == p2.cid
                if p1.kind == VIRTUAL:
                    det = d1[0] * d2[1] - d1[1] * d2[0]
                    assert (p1.frame, p2.frame) == (det > 0, det < 0)
                else:
                    assert {p1.kind, p2.kind} == {OVER, UNDER}


# Hand-built segment lists.  Far-away verticals pad each list, so that the
# segments under test are not neighbours in the cyclic order.
PAD = [((1000 * k, 1000), (1000 * k, 1100)) for k in (1, 2, 3)]


@pytest.mark.parametrize("segs, message", [
    # collinear overlap
    ([((0, 0), (10, 0)), PAD[0], ((5, 0), (15, 0)), PAD[1]], "collinear"),
    ([((0, 0), (0, 10)), PAD[0], ((0, 5), (0, 15)), PAD[1]], "collinear"),
    # collinear end-to-end touch of non-adjacent segments
    ([((0, 0), (10, 0)), PAD[0], ((10, 0), (20, 0)), PAD[1]], "collinear"),
    # T-junction, corner touch and kiss of non-adjacent segments
    ([((0, 0), (10, 0)), PAD[0], ((5, 0), (5, 10)), PAD[1]], "non-transversally"),
    ([((0, 0), (10, 0)), PAD[0], ((10, 0), (10, 10)), PAD[1]], "non-transversally"),
    ([((0, 0), (10, 0)), PAD[0], ((5, -10), (5, 0)), PAD[1]], "non-transversally"),
    # three segments through one point: two strict crossings at (5, 0)
    ([((0, 0), (10, 0)), PAD[0], ((5, -5), (5, 5)), PAD[1], ((2, 0), (8, 0)), PAD[2]],
     "three segments meet"),
])
def test_crossing_search_degeneracies_raise(segs, message):
    with pytest.raises(RealizationError, match=message):
        _crossings(segs, {})
    with pytest.raises(RealizationError):
        all_pairs_intersections(segs)


@pytest.mark.parametrize("verts, message", [
    # a repeated vertex, and the closing segment back to the first vertex
    ([(0, 0), (0, 0), (10, 0)], "zero-length segment at vertex 0: (0, 0)"),
    ([(0, 0), (10, 0), (10, 10)], "non-axis-aligned segment (10, 10) -> (0, 0)"),
])
def test_segments_degeneracies_raise(verts, message):
    with pytest.raises(RealizationError, match=f"^{re.escape(message)}$"):
        _segments(verts)


def test_three_segments_meet_whichever_pair_is_collinear():
    # two verticals through one horizontal, and two horizontals through one vertical
    verticals = [((0, 0), (10, 0)), PAD[0], ((5, -5), (5, 5)), PAD[1], ((5, -3), (5, 3)), PAD[2]]
    horizontals = [((5, -5), (5, 5)), PAD[0], ((0, 0), (10, 0)), PAD[1], ((2, 0), (8, 0)), PAD[2]]
    for segs in (verticals, horizontals):
        with pytest.raises(RealizationError, match=r"three segments meet at \(5, 0\)"):
            _crossings(segs, {})


def test_crossing_search_allows_adjacent_corners():
    # a closed square: each corner is the shared end of adjacent segments
    square = [((0, 0), (10, 0)), ((10, 0), (10, 10)), ((10, 10), (0, 10)), ((0, 10), (0, 0))]
    assert _crossings(square, {}) == ([[], [], [], []], [])
    # a straight run split in two adjacent pieces
    run = [((0, 0), (5, 0)), ((5, 0), (10, 0)), ((10, 0), (10, 5)), ((10, 5), (0, 5)),
           ((0, 5), (0, 0))]
    assert _crossings(run, {}) == ([[]] * 5, [])
    # a loop that crosses itself once: the hit comes back on both segments,
    # east over south, so the horizontal pass has no frame bit
    loop = [((0, 0), (10, 0)), ((10, 0), (10, 5)), ((10, 5), (5, 5)),
            ((5, 5), (5, -5)), ((5, -5), (0, -5)), ((0, -5), (0, 0))]
    assert _crossings(loop, {}) == ([[0], [], [], [1], [], []], [False, True])
    # the same loop with a classical site at its crossing: over pass east,
    # under pass south, so the site's sign must be -1
    assert _crossings(loop, {5: (1, -1)}) == \
        ([[0], [], [], [1], [], []], [Pass(1, OVER), Pass(1, UNDER)])
    with pytest.raises(RealizationError, match="geometric sign mismatch at crossing 1"):
        _crossings(loop, {5: (1, 1)})
