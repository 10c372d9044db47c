"""Test helper: virtual braid closures as diagram codes.

Gives geometrically trustworthy test input: planar classical codes (no
virtual letters), odd-parity configurations, and before/after pairs for
the triangle moves via braid-relation substitution.

Letters: ("s", i, sign) classical crossing of strand positions i, i+1
(the strand moving i -> i+1 is over iff sign is +1, matching the upward
frame convention); ("v", i) virtual crossing with the frame bit on the
strand moving i -> i+1.
"""

from paritypoly.diagram import OVER, UNDER, VIRTUAL, DiagramCode, Pass


def braid_closure(width, word):
    """Closure of the braid word; None when it is a link, not a knot."""
    perm = list(range(width))
    passes_by_strand = {i: [] for i in range(width)}
    signs = {}
    for cid, letter in enumerate(word, start=1):
        if letter[0] == "s":
            _, i, sgn = letter
            a, b = perm[i - 1], perm[i]
            passes_by_strand[a].append(Pass(cid, OVER if sgn > 0 else UNDER))
            passes_by_strand[b].append(Pass(cid, UNDER if sgn > 0 else OVER))
            signs[cid] = sgn
        else:
            _, i = letter
            a, b = perm[i - 1], perm[i]
            passes_by_strand[a].append(Pass(cid, VIRTUAL, True))
            passes_by_strand[b].append(Pass(cid, VIRTUAL, False))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    cycle = []
    pos = 0
    for _ in range(width):
        strand = pos
        cycle.append(strand)
        pos = perm.index(strand)
        if pos == cycle[0] and len(cycle) < width:
            return None
    passes = []
    for strand in cycle:
        passes.extend(passes_by_strand[strand])
    return DiagramCode(tuple(passes), signs)


def random_letter(rng, width, p_virtual=0.45):
    i = rng.randint(1, width - 1)
    if rng.random() < p_virtual:
        return ("v", i)
    return ("s", i, rng.choice([1, -1]))


def triangle_words(kind, i, sign):
    """(before, after) letter triples for one triangle-slide relation."""
    if kind == "r3":
        return ([("s", i, sign), ("s", i + 1, sign), ("s", i, sign)],
                [("s", i + 1, sign), ("s", i, sign), ("s", i + 1, sign)])
    if kind == "v3":
        return ([("v", i), ("v", i + 1), ("v", i)],
                [("v", i + 1), ("v", i), ("v", i + 1)])
    if kind == "v4":
        return ([("s", i, sign), ("v", i + 1), ("v", i)],
                [("v", i + 1), ("v", i), ("s", i + 1, sign)])
    raise ValueError(kind)
