"""Planar virtual knot diagram codes.

A diagram is stored as a cyclic sequence of crossing passes.  Classical
crossings appear once as an over pass and once as an under pass and carry
a sign; virtual crossings appear twice as virtual passes, exactly one of
the two carrying the frame bit.  The frame bit marks the pass of the
strand X such that (direction of X, direction of the other strand) is a
positively oriented plane frame at the crossing; it is the data a drawing
carries implicitly and the relator construction needs explicitly.

Token syntax (used both for single codes and inside ``.vkd`` files):

    O<id><sign>   classical over pass,  sign in {+, -}
    U<id><sign>   classical under pass, sign must agree with the O pass
    V<id>x        virtual pass carrying the frame bit
    V<id>y        virtual pass without the frame bit

Semi-arcs are numbered along the code: in a code of n passes, arc i leaves
the pass at 0-indexed position i-1 and enters the pass at position i, and
arc n enters the pass at position 0.  The empty code has a single closed
arc.

Role assignment at a crossing (the unified rule, same for classical and
virtual crossings): X is the strand whose direction, followed by the other
strand's direction, forms a positively oriented frame; x/w are the incoming
and outgoing arcs of X, y/z those of the other strand.  For classical
crossings this means: positive sign => x is the over-incoming arc,
negative sign => x is the under-incoming arc.  For virtual crossings the
frame bit marks the X pass directly.  ``crossings`` applies this rule and
sorts each crossing into its class, "virtual", "odd", "even+" or "even-".

A ``DiagramCode`` is checked when it is built: its constructor raises
``DiagramError`` naming every violated invariant.  Every code, parsed,
realized, moved or built by hand, goes through the constructor, so
functions trust the codes they are given and never check them again.

All operations are pure: they never mutate their inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

OVER = "O"
UNDER = "U"
VIRTUAL = "V"

EVEN = "even"
ODD = "odd"


class DiagramError(ValueError):
    """Raised for syntax errors and invariant violations in diagram codes."""


class MoveError(ValueError):
    """Raised when a move's local pattern is not present at the given site."""


@dataclass(frozen=True, slots=True)
class Pass:
    cid: int
    kind: str          # OVER, UNDER or VIRTUAL
    frame: bool = False  # meaningful for VIRTUAL passes only

    def token(self, sign: int = 0) -> str:
        if self.kind == VIRTUAL:
            return f"V{self.cid}{'x' if self.frame else 'y'}"
        return f"{self.kind}{self.cid}{'+' if sign > 0 else '-'}"


@dataclass(frozen=True, slots=True)
class DiagramCode:
    passes: Tuple[Pass, ...]
    signs: Dict[int, int]  # classical crossing id -> +1 / -1

    def __post_init__(self) -> None:
        violations = validate(self)
        if violations:
            raise DiagramError("; ".join(violations))

    def __len__(self) -> int:
        return len(self.passes)

    @property
    def arc_count(self) -> int:
        """Number of semi-arcs; the empty code has a single closed arc."""
        return max(len(self.passes), 1)

    def crossing_ids(self) -> List[int]:
        return list(dict.fromkeys(p.cid for p in self.passes))

    def classical_ids(self) -> List[int]:
        return [c for c in self.crossing_ids() if c in self.signs]

    def virtual_ids(self) -> List[int]:
        return [c for c in self.crossing_ids() if c not in self.signs]

    def to_text(self) -> str:
        return " ".join(p.token(self.signs.get(p.cid, 0)) for p in self.passes)


_TOKEN_RE = re.compile(r"^(?:([OU])(\d+)([+-])|V(\d+)([xy]))$")


# -- parsing and validation --------------------------------------------------


def parse_diagram(text: str) -> DiagramCode:
    """Parse a whitespace-separated token string into a validated code."""
    return _parse_code(text, {})


def _parse_code(text: str, tokens: Dict[str, Tuple[Pass, int]]) -> DiagramCode:
    """parse_diagram, sharing one (Pass, sign) per distinct token through the
    caller's ``tokens`` memo (sign 0 for virtual passes)."""
    passes: List[Pass] = []
    signs: Dict[int, int] = {}
    for tok in text.split():
        parsed = tokens.get(tok)
        if parsed is None:
            m = _TOKEN_RE.match(tok)
            if not m:
                raise DiagramError(f"bad pass token {tok!r}")
            if m.group(1):
                parsed = (Pass(int(m.group(2)), m.group(1)), 1 if m.group(3) == "+" else -1)
            else:
                parsed = (Pass(int(m.group(4)), VIRTUAL, m.group(5) == "x"), 0)
            tokens[tok] = parsed
        p, sign = parsed
        if sign:
            if signs.get(p.cid, sign) != sign:
                raise DiagramError(f"sign mismatch at crossing {p.cid}")
            signs[p.cid] = sign
        passes.append(p)
    return DiagramCode(tuple(passes), signs)


def validate(code: DiagramCode) -> List[str]:
    """Return every violated invariant, with the offending crossing id."""
    out: List[str] = []
    by_cid: Dict[int, List[Pass]] = {}
    for p in code.passes:
        by_cid.setdefault(p.cid, []).append(p)
    for cid, plist in sorted(by_cid.items()):
        if cid < 1:
            out.append(f"crossing {cid}: id must be a positive integer")
        kinds = sorted(p.kind for p in plist)
        if kinds == [OVER, UNDER]:
            if cid not in code.signs:
                out.append(f"crossing {cid}: classical crossing without a sign")
        elif kinds == [VIRTUAL, VIRTUAL]:
            if cid in code.signs:
                out.append(f"crossing {cid}: virtual crossing must not carry a sign")
            frames = sum(1 for p in plist if p.frame)
            if frames != 1:
                out.append(f"crossing {cid}: virtual crossing has {frames} frame bits, wants 1")
        else:
            if len(plist) != 2:
                out.append(f"crossing {cid}: appears {len(plist)} times, wants 2")
            elif kinds == [OVER, OVER]:
                out.append(f"crossing {cid}: two over passes")
            elif kinds == [UNDER, UNDER]:
                out.append(f"crossing {cid}: two under passes")
            else:
                out.append(f"crossing {cid}: mixes classical and virtual passes")
    for cid in code.signs:
        if cid not in by_cid:
            out.append(f"crossing {cid}: sign given but crossing absent")
        if code.signs[cid] not in (1, -1):
            out.append(f"crossing {cid}: sign must be +1 or -1")
    if len(code.passes) != 2 * len(by_cid):
        out.append(f"pass count {len(code.passes)} != 2 * {len(by_cid)} crossings")
    return out


EMPTY_CODE = DiagramCode((), {})


# -- file formats -------------------------------------------------------------


def parse_vkd(text: str) -> List[Tuple[Optional[str], DiagramCode]]:
    """Parse a ``.vkd`` file: comment lines (#), blank lines, ``name:`` and
    ``code:`` lines.  Each ``code:`` line closes one diagram."""
    out: List[Tuple[Optional[str], DiagramCode]] = []
    pending: Optional[str] = None
    tokens: Dict[str, Tuple[Pass, int]] = {}  # one Pass per distinct token
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("name:"):
            if pending is not None:
                raise DiagramError(f"line {lineno}: name {pending!r} has no code line")
            pending = line[5:].strip()
        elif line.startswith("code:"):
            try:
                code = _parse_code(line[5:], tokens)
            except DiagramError as exc:
                raise DiagramError(f"line {lineno}: {exc}") from None
            out.append((pending, code))
            pending = None
        else:
            raise DiagramError(f"line {lineno}: expected name:/code:/comment, got {raw!r}")
    if pending is not None:
        raise DiagramError(f"name {pending!r} has no code line")
    return out


def format_vkd(entries: Iterable[Tuple[Optional[str], DiagramCode]]) -> str:
    lines: List[str] = []
    for name, code in entries:
        if name is not None:
            lines.append(f"name: {name}")
        lines.append(f"code: {code.to_text()}".rstrip())
    return "\n".join(lines) + "\n"


# -- parity -------------------------------------------------------------------


def parity(code: DiagramCode) -> Dict[int, str]:
    """Classify each classical crossing as even or odd.

    A crossing is odd iff an odd number of classical passes lie strictly
    between its two occurrences in the cyclic sequence; virtual passes are
    ignored, matching the classical-only Gauss code.  The parity does not
    depend on which of the two gaps is counted, because the total number
    of classical passes is even.
    """
    first: Dict[int, int] = {}  # cid -> index of its first classical pass
    out: Dict[int, str] = {}
    k = 0
    for p in code.passes:
        if p.kind == VIRTUAL:
            continue
        if p.cid in first:
            out[p.cid] = ODD if (k - first[p.cid] - 1) % 2 else EVEN
        else:
            first[p.cid] = k
            out[p.cid] = EVEN  # keeps first-appearance order; set on the second pass
        k += 1
    return out


# -- the crossing table -------------------------------------------------------


class Crossing(NamedTuple):
    """One crossing: its class and the four semi-arcs that meet there.  In a
    table folded by ``alexander.fold_steps`` (even crossings only) the arcs
    are segment heads, 0 for a contracted row's target, and x_in, y_in stand
    for s^a t^b q^c h^d times their heads, (a, b, c, d) = x_exp, y_exp."""
    cid: int
    cls: str    # "virtual", "odd", "even+" or "even-"
    x_in: int   # incoming arc of the X strand
    y_in: int   # incoming arc of the other strand
    z_out: int  # outgoing arc of the other strand
    w_out: int  # outgoing arc of the X strand
    x_exp: Tuple[int, int, int, int] = (0, 0, 0, 0)  # weight on x_in
    y_exp: Tuple[int, int, int, int] = (0, 0, 0, 0)  # weight on y_in


def crossings(code: DiagramCode) -> List[Crossing]:
    """Every crossing's class and role arcs, in ascending id order.

    This is the one place that numbers the semi-arcs and reads sign, parity
    and frame bit to classify a crossing and assign its roles.
    """
    n = len(code.passes)
    parities = parity(code)
    first: Dict[int, int] = {}  # cid -> position of its first pass
    out: List[Crossing] = []
    for pos, p in enumerate(code.passes):
        i = first.pop(p.cid, None)
        if i is None:
            first[p.cid] = pos
            continue
        sign = code.signs.get(p.cid)
        if sign is None:
            cls = "virtual"
            x_first = code.passes[i].frame
        else:
            cls = ODD if parities[p.cid] == ODD else "even+" if sign > 0 else "even-"
            x_first = code.passes[i].kind == (OVER if sign > 0 else UNDER)
        x, y = (i, pos) if x_first else (pos, i)
        out.append(Crossing(p.cid, cls, x or n, y or n, y + 1, x + 1))
    out.sort()
    return out


# -- symmetry operators ---------------------------------------------------------


def reverse(code: DiagramCode) -> DiagramCode:
    """Orientation reversal: pass order reversed, all decorations kept.

    Both strand directions negate at every crossing, so frame orientation
    and classical signs are preserved.
    """
    return DiagramCode(tuple(reversed(code.passes)), dict(code.signs))


def switch(code: DiagramCode) -> DiagramCode:
    """Switch every classical crossing: over/under swapped, sign negated."""
    passes = tuple(
        Pass(p.cid, UNDER if p.kind == OVER else OVER) if p.kind != VIRTUAL else p
        for p in code.passes
    )
    return DiagramCode(passes, {c: -s for c, s in code.signs.items()})


def flip(code: DiagramCode) -> DiagramCode:
    """180-degree rotation of the diagram plane: over/under swap (signs kept,
    the swap composes with the plane reflection), frame bits move to the
    other pass (plane orientation reverses)."""
    passes = tuple(
        Pass(p.cid, VIRTUAL, not p.frame) if p.kind == VIRTUAL
        else Pass(p.cid, UNDER if p.kind == OVER else OVER)
        for p in code.passes
    )
    return DiagramCode(passes, dict(code.signs))


def switched_flip(code: DiagramCode) -> DiagramCode:
    """flip then switch: kinds kept, signs negated, frame bits toggled."""
    return switch(flip(code))


def shift_basepoint(code: DiagramCode, k: int) -> DiagramCode:
    n = len(code.passes)
    if n == 0:
        return code
    k %= n
    return DiagramCode(code.passes[k:] + code.passes[:k], dict(code.signs))


def relabel(code: DiagramCode, perm: Dict[int, int]) -> DiagramCode:
    """Rename crossing ids through a bijection on the ids of the code."""
    ids = set(code.crossing_ids())
    if set(perm.keys()) != ids or len(set(perm.values())) != len(ids):
        raise DiagramError("relabeling must be a bijection on the crossing ids")
    if any(v < 1 for v in perm.values()):
        raise DiagramError("relabeled ids must be positive")
    passes = tuple(Pass(perm[p.cid], p.kind, p.frame) for p in code.passes)
    signs = {perm[c]: s for c, s in code.signs.items()}
    return DiagramCode(passes, signs)


def classical_gauss_code(code: DiagramCode) -> Tuple[Tuple[int, str, int], ...]:
    """Project to the signed Gauss code: drop virtual passes."""
    return tuple(
        (p.cid, p.kind, code.signs[p.cid])
        for p in code.passes
        if p.kind != VIRTUAL
    )


# -- code equivalence up to basepoint and labels --------------------------------


def same_up_to_shift_relabel(a: DiagramCode, b: DiagramCode) -> bool:
    """True iff the codes agree after some basepoint shift and id renaming."""
    if len(a.passes) != len(b.passes):
        return False
    n = len(a.passes)
    if n == 0:
        return True
    for k in range(n):
        rot = b.passes[k:] + b.passes[:k]
        mapping: Dict[int, int] = {}
        ok = True
        for pa, pb in zip(a.passes, rot):
            if pa.kind != pb.kind or (pa.kind == VIRTUAL and pa.frame != pb.frame):
                ok = False
                break
            if pa.cid in mapping:
                if mapping[pa.cid] != pb.cid:
                    ok = False
                    break
            else:
                mapping[pa.cid] = pb.cid
        if not ok or len(set(mapping.values())) != len(mapping):
            continue
        if all(a.signs.get(c) == b.signs.get(mapping[c]) for c in mapping):
            return True
    return False


# -- elementary moves ------------------------------------------------------------

# Moves are plain tuples:
#   ("r1_insert", arc, side, sign)        side "o": over pass first, "u": under first
#   ("r1_remove", cid)
#   ("r2_insert", arc1, arc2, variant)    variant in {p,a}x{o,u}x{+,-}, e.g. "po+"
#   ("r2_remove", cid1, cid2)
#   ("v1_insert", arc)  /  ("v1_insert", arc, "y")
#   ("v1_remove", cid)
#   ("v2_insert", arc1, arc2)  /  ("v2_insert", arc1, arc2, "anti")
#   ("v2_remove", cid1, cid2)
# Arc indices follow the semi-arc labeling of the code the move applies to.

R2_VARIANTS = tuple(p + o + s for p in "pa" for o in "ou" for s in "+-")


def _fresh_ids(code: DiagramCode, k: int) -> List[int]:
    top = max([p.cid for p in code.passes], default=0)
    return [top + i + 1 for i in range(k)]


def _check_arc(code: DiagramCode, arc: int) -> int:
    """Map a 1-indexed arc label to the insertion position after it."""
    n_arcs = code.arc_count
    if not 1 <= arc <= n_arcs:
        raise MoveError(f"arc {arc} out of range 1..{n_arcs}")
    return arc % n_arcs


def _insert(code: DiagramCode, sites: List[Tuple[int, List[Pass]]],
            new_signs: Dict[int, int]) -> DiagramCode:
    """Insert pass blocks into arc interiors; same-arc blocks concatenate
    in the order given."""
    placed: Dict[int, List[Pass]] = {}
    for arc, block in sites:
        pos = _check_arc(code, arc)
        placed.setdefault(pos, []).extend(block)
    passes = list(code.passes)
    for pos in sorted(placed, reverse=True):
        passes[pos:pos] = placed[pos]
    signs = dict(code.signs)
    signs.update(new_signs)
    return DiagramCode(tuple(passes), signs)


def _remove_positions(code: DiagramCode, positions: Sequence[int],
                      drop_ids: Sequence[int]) -> DiagramCode:
    keep = [p for i, p in enumerate(code.passes) if i not in set(positions)]
    signs = {c: s for c, s in code.signs.items() if c not in set(drop_ids)}
    return DiagramCode(tuple(keep), signs)


def _positions_of(code: DiagramCode, cid: int) -> List[int]:
    return [i for i, p in enumerate(code.passes) if p.cid == cid]


def _adjacent(code: DiagramCode, i: int, j: int) -> bool:
    n = len(code.passes)
    return (i + 1) % n == j or (j + 1) % n == i


def _adjacent_pairs(code: DiagramCode, c: int, d: int, pc: List[int], pd: List[int]
                    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The passes of c and d (at positions pc and pd) as two adjacent
    (c pass, d pass) position pairs."""
    for i, j in ((0, 1), (1, 0)):
        if _adjacent(code, pc[0], pd[i]) and _adjacent(code, pc[1], pd[j]):
            return (pc[0], pd[i]), (pc[1], pd[j])
    raise MoveError(f"crossings {c},{d}: passes do not form two adjacent pairs")


def apply_move(code: DiagramCode, move: Tuple) -> DiagramCode:
    kind = move[0]

    if kind == "r1_insert":
        _, arc, side, sign = move
        if side not in ("o", "u") or sign not in (1, -1):
            raise MoveError(f"bad r1_insert parameters {move!r}")
        (cid,) = _fresh_ids(code, 1)
        block = [Pass(cid, OVER), Pass(cid, UNDER)]
        if side == "u":
            block.reverse()
        return _insert(code, [(arc, block)], {cid: sign})

    if kind == "r1_remove":
        _, cid = move
        if cid not in code.signs:
            raise MoveError(f"crossing {cid} is not classical")
        i, j = _positions_of(code, cid)
        if not _adjacent(code, i, j):
            raise MoveError(f"crossing {cid}: passes are not adjacent")
        return _remove_positions(code, [i, j], [cid])

    if kind == "v1_insert":
        arc = move[1]
        first_frame = len(move) < 3 or move[2] != "y"
        (cid,) = _fresh_ids(code, 1)
        block = [Pass(cid, VIRTUAL, first_frame), Pass(cid, VIRTUAL, not first_frame)]
        return _insert(code, [(arc, block)], {})

    if kind == "v1_remove":
        _, cid = move
        pos = _positions_of(code, cid)
        if len(pos) != 2 or any(code.passes[i].kind != VIRTUAL for i in pos):
            raise MoveError(f"crossing {cid} is not virtual")
        if not _adjacent(code, pos[0], pos[1]):
            raise MoveError(f"crossing {cid}: passes are not adjacent")
        return _remove_positions(code, pos, [cid])

    if kind == "r2_insert":
        _, arc1, arc2, variant = move
        if variant not in R2_VARIANTS:
            raise MoveError(f"bad r2_insert variant {variant!r}")
        parallel = variant[0] == "p"
        first_over = variant[1] == "o"
        lead = 1 if variant[2] == "+" else -1
        c, d = _fresh_ids(code, 2)
        k1 = OVER if first_over else UNDER
        k2 = UNDER if first_over else OVER
        site1 = [Pass(c, k1), Pass(d, k1)]
        site2 = [Pass(c, k2), Pass(d, k2)]
        if not parallel:
            site2.reverse()
        return _insert(code, [(arc1, site1), (arc2, site2)], {c: lead, d: -lead})

    if kind == "r2_remove":
        _, c, d = move
        if c not in code.signs or d not in code.signs or c == d:
            raise MoveError(f"r2_remove needs two distinct classical crossings, got {c},{d}")
        if code.signs[c] + code.signs[d] != 0:
            raise MoveError(f"crossings {c},{d} do not have opposite signs")
        pc, pd = _positions_of(code, c), _positions_of(code, d)
        pairing = _adjacent_pairs(code, c, d, pc, pd)
        kinds = [
            {code.passes[a].kind, code.passes[b].kind}
            for a, b in pairing
        ]
        if not (kinds[0] == {OVER} and kinds[1] == {UNDER}
                or kinds[0] == {UNDER} and kinds[1] == {OVER}):
            raise MoveError(f"crossings {c},{d}: over/under pattern is not a bigon")
        return _remove_positions(code, [*pairing[0], *pairing[1]], [c, d])

    if kind == "v2_insert":
        arc1, arc2 = move[1], move[2]
        parallel = len(move) < 4 or move[3] != "anti"
        c, d = _fresh_ids(code, 2)
        site1 = [Pass(c, VIRTUAL, True), Pass(d, VIRTUAL, False)]
        site2 = [Pass(c, VIRTUAL, False), Pass(d, VIRTUAL, True)]
        if not parallel:
            site2.reverse()
        return _insert(code, [(arc1, site1), (arc2, site2)], {})

    if kind == "v2_remove":
        _, c, d = move
        pc, pd = _positions_of(code, c), _positions_of(code, d)
        if c == d or len(pc) != 2 or len(pd) != 2:
            raise MoveError(f"v2_remove needs two distinct crossings, got {c},{d}")
        if any(code.passes[i].kind != VIRTUAL for i in pc + pd):
            raise MoveError(f"crossings {c},{d} are not both virtual")
        pairing = _adjacent_pairs(code, c, d, pc, pd)
        frames1 = sum(1 for k in pairing[0] if code.passes[k].frame)
        if frames1 != 1:
            raise MoveError(f"crossings {c},{d}: frame bits are not complementary")
        return _remove_positions(code, [*pairing[0], *pairing[1]], [c, d])

    raise MoveError(f"unknown move kind {kind!r}")


def removal_sites(code: DiagramCode) -> List[Tuple]:
    """Every removal move whose local pattern is present (preconditions met)."""
    out: List[Tuple] = []
    for cid in code.crossing_ids():
        pos = _positions_of(code, cid)
        if len(pos) == 2 and _adjacent(code, pos[0], pos[1]):
            if cid in code.signs:
                out.append(("r1_remove", cid))
            else:
                out.append(("v1_remove", cid))
    ids = code.crossing_ids()
    for i, c in enumerate(ids):
        for d in ids[i + 1:]:
            for mv in (("r2_remove", c, d), ("v2_remove", c, d)):
                try:
                    apply_move(code, mv)
                except (MoveError, DiagramError):
                    continue
                out.append(mv)
    return out


# -- random codes (seeded test/verify input) -------------------------------------


def random_code(rng, max_crossings: int = 6, p_virtual: float = 0.4) -> DiagramCode:
    """random_code_of_size with n drawn uniformly from 1..max_crossings;
    used by the randomized verification suites.  Most of these codes are
    not planar: with max_crossings=8, about 72 % of them."""
    return random_code_of_size(rng, rng.randint(1, max_crossings), p_virtual)


def random_code_of_size(rng, n: int, p_virtual: float = 0.4) -> DiagramCode:
    """Uniform random pairing of 2n slots with random decorations; valid by
    construction, but almost never planar (none of 120 codes at n = 6, 12
    and 40), so its invariant is in general no virtual knot's."""
    order = list(range(2 * n))
    rng.shuffle(order)
    passes: List[Optional[Pass]] = [None] * (2 * n)
    signs: Dict[int, int] = {}
    for cid in range(1, n + 1):
        i, j = order[2 * cid - 2], order[2 * cid - 1]
        if rng.random() < p_virtual:
            passes[i] = Pass(cid, VIRTUAL, True)
            passes[j] = Pass(cid, VIRTUAL, False)
        else:
            over_first = rng.random() < 0.5
            passes[i] = Pass(cid, OVER if over_first else UNDER)
            passes[j] = Pass(cid, UNDER if over_first else OVER)
            signs[cid] = 1 if rng.random() < 0.5 else -1
    return DiagramCode(tuple(passes), signs)  # type: ignore[arg-type]
