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
frame bit marks the X pass directly.  ``roles`` applies this rule in one
walk of the passes: it gives each crossing its class, "virtual", "odd",
"even+" or "even-", and the positions of its X pass and of its other
pass, from which every role arc follows (the pass at position p is
entered by arc p, arc n at p = 0, and left by arc p + 1).  A classical
crossing is odd iff an odd number of classical passes lie between its two
passes: virtual passes are ignored, and either gap gives the same parity,
since the classical passes are even in number.  ``crossings`` and
``parity`` are views of that map.

A ``DiagramCode`` is checked when it is built: its constructor raises
``DiagramError`` naming every violated invariant.  A valid code passes one
linear test; only a code that fails it is checked crossing by crossing.
Every code, parsed, realized, moved or built by hand, goes through the
constructor, so functions trust the codes they are given and never check
them again.

All operations are pure: they never mutate their inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Container, Dict, List, NamedTuple, Optional, Tuple

OVER = "O"
UNDER = "U"
VIRTUAL = "V"

EVEN = "even"
ODD = "odd"


class DiagramError(ValueError):
    """Raised for syntax errors and invariant violations in diagram codes."""


class MoveError(ValueError):
    """Raised when a move's local pattern is not present at the given site."""


class Pass(NamedTuple):
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

    @property
    def arc_count(self) -> int:
        """Number of semi-arcs; the empty code has a single closed arc."""
        return max(len(self.passes), 1)

    def crossing_ids(self) -> List[int]:
        return list(dict.fromkeys(p.cid for p in self.passes))

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


# (kind, frame) of a pass whose crossing has a sign, and of one that has none
_SIGNED_PASSES = {(OVER, False), (UNDER, False)}
_UNSIGNED_PASSES = {(VIRTUAL, True), (VIRTUAL, False)}


def validate(code: DiagramCode) -> List[str]:
    """Return every violated invariant, with the offending crossing id.

    A valid code is accepted by one linear test: its passes are distinct
    and number twice its ids, every id is at least 1, a pass is virtual iff
    its id has no sign, no classical pass carries a frame bit, and every
    sign is +1 or -1 on an id that is present.  Distinct passes of these
    kinds give each id at most two, so exactly two: an over and an under
    pass, or a virtual pass with the frame bit and one without.  A code
    that fails the test gets the per-crossing report, which refuses the
    same codes."""
    passes, signs = code.passes, code.signs
    ids = {cid for cid, _kind, _frame in passes}
    if (len(passes) == 2 * len(ids) == len(set(passes))
            and min(ids, default=1) >= 1
            and signs.keys() <= ids
            and all(s in (1, -1) for s in signs.values())
            and all((kind, frame) in (_SIGNED_PASSES if cid in signs else _UNSIGNED_PASSES)
                    for cid, kind, frame in passes)):
        return []
    return _violations(code)


def _violations(code: DiagramCode) -> List[str]:
    """validate's report: every violated invariant, crossing by crossing."""
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
            if any(p.frame for p in plist):
                out.append(f"crossing {cid}: classical pass carries a frame bit")
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


# -- crossing roles -------------------------------------------------------------


Role = Tuple[str, int, int]  # (class, X-pass position, other-pass position)


def roles(code: DiagramCode) -> Dict[int, Role]:
    """Every crossing's class and the positions of its X pass and of its
    other pass, in the order in which the walk meets each second pass.

    This is the one place that reads sign, parity and frame bit to classify
    a crossing and assign its roles.  The walk counts classical passes
    only: a crossing is odd iff the count between its two passes is odd,
    and the other gap gives the same parity.
    """
    signs = code.signs
    # cid -> position of its first pass, paired with the classical count if classical
    first: Dict[int, object] = {}
    k = 0  # classical passes so far
    out: Dict[int, Role] = {}
    for pos, (cid, kind, frame) in enumerate(code.passes):
        if kind == VIRTUAL:
            i = first.setdefault(cid, pos)
            if i != pos:  # the frame bit marks the X pass
                out[cid] = ("virtual", pos, i) if frame else ("virtual", i, pos)
            continue
        k += 1
        i, k_i = first.setdefault(cid, (pos, k))
        if i != pos:
            sign = signs[cid]
            cls = ODD if (k - k_i - 1) % 2 else "even+" if sign > 0 else "even-"
            # X enters at the over pass of a positive crossing, the under pass of a negative one
            out[cid] = (cls, i, pos) if (kind == UNDER) == (sign > 0) else (cls, pos, i)
    return out


class Crossing(NamedTuple):
    """One crossing: its class and the four semi-arcs that meet there, read
    off its ``roles`` entry.  In a table folded by ``alexander.fold_roles``
    (even crossings only) the arcs are segment heads, 0 for a contracted
    row's target, and x_in, y_in stand for s^a t^b q^c h^d times their
    heads, (a, b, c, d) = x_exp, y_exp."""
    cid: int
    cls: str    # "virtual", "odd", "even+" or "even-"
    x_in: int   # incoming arc of the X strand
    y_in: int   # incoming arc of the other strand
    z_out: int  # outgoing arc of the other strand
    w_out: int  # outgoing arc of the X strand
    x_exp: Tuple[int, int, int, int] = (0, 0, 0, 0)  # weight on x_in
    y_exp: Tuple[int, int, int, int] = (0, 0, 0, 0)  # weight on y_in


def crossings(code: DiagramCode,
              role_map: Optional[Dict[int, Role]] = None) -> List[Crossing]:
    """Every crossing's class and role arcs, in ascending id order: a view
    of ``role_map``, which is ``roles(code)`` unless the caller gives one.
    The pass at position p is entered by arc p (arc n at p = 0) and left
    by arc p + 1."""
    n = len(code.passes)
    return [Crossing(cid, cls, x or n, y or n, y + 1, x + 1)
            for cid, (cls, x, y) in sorted((role_map or roles(code)).items())]


def parity(code: DiagramCode) -> Dict[int, str]:
    """Each classical crossing's parity, ODD or EVEN, in ascending id order:
    the parity ``roles`` reads."""
    return {cid: ODD if cls == ODD else EVEN
            for cid, (cls, _x, _y) in sorted(roles(code).items()) if cls != "virtual"}


# -- symmetry operators ---------------------------------------------------------


def reverse(code: DiagramCode) -> DiagramCode:
    """Orientation reversal: pass order reversed, all decorations kept.

    Both strand directions negate at every crossing, so frame orientation
    and classical signs are preserved.
    """
    return DiagramCode(tuple(reversed(code.passes)), dict(code.signs))


def _switched(code: DiagramCode, ids: Container[int]) -> DiagramCode:
    """Over/under swapped and sign negated at the classical crossings ``ids``."""
    passes = tuple(Pass(p.cid, UNDER if p.kind == OVER else OVER) if p.cid in ids else p
                   for p in code.passes)
    return DiagramCode(passes, {c: -s if c in ids else s for c, s in code.signs.items()})


def switch(code: DiagramCode) -> DiagramCode:
    """Switch every classical crossing: over/under swapped, sign negated."""
    return _switched(code, code.signs)


def switch_crossing(code: DiagramCode, crossing_id: int) -> DiagramCode:
    """Switch one classical crossing.

    For an odd crossing this leaves the relator pair unchanged word for
    word (the odd relations are sign-free and the frame, hence the role
    assignment, is direction-determined), so the invariant is unchanged
    exactly.
    """
    if crossing_id not in code.signs:
        raise DiagramError(f"crossing {crossing_id} is not classical")
    return _switched(code, {crossing_id})


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


# -- elementary moves ------------------------------------------------------------

R2_VARIANTS = tuple(p + o + s for p in "pa" for o in "ou" for s in "+-")
_REMOVALS = ("r1_remove", "v1_remove", "r2_remove", "v2_remove")
# move kind -> the lengths its tuple may have
_LENGTHS = {"r1_insert": (4,), "v1_insert": (2, 3), "r2_insert": (4,), "v2_insert": (3, 4),
            "r1_remove": (2,), "v1_remove": (2,), "r2_remove": (3,), "v2_remove": (3,)}


def _insert(code: DiagramCode, move: Tuple) -> DiagramCode:
    """The insert rule.  The new crossings take the fresh ids c and d, the
    largest id + 1 and + 2.  Each arc is checked to be an int in
    1..arc_count in the order the move gives, and blocks on one arc are
    placed in that order.  A bad option raises MoveError before any arc is
    checked."""
    kind = move[0]
    c = max([p.cid for p in code.passes], default=0) + 1
    d = c + 1
    signs: Dict[int, int] = {}
    if kind == "r1_insert":
        _, arc, side, sign = move
        if side not in ("o", "u") or sign not in (1, -1):
            raise MoveError(f"bad r1_insert parameters {move!r}")
        block = [Pass(c, OVER), Pass(c, UNDER)]
        sites = [(arc, block if side == "o" else block[::-1])]
        signs[c] = sign
    elif kind == "v1_insert":
        _, arc, *opt = move
        if opt not in ([], ["y"]):
            raise MoveError(f"bad v1_insert parameters {move!r}")
        frame = not opt  # "y" moves the frame bit to the second pass
        sites = [(arc, [Pass(c, VIRTUAL, frame), Pass(c, VIRTUAL, not frame)])]
    elif kind == "r2_insert":
        _, arc1, arc2, variant = move
        if variant not in R2_VARIANTS:
            raise MoveError(f"bad r2_insert variant {variant!r}")
        k1, k2 = (OVER, UNDER) if variant[1] == "o" else (UNDER, OVER)
        second = [Pass(c, k2), Pass(d, k2)]
        sites = [(arc1, [Pass(c, k1), Pass(d, k1)]),
                 (arc2, second if variant[0] == "p" else second[::-1])]
        signs[c] = 1 if variant[2] == "+" else -1
        signs[d] = -signs[c]
    else:
        _, arc1, arc2, *opt = move
        if opt not in ([], ["par"], ["anti"]):
            raise MoveError(f"bad v2_insert parameters {move!r}")
        second = [Pass(c, VIRTUAL, False), Pass(d, VIRTUAL, True)]
        sites = [(arc1, [Pass(c, VIRTUAL, True), Pass(d, VIRTUAL, False)]),
                 (arc2, second[::-1] if opt == ["anti"] else second)]
    n = code.arc_count
    placed: Dict[int, List[Pass]] = {}  # insertion position -> passes
    for arc, block in sites:
        if not isinstance(arc, int):
            raise MoveError(f"bad {kind} parameters {move!r}")
        if not 1 <= arc <= n:
            raise MoveError(f"arc {arc} out of range 1..{n}")
        placed.setdefault(arc % n, []).extend(block)
    passes = list(code.passes)
    for pos in sorted(placed, reverse=True):
        passes[pos:pos] = placed[pos]
    return DiagramCode(tuple(passes), {**code.signs, **signs})


def _removal_check(code: DiagramCode) -> Callable[[Tuple], List[int]]:
    """The removal rule on ``code``: a function from a removal move to the
    positions of the passes it drops.  It raises MoveError, naming the first
    unmet condition, when the move's pattern is absent.  R1/V1 want the
    crossing's two passes adjacent.  R2/V2 want each pass of c adjacent to
    one of d (the first such pairing is read), and the pair at c's first
    pass two over or two under passes (R2) or holding one frame bit (V2)."""
    n = len(code.passes)
    at: Dict[int, List[int]] = {}  # cid -> positions of its two passes
    for i, p in enumerate(code.passes):
        at.setdefault(p.cid, []).append(i)

    def adjacent(i: int, j: int) -> bool:
        return (i + 1) % n == j or (j + 1) % n == i

    def removed(move: Tuple) -> List[int]:
        kind = move[0]
        try:
            hash(move)
        except TypeError:  # a crossing id that is a list or a dict
            raise MoveError(f"bad {kind} parameters {move!r}") from None
        if kind in _REMOVALS[:2]:
            _, cid = move
            want = "classical" if kind == "r1_remove" else "virtual"
            if (cid in code.signs) != (want == "classical") or cid not in at:
                raise MoveError(f"crossing {cid} is not {want}")
            if not adjacent(*at[cid]):
                raise MoveError(f"crossing {cid}: passes are not adjacent")
            return at[cid]
        _, c, d = move
        if kind == "r2_remove":
            if c not in code.signs or d not in code.signs or c == d:
                raise MoveError(f"r2_remove needs two distinct classical crossings, got {c},{d}")
            if code.signs[c] + code.signs[d] != 0:
                raise MoveError(f"crossings {c},{d} do not have opposite signs")
        else:
            if c == d or c not in at or d not in at:
                raise MoveError(f"v2_remove needs two distinct crossings, got {c},{d}")
            if c in code.signs or d in code.signs:
                raise MoveError(f"crossings {c},{d} are not both virtual")
        (c0, c1), (d0, d1) = at[c], at[d]
        if not (adjacent(c0, d0) and adjacent(c1, d1)):
            d0, d1 = d1, d0
            if not (adjacent(c0, d0) and adjacent(c1, d1)):
                raise MoveError(f"crossings {c},{d}: passes do not form two adjacent pairs")
        p, q = code.passes[c0], code.passes[d0]
        if kind == "r2_remove" and p.kind != q.kind:
            raise MoveError(f"crossings {c},{d}: over/under pattern is not a bigon")
        if kind == "v2_remove" and p.frame == q.frame:
            raise MoveError(f"crossings {c},{d}: frame bits are not complementary")
        return [c0, c1, d0, d1]

    return removed


def apply_move(code: DiagramCode, move: Tuple) -> DiagramCode:
    """Apply one elementary move, given as a plain tuple:

        ("r1_insert", arc, side, sign)      side "o": over pass first, "u": under first
        ("r1_remove", cid)
        ("r2_insert", arc1, arc2, variant)  variant in {p,a}x{o,u}x{+,-}, e.g. "po+"
        ("r2_remove", cid1, cid2)
        ("v1_insert", arc)  /  ("v1_insert", arc, "y")
        ("v1_remove", cid)
        ("v2_insert", arc1, arc2)  /  ("v2_insert", arc1, arc2, "par" or "anti")
        ("v2_remove", cid1, cid2)

    Arc indices follow the semi-arc labeling of ``code``.  V1 without "y"
    puts the frame bit on the first new pass; V2 "par" is the default.
    Raises MoveError for an empty tuple, an unknown kind, a tuple of the
    wrong length, a bad option, an arc out of range or a removal whose
    pattern is absent.
    """
    if not move:
        raise MoveError("bad move ()")
    kind = move[0]
    if not isinstance(kind, str) or kind not in _LENGTHS:  # a list is not hashable
        raise MoveError(f"unknown move kind {kind!r}")
    if len(move) not in _LENGTHS[kind]:
        raise MoveError(f"bad {kind} parameters {move!r}")
    if kind in _REMOVALS:
        drop = set(_removal_check(code)(move))
        return DiagramCode(tuple(p for i, p in enumerate(code.passes) if i not in drop),
                           {c: s for c, s in code.signs.items() if c not in move[1:]})
    return _insert(code, move)


def removal_sites(code: DiagramCode) -> List[Tuple]:
    """Every removal move whose local pattern is present: per crossing id,
    r1 then v1; then per pair of ids, r2 then v2."""
    removed = _removal_check(code)
    ids = code.crossing_ids()
    out: List[Tuple] = []
    for move in ([(kind, c) for c in ids for kind in _REMOVALS[:2]]
                 + [(kind, c, d) for i, c in enumerate(ids) for d in ids[i + 1:]
                    for kind in _REMOVALS[2:]]):
        try:
            removed(move)
        except MoveError:
            continue
        out.append(move)
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
