"""Verification suites behind ``paritypoly verify``.

Each suite replays one family of structural checks (move invariance, the
symmetry identities, skein identities, odd-switch stability, the Fox
identity, the minor-gcd proposition) over fixture diagrams and seeded
random input, and reports per-check pass/fail lines.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from . import foxcalc as fx
from .alexander import (
    build_full_matrix_M, build_matrix_A, check_even_skein, check_symmetries,
    determinant, gcd_of_minors, parity_alexander,
)
from .diagram import (
    ODD, R2_VARIANTS, DiagramCode, apply_move, parse_diagram, random_code,
    relabel, removal_sites, roles, shift_basepoint, switch_crossing,
)
Check = Tuple[str, bool, str]  # label, passed, detail


@dataclass
class VerifyReport:
    suite: str
    checks: List[Check] = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append((label, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _label, ok, _d in self.checks)

    def summary(self) -> str:
        good = sum(1 for _l, ok, _d in self.checks if ok)
        return f"suite {self.suite}: {good}/{len(self.checks)} checks passed"


def _random_insert(rng: random.Random, code: DiagramCode) -> Tuple:
    arcs = code.arc_count
    kind = rng.choice(["r1", "v1", "r2", "v2"])
    a1 = rng.randint(1, arcs)
    a2 = rng.randint(1, arcs)
    if kind == "r1":
        return ("r1_insert", a1, rng.choice("ou"), rng.choice([1, -1]))
    if kind == "v1":
        return ("v1_insert", a1) if rng.random() < 0.5 else ("v1_insert", a1, "y")
    if kind == "r2":
        return ("r2_insert", a1, a2, rng.choice(R2_VARIANTS))
    return ("v2_insert", a1, a2, rng.choice(["par", "anti"]))


def random_move(rng: random.Random, code: DiagramCode) -> Tuple[str, DiagramCode]:
    """One random applicable move, basepoint shift or relabeling."""
    n = len(code.crossing_ids())
    options = ["insert", "shift", "relabel"]
    removals = removal_sites(code)
    if removals:
        options += ["remove"] * (3 if n >= 7 else 1)
    if n >= 9:
        options = [o for o in options if o != "insert"] or ["shift"]
    choice = rng.choice(options)
    if choice == "shift":
        k = rng.randrange(0, max(len(code.passes), 1))
        return f"shift_basepoint({k})", shift_basepoint(code, k)
    if choice == "relabel":
        ids = code.crossing_ids()
        new = rng.sample(range(1, 3 * len(ids) + 2), len(ids))
        return "relabel", relabel(code, dict(zip(ids, new)))
    if choice == "remove":
        mv = rng.choice(removals)
        return repr(mv), apply_move(code, mv)
    mv = _random_insert(rng, code)
    return repr(mv), apply_move(code, mv)


def suite_moves(diagrams: Sequence[Tuple[str, DiagramCode]], trials: int = 1000,
                seed: int = 0) -> VerifyReport:
    """Randomized sequences of one to six moves must never change the
    canonical invariant."""
    rng = random.Random(seed)
    report = VerifyReport("moves")
    for t in range(trials):
        if diagrams and t % 3 == 0:
            name, code = diagrams[t // 3 % len(diagrams)]
        else:
            name, code = f"random[{t}]", random_code(rng, max_crossings=6)
        expected = parity_alexander(code).canonical
        ok = True
        for _step in range(rng.randint(1, 6)):
            label, moved = random_move(rng, code)
            got = parity_alexander(moved).canonical
            if got != expected:
                report.add(
                    f"trial {t} ({name})", False,
                    f"move {label} changed the invariant:\n"
                    f"  before: {code.to_text()}\n  after:  {moved.to_text()}\n"
                    f"  phi(before) = {expected.to_text()}\n  phi(after)  = {got.to_text()}")
                ok = False
                break
            code = moved
        if ok:
            report.add(f"trial {t} ({name})", True)
    return report


def suite_symmetry(diagrams: Sequence[Tuple[str, DiagramCode]]) -> VerifyReport:
    report = VerifyReport("symmetry")
    for name, code in diagrams:
        res = check_symmetries(code)
        for op, ok in res.outcomes.items():
            report.add(f"{name}: {op}", ok,
                       "" if ok else f"base invariant {res.base.to_text()}")
    return report


def suite_skein(diagrams: Sequence[Tuple[str, DiagramCode]]) -> VerifyReport:
    """D+ - st D- = (1-st) Dv must hold at every even crossing."""
    report = VerifyReport("skein")
    for name, code in diagrams:
        for cid, (cls, _x, _y) in sorted(roles(code).items()):
            if cls not in ("even+", "even-"):
                continue
            rep = check_even_skein(code, cid)
            report.add(
                f"{name}: crossing {cid}", rep.proof_form_holds,
                "" if rep.proof_form_holds else
                f"D+ = {rep.d_plus.to_text()}, D- = {rep.d_minus.to_text()}, "
                f"Dv = {rep.d_smooth.to_text()}")
    return report


def suite_oddswitch(diagrams: Sequence[Tuple[str, DiagramCode]]) -> VerifyReport:
    """Switching odd crossings must leave the invariant exactly unchanged."""
    report = VerifyReport("oddswitch")
    for name, code in diagrams:
        base = parity_alexander(code).canonical
        odd_ids = [cid for cid, (cls, _x, _y) in sorted(roles(code).items()) if cls == ODD]
        for cid in odd_ids:
            got = parity_alexander(switch_crossing(code, cid)).canonical
            report.add(f"{name}: switch odd crossing {cid}", got == base,
                       "" if got == base else f"{base.to_text()} -> {got.to_text()}")
        if odd_ids:
            switched = code
            for cid in odd_ids:
                switched = switch_crossing(switched, cid)
            got = parity_alexander(switched).canonical
            report.add(f"{name}: switch all {len(odd_ids)} odd crossings",
                       got == base,
                       "" if got == base else f"{base.to_text()} -> {got.to_text()}")
    return report


_WORD_GENS = [fx.arc(i) for i in range(1, 5)] + [fx.S_GEN, fx.Q_GEN, fx.H_GEN]


def random_word(rng: random.Random, max_len: int = 20) -> fx.Word:
    letters = [(rng.choice(_WORD_GENS), rng.choice([1, -1]))
               for _ in range(rng.randint(0, max_len))]
    return fx.reduce_word(letters)


def suite_foxid(diagrams: Sequence[Tuple[str, DiagramCode]] = (),
                trials: int = 1000, seed: int = 0) -> VerifyReport:
    """Fox's fundamental identity on random words; det(M) = 0 per diagram.

    The det(M) check holds for every set of relator rows: M's commutator
    rows have no arc entries, so det M = det A * det D, D the block of the
    s, q, h columns, [[1-q, s-1, 0], [1-h, 0, s-1], [0, h-1, 1-q]], and
    det D = 0 identically.  It exercises the commutator block and the
    determinant kernel only, not the crossing relators."""
    rng = random.Random(seed)
    report = VerifyReport("foxid")
    bad = 0
    for t in range(trials):
        w = random_word(rng)
        if not fx.fundamental_identity_check(w):
            bad += 1
            report.add(f"word trial {t}", False, fx.word_to_string(w))
    report.add(f"fundamental identity on {trials} random words", bad == 0,
               f"{bad} failures")
    for name, code in diagrams:
        d = determinant(build_full_matrix_M(code))
        report.add(f"{name}: det(M) = 0", d.is_zero(),
                   "" if d.is_zero() else d.to_text())
    return report


def enumerate_small_codes() -> List[DiagramCode]:
    """Every valid code with one or two crossings (any classes): the six
    flavours of one crossing, then, per pairing of four slots, every
    flavour of crossing 1 with every flavour of crossing 2."""
    flavours = [("O+", "U+"), ("O-", "U-"), ("U+", "O+"), ("U-", "O-"), ("Vx", "Vy"), ("Vy", "Vx")]
    codes: List[DiagramCode] = []
    for slots in ([(0, 1)], [(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]):
        for flavs in itertools.product(flavours, repeat=len(slots)):
            tokens = [""] * (2 * len(slots))
            for cid, ((i, j), (a, b)) in enumerate(zip(slots, flavs), start=1):
                tokens[i], tokens[j] = f"{a[0]}{cid}{a[1]}", f"{b[0]}{cid}{b[1]}"
            codes.append(parse_diagram(" ".join(tokens)))
    return codes


def suite_prop1(diagrams: Sequence[Tuple[str, DiagramCode]] = ()) -> VerifyReport:
    """gcd of the corank-1 minors of M equals det(A) up to unit, checked by
    enumeration on every code with <= 2 crossings."""
    report = VerifyReport("prop1")
    cases = [(f"enum[{i}] {c.to_text()}", c)
             for i, c in enumerate(enumerate_small_codes())]
    cases += [(name, code) for name, code in diagrams
              if len(code.crossing_ids()) <= 2]
    for name, code in cases:
        det_a = determinant(build_matrix_A(code))
        g = gcd_of_minors(build_full_matrix_M(code))
        ok = g.equal_up_to_unit(det_a)
        report.add(name, ok,
                   "" if ok else f"gcd={g.to_text()} det(A)={det_a.to_text()}")
    return report


# every entry takes (diagrams, trials, seed); only moves and foxid are seeded
SUITES = {
    "moves": lambda d, trials, seed: suite_moves(d, trials=trials, seed=seed),
    "symmetry": lambda d, trials, seed: suite_symmetry(d),
    "skein": lambda d, trials, seed: suite_skein(d),
    "oddswitch": lambda d, trials, seed: suite_oddswitch(d),
    "foxid": lambda d, trials, seed: suite_foxid(d, trials=trials, seed=seed),
    "prop1": lambda d, trials, seed: suite_prop1(d),
}
