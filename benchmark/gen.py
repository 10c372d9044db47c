"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own code: it imports nothing from
``paritypoly``, so the same seed gives byte-identical input files at any
commit of the program.  Regenerate the inputs of one workload with

    python3 benchmark/gen.py --workload dense-core --seed 1

which writes them under ``benchmark/generated/``.  ``run.py`` writes the
same files before every run.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

GENERATED = Path(__file__).resolve().parent / "generated"

# Per-workload make-up; README.md gives the reasons.  Sizes are set so that
# one round holds many distinct ops near each reported percentile, which
# keeps the inputs' share of the spread between seeds small, and so that a
# round takes about 6 s on the reference machine: a 10 s run then measures
# two rounds, and its untimed check round re-runs only one.
DENSE_CODES = 420
DENSE_CROSSINGS = (30, 44)
DENSE_EVEN = (11, 12, 13)       # exact even-crossing counts, in equal shares
P_VIRTUAL = 0.4
# crossings -> codes per seed.  Two blocks hold the percentiles: the median
# op is a 6-crossing code and the p90 op a 12-crossing code, each block big
# enough that its quantile repeats from seed to seed; single codes up to 20
# crossings (about 1,000-row matrices) sit above the p90.
GAUSS_LADDER = {4: 3, 5: 3, 6: 130, 7: 3, 8: 2, 9: 2, 10: 2, 11: 2, 12: 32,
                13: 1, 14: 1, 15: 1, 16: 1, 17: 1, 18: 1, 19: 1, 20: 1}
MOVE_TRIALS = 1750
MOVE_BASE_CROSSINGS = (1, 6)
MOVES_PER_TRIAL = (1, 6)
ORACLE_CODES = 210
ORACLE_CROSSINGS = (6, 10)

# A pass is (crossing id, kind, frame): kind "O", "U" or "V"; frame is the
# virtual frame bit and False on classical passes.
Pass = Tuple[int, str, bool]


class Code:
    """Mutable diagram code mirroring the token syntax of ``.vkd`` files."""

    def __init__(self, passes: List[Pass], signs: Dict[int, int]):
        self.passes = passes
        self.signs = signs

    def text(self) -> str:
        out = []
        for cid, kind, frame in self.passes:
            if kind == "V":
                out.append(f"V{cid}{'x' if frame else 'y'}")
            else:
                out.append(f"{kind}{cid}{'+' if self.signs[cid] > 0 else '-'}")
        return " ".join(out)

    def crossings(self) -> int:
        return len(self.passes) // 2


def random_pairing_code(rng: random.Random, n: int, p_virtual: float) -> Code:
    """Uniform random chord diagram on 2n slots with random decorations."""
    order = list(range(2 * n))
    rng.shuffle(order)
    passes: List[Optional[Pass]] = [None] * (2 * n)
    signs: Dict[int, int] = {}
    for cid in range(1, n + 1):
        i, j = order[2 * cid - 2], order[2 * cid - 1]
        if rng.random() < p_virtual:
            passes[i], passes[j] = (cid, "V", True), (cid, "V", False)
        else:
            first, second = ("O", "U") if rng.random() < 0.5 else ("U", "O")
            passes[i], passes[j] = (cid, first, False), (cid, second, False)
            signs[cid] = rng.choice((1, -1))
    return Code(passes, signs)  # type: ignore[arg-type]


def crossing_classes(tokens: List[str]) -> Dict[int, str]:
    """Crossing id -> "virtual", "even" or "odd" for a token list.

    A classical crossing is odd iff an odd number of classical passes lie
    strictly between its two passes (virtual passes are not counted).
    """
    classes: Dict[int, str] = {}
    first_seen: Dict[int, int] = {}
    k = 0
    for tok in tokens:
        cid = int(tok[1:-1])
        if tok[0] == "V":
            classes[cid] = "virtual"
            continue
        if cid in first_seen:
            classes[cid] = "odd" if (k - first_seen[cid] - 1) % 2 else "even"
        else:
            first_seen[cid] = k
        k += 1
    return classes


def count_classes(text: str) -> Dict[str, int]:
    counts = {"even": 0, "odd": 0, "virtual": 0}
    for cls in crossing_classes(text.split()).values():
        counts[cls] += 1
    return counts


# -- moves ------------------------------------------------------------------
# Move tuples follow the documented ``diagram.apply_move`` syntax; the model
# below applies them the same way so later moves can name valid arcs and
# removal sites.


def _fresh(code: Code, k: int) -> List[int]:
    top = max((p[0] for p in code.passes), default=0)
    return [top + i + 1 for i in range(k)]


def _insert(code: Code, sites: List[Tuple[int, List[Pass]]]) -> None:
    n = len(code.passes)
    placed: Dict[int, List[Pass]] = {}
    for arc, block in sites:
        placed.setdefault(arc % n if n else 0, []).extend(block)
    for pos in sorted(placed, reverse=True):
        code.passes[pos:pos] = placed[pos]


def _positions(code: Code, cid: int) -> List[int]:
    return [i for i, p in enumerate(code.passes) if p[0] == cid]


def _adjacent(n: int, i: int, j: int) -> bool:
    return (i + 1) % n == j or (j + 1) % n == i


def _pairing(code: Code, c: int, d: int):
    pc, pd = _positions(code, c), _positions(code, d)
    n = len(code.passes)
    for i, j in ((0, 1), (1, 0)):
        if _adjacent(n, pc[0], pd[i]) and _adjacent(n, pc[1], pd[j]):
            return (pc[0], pd[i]), (pc[1], pd[j])
    return None


def removal_moves(code: Code) -> List[tuple]:
    """Every R1/V1/R2/V2 removal whose local pattern is present."""
    n = len(code.passes)
    ids = sorted({p[0] for p in code.passes})
    out: List[tuple] = []
    for cid in ids:
        i, j = _positions(code, cid)
        if _adjacent(n, i, j):
            out.append(("r1_remove" if cid in code.signs else "v1_remove", cid))
    for a, c in enumerate(ids):
        for d in ids[a + 1:]:
            pair = _pairing(code, c, d)
            if pair is None:
                continue
            kinds = [{code.passes[x][1] for x in pr} for pr in pair]
            if c in code.signs and d in code.signs:
                if code.signs[c] + code.signs[d] == 0 and \
                        sorted(map(sorted, kinds)) == [["O"], ["U"]]:
                    out.append(("r2_remove", c, d))
            elif c not in code.signs and d not in code.signs:
                if sum(code.passes[x][2] for x in pair[0]) == 1:
                    out.append(("v2_remove", c, d))
    return out


def apply(code: Code, move: tuple) -> None:
    kind = move[0]
    if kind.endswith("_remove"):
        drop = set(move[1:])
        code.passes = [p for p in code.passes if p[0] not in drop]
        for cid in drop:
            code.signs.pop(cid, None)
        return
    if kind == "r1_insert":
        _, arc, side, sign = move
        (c,) = _fresh(code, 1)
        block = [(c, "O", False), (c, "U", False)]
        _insert(code, [(arc, block if side == "o" else block[::-1])])
        code.signs[c] = sign
    elif kind == "v1_insert":
        (c,) = _fresh(code, 1)
        first = len(move) < 3
        _insert(code, [(move[1], [(c, "V", first), (c, "V", not first)])])
    elif kind == "r2_insert":
        _, arc1, arc2, variant = move
        c, d = _fresh(code, 2)
        k1, k2 = ("O", "U") if variant[1] == "o" else ("U", "O")
        site2 = [(c, k2, False), (d, k2, False)]
        _insert(code, [(arc1, [(c, k1, False), (d, k1, False)]),
                       (arc2, site2 if variant[0] == "p" else site2[::-1])])
        lead = 1 if variant[2] == "+" else -1
        code.signs[c], code.signs[d] = lead, -lead
    elif kind == "v2_insert":
        c, d = _fresh(code, 2)
        site2 = [(c, "V", False), (d, "V", True)]
        _insert(code, [(move[1], [(c, "V", True), (d, "V", False)]),
                       (move[2], site2 if len(move) < 4 else site2[::-1])])
    else:
        raise ValueError(f"unknown move {move!r}")


def random_move(rng: random.Random, code: Code) -> tuple:
    n = code.crossings()
    removals = [m for m in removal_moves(code) if n > len(m) - 1]
    if removals and (n >= 10 or rng.random() < 0.35):
        return rng.choice(removals)
    arcs = max(len(code.passes), 1)
    a1, a2 = rng.randint(1, arcs), rng.randint(1, arcs)
    kind = rng.choice(("r1", "v1", "r2", "v2"))
    if kind == "r1":
        return ("r1_insert", a1, rng.choice("ou"), rng.choice((1, -1)))
    if kind == "v1":
        return ("v1_insert", a1) if rng.random() < 0.5 else ("v1_insert", a1, "y")
    if kind == "r2":
        return ("r2_insert", a1, a2,
                rng.choice("pa") + rng.choice("ou") + rng.choice("+-"))
    return ("v2_insert", a1, a2) if rng.random() < 0.5 else ("v2_insert", a1, a2, "anti")


# -- per-workload input files ----------------------------------------------------


def _vkd(entries: List[Tuple[str, str]]) -> str:
    return "".join(f"name: {name}\ncode: {text}\n" for name, text in entries)


def _dense_core(rng: random.Random) -> Dict[str, str]:
    entries = []
    for i in range(DENSE_CODES):
        want = DENSE_EVEN[i % len(DENSE_EVEN)]
        while True:
            n = rng.randint(*DENSE_CROSSINGS)
            text = random_pairing_code(rng, n, P_VIRTUAL).text()
            if count_classes(text)["even"] == want:
                break
        entries.append((f"d{i:03d}-n{n}-e{want}", text))
    return {"dense-core.vkd": _vkd(entries)}


def _realized_gauss(rng: random.Random) -> Dict[str, str]:
    lines = []
    for n, count in GAUSS_LADDER.items():
        for k in range(count):
            order = list(range(2 * n))
            rng.shuffle(order)
            toks = [""] * (2 * n)
            for cid in range(1, n + 1):
                sign = rng.choice("+-")
                toks[order[2 * cid - 2]] = f"O{cid}{sign}"
                toks[order[2 * cid - 1]] = f"U{cid}{sign}"
            lines.append(f"g{n:02d}-{k}\t{''.join(toks)}\n")
    # mixed sizes, so each block's ops are spread over the whole run and see
    # the machine's average speed rather than one stretch of it
    rng.shuffle(lines)
    return {"realized-gauss.gauss": "".join(lines)}


def _move_trials(rng: random.Random) -> Dict[str, str]:
    entries, moves = [], []
    for t in range(MOVE_TRIALS):
        code = random_pairing_code(rng, rng.randint(*MOVE_BASE_CROSSINGS), P_VIRTUAL)
        name = f"t{t:03d}"
        entries.append((name, code.text()))
        seq = []
        for _ in range(rng.randint(*MOVES_PER_TRIAL)):
            mv = random_move(rng, code)
            apply(code, mv)
            seq.append(list(mv))
        moves.append(f"{name}\t{json.dumps(seq)}\n")
    return {"move-trials.vkd": _vkd(entries), "move-trials.moves": "".join(moves)}


def _oracle_suites(rng: random.Random) -> Dict[str, str]:
    entries = [(f"o{i:03d}",
                random_pairing_code(rng, rng.randint(*ORACLE_CROSSINGS), P_VIRTUAL).text())
               for i in range(ORACLE_CODES)]
    return {"oracle-suites.vkd": _vkd(entries)}


WORKLOADS = {
    "dense-core": _dense_core,
    "realized-gauss": _realized_gauss,
    "move-trials": _move_trials,
    "oracle-suites": _oracle_suites,
}


def make_inputs(workload: str, seed: int) -> Dict[str, str]:
    """File name -> file text for one workload; a pure function of the seed."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def write_inputs(workload: str, seed: int) -> Dict[str, Path]:
    GENERATED.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in make_inputs(workload, seed).items():
        path = GENERATED / f"s{seed}-{name}"
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
        paths[name] = path
    return paths


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    for path in write_inputs(args.workload, args.seed).values():
        print(path)


if __name__ == "__main__":
    main()
