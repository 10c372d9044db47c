"""The four workloads: how each parses its inputs, what one op is, and how
each op's output is checked.

Every op is a closure over parsed inputs that calls public functions of
``paritypoly``; ``check`` runs outside the timed region on the first round's
outputs, and later rounds compare ``digest`` against the first round.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List

import checks
import gen


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    digest: Callable[[object], object]


def invariant_problems(pp: SimpleNamespace, code, res, rng: random.Random) -> List[str]:
    """Checks shared by every op that returns an ``InvariantResult``."""
    terms = res.canonical.terms
    out = checks.canonical_problems(terms)
    unit = res.unit.terms
    if len(unit) != 1 or abs(next(iter(unit.values()))) != 1:
        out.append(f"unit {res.unit.to_text()} is not a signed monomial")
    if (res.q_width, res.h_width) != (checks.width(terms, 2), checks.width(terms, 3)):
        out.append(f"widths {res.q_width},{res.h_width} disagree with the terms")
    own = gen.count_classes(code.to_text())
    if (res.n_even, res.n_odd, res.n_virtual) != (own["even"], own["odd"], own["virtual"]):
        out.append(f"crossing counts {res.n_even},{res.n_odd},{res.n_virtual} != {own}")
    matrix = pp.alexander.build_matrix_A(code)
    point = checks.Point(rng)
    rows = [{c: point.poly(v.terms) for c, v in r.items()} for r in matrix.rows]
    if checks.det_mod_p(rows, matrix.cols) != point.poly(terms) * point.poly(unit) % checks.P:
        out.append("canonical * unit != det(A) at a random point mod 2^61-1")
    return out


def _vkd(pp, path: Path):
    return pp.diagram.parse_vkd(path.read_text(encoding="utf-8"))


# -- dense-core ----------------------------------------------------------------


def dense_core_load(pp, paths):
    return _vkd(pp, paths["dense-core.vkd"])


def dense_core_ops(pp, inputs, rng) -> List[Op]:
    al = pp.alexander

    def op(name, code):
        def run():
            res = al.parity_alexander(code)
            return res, res.canonical.to_text()
        return Op(name, run, lambda out: invariant_problems(pp, code, out[0], rng),
                  lambda out: out[1])

    return [op(name, code) for name, code in inputs]


# -- realized-gauss --------------------------------------------------------------


def realized_gauss_load(pp, paths):
    return pp.realize.parse_gauss_file(paths["realized-gauss.gauss"].read_text(encoding="utf-8"))


def realized_gauss_ops(pp, inputs, rng) -> List[Op]:
    al, rz = pp.alexander, pp.realize

    def op(name, g):
        def run():
            code = rz.realize(g)
            res = al.parity_alexander(code)
            v_low, o_low = al.crossing_bounds(res.canonical)
            record = {
                "name": name,
                "crossings": {"even": res.n_even, "odd": res.n_odd, "virtual": res.n_virtual},
                "polynomial": {"text": res.canonical.to_text(),
                               "terms": res.canonical.to_json_terms()},
                "widths": {"q": res.q_width, "h": res.h_width},
                "bounds": {"virtual_at_least": v_low, "odd_at_least": o_low},
            }
            return code, res, json.dumps(record, sort_keys=True)

        def check(out):
            code, res, line = out
            problems = invariant_problems(pp, code, res, rng)
            rec = json.loads(line)
            own = gen.count_classes(code.to_text())
            bounds = rec["bounds"]
            if bounds["virtual_at_least"] is not None and bounds["virtual_at_least"] > own["virtual"]:
                problems.append(f"virtual bound {bounds['virtual_at_least']} > {own['virtual']}")
            if bounds["odd_at_least"] is not None and bounds["odd_at_least"] > own["odd"]:
                problems.append(f"odd bound {bounds['odd_at_least']} > {own['odd']}")
            terms = {(t["s"], t["t"], t["q"], t["h"]): t["c"] for t in rec["polynomial"]["terms"]}
            if terms != res.canonical.terms:
                problems.append("JSON terms differ from the canonical polynomial")
            other = al.parity_alexander(rz.realize(g, strategy=1)).canonical
            if other != res.canonical:
                problems.append(f"realize strategy 1 gives {other.to_text()}")
            return problems

        return Op(name, run, check, lambda out: out[2])

    return [op(name, g) for name, g in inputs]


# -- move-trials -------------------------------------------------------------------


def move_trials_load(pp, paths):
    codes = _vkd(pp, paths["move-trials.vkd"])
    moves = {}
    for line in paths["move-trials.moves"].read_text(encoding="utf-8").splitlines():
        name, seq = line.split("\t")
        moves[name] = [tuple(m) for m in json.loads(seq)]
    return [(name, code, moves[name]) for name, code in codes]


def move_trials_ops(pp, inputs, rng) -> List[Op]:
    al, dg = pp.alexander, pp.diagram
    ops: List[Op] = []
    for name, base, moves in inputs:
        trial = {"code": base, "base": None}

        def run_base(trial=trial, base=base):
            trial["code"] = base
            res = al.parity_alexander(base)
            return base, res, res.canonical.to_text()

        def check_base(out, trial=trial):
            trial["base"] = out[1].canonical
            return invariant_problems(pp, out[0], out[1], rng)

        ops.append(Op(f"{name}/base", run_base, check_base, lambda out: out[2]))
        for j, move in enumerate(moves):
            def run_move(trial=trial, move=move):
                code = trial["code"] = dg.apply_move(trial["code"], move)
                res = al.parity_alexander(code)
                return code, res, res.canonical.to_text()

            def check_move(out, trial=trial, move=move):
                problems = invariant_problems(pp, out[0], out[1], rng)
                if out[1].canonical != trial["base"]:
                    problems.append(f"move {move!r} changed the invariant to {out[2]}")
                return problems

            ops.append(Op(f"{name}/move{j}", run_move, check_move, lambda out: out[2]))
    return ops


# -- oracle-suites -------------------------------------------------------------------


def oracle_suites_load(pp, paths):
    return _vkd(pp, paths["oracle-suites.vkd"])


def _report_problems(report) -> List[str]:
    return [f"{label}: {detail}" for label, ok, detail in report.checks if not ok]


def oracle_suites_ops(pp, inputs, rng) -> List[Op]:
    vf = pp.verify
    summary = lambda report: report.summary()
    ops = [Op("prop1", lambda: vf.suite_prop1(()), _report_problems, summary)]
    for name, code in inputs:
        one = [(name, code)]
        ops += [
            Op(f"{name}/skein", lambda one=one: vf.suite_skein(one), _report_problems, summary),
            Op(f"{name}/oddswitch", lambda one=one: vf.suite_oddswitch(one),
               _report_problems, summary),
            Op(f"{name}/foxid", lambda one=one: vf.suite_foxid(one, trials=0),
               _report_problems, summary),
        ]
    return ops


WORKLOADS: Dict[str, tuple] = {
    "dense-core": (dense_core_load, dense_core_ops),
    "realized-gauss": (realized_gauss_load, realized_gauss_ops),
    "move-trials": (move_trials_load, move_trials_ops),
    "oracle-suites": (oracle_suites_load, oracle_suites_ops),
}
