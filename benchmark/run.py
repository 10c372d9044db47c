"""Benchmark of paritypoly: four closed-loop, single-thread workloads.

    python3 benchmark/run.py --workload dense-core --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` and nowhere else.  The run writes its seeded inputs
(``gen.py``), parses them with the program's parsers several times to time
set-up, then runs whole rounds of the workload's ops until ``--seconds`` of
measured time have passed.  After the timed rounds every op runs once more,
untimed, and that output is checked and compared with the timed rounds'
outputs.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-up is timed in two batches, one before and one after the measured
# rounds, each of at least SETUP_BATCH samples and SETUP_BATCH_SECONDS;
# setup_s is the median of all samples.  A ~50 ms import drifts by tens of
# percent within seconds, so one batch would sample a single stretch.
SETUP_BATCH = 4
SETUP_BATCH_SECONDS = 1.5
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
         for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())[key]}
MODULES = ("laurent", "foxcalc", "diagram", "realize", "alexander", "verify")

# per-layer metric -> (kind, traced name); kind "self"/"total" is time in ms
# per traced round, "calls" and "count" are per traced round.  Units come
# from BENCHMARK.json.
PER_LAYER = {
    "diagram.parse_ms": ("parse", "diagram.parse"),
    "diagram.validate_calls": ("calls", "diagram.validate"),
    "diagram.validate_ms": ("self", "diagram.validate"),
    "diagram.parity_ms": ("self", "diagram.parity"),
    "diagram.move_ms": ("self", "diagram.move"),
    "realize.realize_ms": ("self", "realize.realize"),
    "realize.virtual_crossings": ("count", "realize.virtual_crossings"),
    "foxcalc.fox_derivative_calls": ("calls", "foxcalc.fox"),
    "foxcalc.fox_ms": ("self", "foxcalc.fox"),
    "alexander.build_ms": ("self", "alexander.build"),
    "alexander.matrix_rows": ("count", "alexander.matrix_rows"),
    "alexander.matrix_nnz": ("count", "alexander.matrix_nnz"),
    "alexander.det_ms": ("self", "alexander.det"),
    "alexander.full_matrix_ms": ("self", "alexander.full_matrix"),
    "alexander.skein_ms": ("self", "alexander.skein"),
    "alexander.minors_gcd_ms": ("self", "alexander.minors_gcd"),
    "alexander.poly_gcd_calls": ("calls", "alexander.poly_gcd"),
    "laurent.mul_calls": ("calls", "laurent.mul"),
    "laurent.mul_term_products": ("count", "laurent.mul_term_products"),
    "laurent.mul_ms": ("self", "laurent.mul"),
    "laurent.exact_div_calls": ("calls", "laurent.exact_div"),
    "laurent.exact_div_quotient_terms": ("count", "laurent.exact_div_quotient_terms"),
    "laurent.exact_div_ms": ("self", "laurent.exact_div"),
    "laurent.canonicalize_calls": ("calls", "laurent.canonicalize"),
    "laurent.canonicalize_ms": ("self", "laurent.canonicalize"),
    "laurent.render_ms": ("self", "laurent.render"),
    "laurent.result_terms": ("count", "laurent.result_terms"),
    "verify.skein_ms": ("total", "verify.skein"),
    "verify.oddswitch_ms": ("total", "verify.oddswitch"),
    "verify.foxid_ms": ("total", "verify.foxid"),
    "verify.prop1_ms": ("total", "verify.prop1"),
}


class ProgramMissing(RuntimeError):
    pass


def import_program() -> SimpleNamespace:
    """Import paritypoly from this checkout's src/ (fresh if purged)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("paritypoly")
        importlib.import_module("paritypoly.verify")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import paritypoly from {SRC}: {exc}") from exc
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"paritypoly was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: sys.modules[f"paritypoly.{m}"] for m in MODULES})


def purge_program() -> None:
    for name in [n for n in sys.modules if n == "paritypoly" or n.startswith("paritypoly.")]:
        del sys.modules[name]


class Runner:
    """Runs timed rounds of ops, then checks every op once, untimed.

    The timed rounds keep each op's latency and the digest of its output.
    ``check`` runs afterwards: it runs every op again, checks that output,
    and compares its digest with the timed rounds'.  An op that raised,
    failed a check or gave differing outputs fails in every round and its
    latency samples are dropped.
    """

    def __init__(self, ops: List[workloads.Op]):
        self.ops = ops
        self.rounds = 0
        self.ref: List[object] = [None] * len(ops)
        self.changed = [False] * len(ops)
        self.raised: Dict[int, str] = {}
        self.samples: List[tuple] = []   # (op index, seconds)
        self.problems: Dict[int, str] = {}
        self.wrong: set = set()

    def round(self, tracer: Tracer | None = None) -> float:
        """One timed pass over all ops; returns its wall time."""
        first = self.rounds == 0
        start = perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.label = op.label
            t0 = perf_counter()
            try:
                out = tracer.call("op", op.run) if tracer is not None else op.run()
            except Exception as exc:  # an op that raises is a failed op
                self.raised.setdefault(i, f"{type(exc).__name__}: {exc}")
                continue
            dt = perf_counter() - t0
            digest = op.digest(out)
            if first:
                self.ref[i] = digest
            elif digest != self.ref[i]:
                self.changed[i] = True
            self.samples.append((i, dt))
        self.rounds += 1
        return perf_counter() - start

    def check(self) -> None:
        """Run and check every op once, outside the timed rounds."""
        for i, op in enumerate(self.ops):
            if i in self.raised:
                self.problems[i] = self.raised[i]
                continue
            try:
                out = op.run()
                problems = op.check(out)
                if op.digest(out) != self.ref[i]:
                    problems.append("output differs from the timed rounds'")
            except Exception as exc:
                problems = [f"check run raised {type(exc).__name__}: {exc}"]
            if self.changed[i]:
                problems.append("output differs between timed rounds")
            if problems:
                self.problems[i] = "; ".join(problems)
                self.wrong.add(i)

    @property
    def attempted(self) -> int:
        return self.rounds * len(self.ops)

    @property
    def failed(self) -> int:
        return self.rounds * len(self.problems)

    @property
    def correct(self) -> bool:
        return not self.wrong

    @property
    def latencies(self) -> List[float]:
        return [dt for i, dt in self.samples if i not in self.problems]


def set_up(load, paths, setups: List[float]):
    """Time one batch of set-ups into setups; return the last program and inputs."""
    times: List[float] = []
    while len(times) < SETUP_BATCH or sum(times) < SETUP_BATCH_SECONDS:
        purge_program()
        gc.collect()  # drop the previous import's modules before timing
        t0 = perf_counter()
        pp = import_program()
        inputs = load(pp, paths)
        times.append(perf_counter() - t0)
    setups.extend(times)
    return pp, inputs


def end_to_end(runner: Runner, walls: List[float], setups: List[float],
               peak_rss_kb: int) -> Dict[str, Optional[float]]:
    lat = sorted(runner.latencies)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else (lat or [None])[0]
    print(f"rounds {len(walls)}, measured {sum(walls):.2f} s, latency samples {len(lat)}, "
          f"{sum(1 for x in lat if x > p90)} beyond p90" if lat else "no latency samples")
    return {
        "ops_per_s": len(lat) / sum(walls),
        "latency_p50_ms": statistics.median(lat) * 1e3 if lat else None,
        "latency_p90_ms": p90 * 1e3 if lat else None,
        "peak_rss_mb": peak_rss_kb / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(rounds: List[dict], parse_ms: float, overhead_s: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, (kind, key) in PER_LAYER.items():
        if kind == "parse":
            out[name] = parse_ms
        elif kind in ("calls", "count"):
            out[name] = rounds[0][kind].get(key, 0)
        else:
            out[name] = statistics.median(r[kind].get(key, 0.0) for r in rounds) * 1e3
    out["trace.overhead_s"] = overhead_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paritypoly benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load, make_ops = workloads.WORKLOADS[args.workload]

    paths = gen.write_inputs(args.workload, args.seed)
    setups: List[float] = []
    try:
        pp, inputs = set_up(load, paths, setups)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops = make_ops(pp, inputs, random.Random(f"check/{args.workload}/{args.seed}"))
    runner = Runner(ops)

    if not args.trace:
        walls: List[float] = []
        while not walls or sum(walls) < args.seconds:
            walls.append(runner.round())
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        set_up(load, paths, setups)
        metrics = end_to_end(runner, walls, setups, peak_rss_kb)
    else:
        tracer = Tracer()
        tracer.install()
        t0 = perf_counter()
        load(pp, paths)
        parse_ms = (perf_counter() - t0) * 1e3
        tracer.uninstall()
        tracer.spans.clear()
        plain, traced, rounds = [runner.round()], [], []
        while not traced or sum(plain) + sum(traced) < args.seconds:
            tracer.reset()
            tracer.install()
            traced.append(runner.round(tracer=tracer))
            tracer.uninstall()
            tracer.record_spans = False
            rounds.append({"self": dict(tracer.self_time), "total": dict(tracer.total),
                           "calls": dict(tracer.calls), "count": dict(tracer.counts)})
            plain.append(runner.round())
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"{args.workload}-s{args.seed}.jsonl")
        print(f"traced rounds {len(traced)}, spans {len(tracer.spans)}")
        metrics = per_layer(rounds, parse_ms,
                            statistics.median(traced) - statistics.median(plain))
    runner.check()

    for i, why in sorted(runner.problems.items())[:10]:
        print(f"FAILED {ops[i].label}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
