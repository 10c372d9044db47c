"""Self-tests of the benchmark: python3 -m pytest benchmark/test_benchmark.py"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

pp = run.import_program()


def test_inputs_are_a_function_of_the_seed():
    for name in gen.WORKLOADS:
        assert gen.make_inputs(name, 3) == gen.make_inputs(name, 3)
        assert gen.make_inputs(name, 3) != gen.make_inputs(name, 4)


def test_dense_core_codes_have_the_stated_even_counts():
    text = gen.make_inputs("dense-core", 1)["dense-core.vkd"]
    codes = [line[6:] for line in text.splitlines() if line.startswith("code: ")]
    names = [line[6:] for line in text.splitlines() if line.startswith("name: ")]
    for name, code in zip(names, codes):
        counts = gen.count_classes(code)
        assert f"-e{counts['even']}" in name
        lo, hi = gen.DENSE_CROSSINGS
        assert lo <= sum(counts.values()) <= hi


def test_move_model_agrees_with_apply_move():
    rng = random.Random(7)
    for _ in range(100):
        code = gen.random_pairing_code(rng, rng.randint(1, 6), gen.P_VIRTUAL)
        theirs = pp.diagram.parse_diagram(code.text())
        for _ in range(6):
            move = gen.random_move(rng, code)
            gen.apply(code, move)
            theirs = pp.diagram.apply_move(theirs, move)
            assert theirs.to_text() == code.text()


def test_det_mod_p_signs_and_zero():
    # [[0,1,0],[0,0,1],[1,0,0]] is an even permutation; swapping two rows makes it odd
    perm = [{"b": 1}, {"c": 1}, {"a": 1}]
    assert checks.det_mod_p(perm, ["a", "b", "c"]) == 1
    assert checks.det_mod_p([perm[1], perm[0], perm[2]], ["a", "b", "c"]) == checks.P - 1
    assert checks.det_mod_p([{"a": 2, "b": 4}, {"a": 1, "b": 2}], ["a", "b"]) == 0
    assert checks.det_mod_p([{"a": 2, "b": 3}, {"a": 5, "b": 7}], ["a", "b"]) == checks.P - 1


def _dense_ops(count=6):
    inputs = workloads.dense_core_load(pp, gen.write_inputs("dense-core", 5))[:count]
    return workloads.dense_core_ops(pp, inputs, random.Random(0))


def test_a_wrong_polynomial_is_a_failed_op():
    ops = _dense_ops()
    good = ops[2].run

    def wrong():
        res, _text = good()
        res.canonical = res.canonical + pp.laurent.LaurentPoly.term(1, 0, 0, 0, 1)
        return res, res.canonical.to_text()

    ops[2].run = wrong
    runner = run.Runner(ops)
    runner.round()
    runner.round()
    runner.check()
    assert (runner.attempted, runner.failed, runner.correct) == (12, 2, False)
    assert len(runner.latencies) == 10


def test_a_raising_op_is_failed_but_not_wrong():
    ops = _dense_ops(3)
    ops[1].run = lambda: 1 // 0
    runner = run.Runner(ops)
    runner.round()
    runner.check()
    assert (runner.attempted, runner.failed, runner.correct) == (3, 1, True)
    assert len(runner.latencies) == 2


def test_a_run_with_no_latency_samples_still_reports():
    ops = _dense_ops(2)
    for op in ops:
        op.run = lambda: 1 // 0
    runner = run.Runner(ops)
    wall = runner.round()
    runner.check()
    metrics = run.end_to_end(runner, [wall], [0.1], 1024)
    assert (runner.failed, metrics["ops_per_s"], metrics["latency_p90_ms"]) == (2, 0.0, None)


def test_correct_ops_pass_every_check():
    runner = run.Runner(_dense_ops())
    runner.round()
    runner.check()
    assert (runner.failed, runner.correct) == (0, True), runner.problems


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run.Runner(_dense_ops(4)).round(tracer=tracer)
        finally:
            tracer.uninstall()
        counts.append((tracer.calls, tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0][0]["laurent.mul"] > 0 and counts[0][1]["alexander.matrix_rows"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
