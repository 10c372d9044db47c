"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload dense-core --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, for BENCHMARK.json's
``run_seconds``, and prints per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median,
plus the failed share.  Each run's result line goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    seconds = str(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    results = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        results.append(json.loads(line))
        print(f"seed {seed}: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(results)} runs, failed share "
          f"{sorted({r['failed'] / r['attempted'] for r in results})}, "
          f"correct {all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:34s} median {med:12.5g}  Q1 {q1:12.5g}  Q3 {q3:12.5g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
