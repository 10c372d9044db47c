"""Measure how much this machine's speed drifts, independent of paritypoly.

    python3 benchmark/drift.py --seconds 120 --chunk 10

Times a fixed pure-Python loop over and over for --seconds and reports the
spread (Q3 - Q1) / median of the per-chunk rates, where a chunk is --chunk
seconds of loop.  The benchmark's bounds cannot be tighter than the spread
this shows for a chunk as long as one benchmark run.
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter


def loop() -> int:
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return x


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=120)
    ap.add_argument("--chunk", type=float, default=10)
    args = ap.parse_args()
    rates, start = [], perf_counter()
    while perf_counter() - start < args.seconds:
        t0, n = perf_counter(), 0
        while perf_counter() - t0 < args.chunk:
            loop()
            n += 1
        rates.append(n / (perf_counter() - t0))
    q1, med, q3 = statistics.quantiles(rates, n=4)
    print(f"{len(rates)} chunks of {args.chunk:g} s: loops/s median {med:.2f}, "
          f"min {min(rates):.2f}, max {max(rates):.2f}, spread {(q3 - q1) / med:.3f}")


if __name__ == "__main__":
    main()
