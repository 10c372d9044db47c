"""Pinned output of the `.gauss` path: what ``fixtures/golden_batch.jsonl``
holds and how each of its lines is recomputed.

The file has two kinds of JSON lines:

- ``{"batch": <fixture file>, "exit": <code>, "lines": [<record>, ...]}``:
  the records and exit code of ``paritypoly batch`` on each ``.gauss``
  fixture.
- ``{"source": ..., "gauss": <code text>, "strategy": 0 | 1,
  "code_sha256": <digest of realize(g, strategy).to_text()>,
  "record": <record>}``: every fixture line and 40 seeded random signed
  Gauss codes of 4-20 crossings, each realized both ways.  The record is
  the one ``batch`` prints for that realization.

The file was written once, by

    PYTHONPATH=src python tests/golden_batch.py > fixtures/golden_batch.jsonl

and holds the output of the source as it stood then.  A change that alters
a line changes the program's output: it is not mended by writing the file
again.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import Iterator, List, Tuple

from paritypoly import cli
from paritypoly.realize import gauss_lines, parse_gauss, realize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden_batch.jsonl"


def random_gauss_text(rng: random.Random, n: int) -> str:
    """A uniform random signed Gauss code of n crossings, as text."""
    order = list(range(2 * n))
    rng.shuffle(order)
    entries = [""] * (2 * n)
    for cid in range(1, n + 1):
        sign = rng.choice("+-")
        entries[order[2 * cid - 2]] = f"O{cid}{sign}"
        entries[order[2 * cid - 1]] = f"U{cid}{sign}"
    return "".join(entries)


def gauss_codes() -> Iterator[Tuple[str, str, str]]:
    """(source, name, code text) of every pinned Gauss code."""
    for path in sorted(FIXTURES.glob("*.gauss")):
        for lineno, name, body in gauss_lines(path.read_text(encoding="utf-8")):
            yield path.name, name or f"{path.stem}[{lineno}]", body
    rng = random.Random(20240)
    for i in range(40):
        yield "random", f"random[{i}]", random_gauss_text(rng, rng.randint(4, 20))


def batch_entry(path: Path) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["batch", str(path)])
    return {"batch": path.name, "exit": rc,
            "lines": [json.loads(line) for line in out.getvalue().splitlines()]}


def code_entry(source: str, name: str, text: str, strategy: int) -> dict:
    code = realize(parse_gauss(text), strategy)
    return {"source": source, "gauss": text, "strategy": strategy,
            "code_sha256": hashlib.sha256(code.to_text().encode()).hexdigest(),
            "record": cli._record(name, code)}


def entries() -> List[dict]:
    out = [batch_entry(path) for path in sorted(FIXTURES.glob("*.gauss"))]
    out += [code_entry(source, name, text, s)
            for source, name, text in gauss_codes() for s in (0, 1)]
    return out


if __name__ == "__main__":
    for entry in entries():
        sys.stdout.write(json.dumps(entry, sort_keys=True) + "\n")
