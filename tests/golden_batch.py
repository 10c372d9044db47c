"""Pinned output of the `.gauss` and `.vkd` paths: what
``fixtures/golden_batch.jsonl`` and ``fixtures/golden_vkd.jsonl`` hold and
how each of their lines is recomputed.

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

and holds the output of the source as it stood then.

``fixtures/golden_vkd.jsonl`` has one JSON line per code,
``{"source": ..., "name": ..., "code": <code text>, "record": <record>}``:
every code of the ``.vkd`` fixtures, named as ``compute`` names it, then
``random_code_of_size(random.Random(seed), 60)`` for seeds 1, 3, 4 and 5
(source ``"random"``, named ``random60[<seed>]``).  It was written once, by

    PYTHONPATH=src python tests/golden_batch.py vkd > fixtures/golden_vkd.jsonl

A change that alters a line of either file changes the program's output: it
is not mended by writing the file again.
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
from paritypoly.diagram import DiagramCode, random_code_of_size
from paritypoly.realize import gauss_lines, parse_gauss, realize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden_batch.jsonl"
GOLDEN_VKD = FIXTURES / "golden_vkd.jsonl"


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


def vkd_codes() -> Iterator[Tuple[str, str, DiagramCode]]:
    """(source, name, code) of every pinned diagram code."""
    for path in sorted(FIXTURES.glob("*.vkd")):
        for name, code in cli.load_path(path):
            yield path.name, name, code
    for seed in (1, 3, 4, 5):
        yield "random", f"random60[{seed}]", random_code_of_size(random.Random(seed), 60)


def vkd_entry(source: str, name: str, code: DiagramCode) -> dict:
    return {"source": source, "name": name, "code": code.to_text(),
            "record": cli._record(name, code)}


if __name__ == "__main__":
    vkd = sys.argv[1:] == ["vkd"]
    for entry in [vkd_entry(*c) for c in vkd_codes()] if vkd else entries():
        sys.stdout.write(json.dumps(entry, sort_keys=True) + "\n")
