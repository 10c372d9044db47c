"""The `.gauss` and `.vkd` paths against their pinned output (see
golden_batch.py)."""

import json

from golden_batch import (
    GOLDEN, GOLDEN_VKD, FIXTURES, batch_entry, code_entry, gauss_codes, vkd_codes, vkd_entry,
)


def _golden(path=GOLDEN):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_batch_output_equals_the_pinned_lines():
    pinned = [e for e in _golden() if "batch" in e]
    assert [e["batch"] for e in pinned] == sorted(p.name for p in FIXTURES.glob("*.gauss"))
    for entry in pinned:
        assert batch_entry(FIXTURES / entry["batch"]) == entry


def test_realized_codes_and_records_equal_the_pinned_ones():
    pinned = [e for e in _golden() if "record" in e]
    codes = [(source, name, text, s) for source, name, text in gauss_codes() for s in (0, 1)]
    assert [(e["source"], e["gauss"], e["strategy"]) for e in pinned] == \
        [(source, text, s) for source, _name, text, s in codes]
    for entry, code in zip(pinned, codes):
        assert code_entry(*code) == entry, (entry["gauss"], entry["strategy"])


def test_vkd_codes_and_records_equal_the_pinned_ones():
    pinned = _golden(GOLDEN_VKD)
    codes = list(vkd_codes())
    assert [(e["source"], e["name"]) for e in pinned] == [(s, name) for s, name, _c in codes]
    for entry, code in zip(pinned, codes):
        assert vkd_entry(*code) == entry, entry["name"]
