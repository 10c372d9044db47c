"""Timing and count wrappers around the program's public functions.

``Tracer.install`` replaces each traced function in every ``paritypoly``
module namespace that holds it (``from .diagram import parity`` copies the
name, so patching ``paritypoly.diagram`` alone would miss callers), and the
traced ``LaurentPoly`` methods on the class.  ``uninstall`` restores them.

Per name the tracer keeps calls, inclusive time and self time (inclusive
minus the time of traced calls made inside it).  Spans of the coarse layers
(every op and every name in ``SPANS``) are kept in memory with their parent
span and written out by ``write_spans``; the high-frequency names are only
aggregated.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

# (module, attribute, metric name)
FUNCTIONS = [
    ("diagram", "parse_vkd", "diagram.parse"),
    ("realize", "parse_gauss_file", "diagram.parse"),
    ("diagram", "validate", "diagram.validate"),
    ("diagram", "parity", "diagram.parity"),
    ("diagram", "apply_move", "diagram.move"),
    ("realize", "realize", "realize.realize"),
    ("foxcalc", "fox_derivative", "foxcalc.fox"),
    ("alexander", "build_matrix_A", "alexander.build"),
    ("alexander", "determinant", "alexander.det"),
    ("alexander", "build_full_matrix_M", "alexander.full_matrix"),
    ("alexander", "skein_matrices", "alexander.skein"),
    ("alexander", "gcd_of_minors", "alexander.minors_gcd"),
    ("alexander", "poly_gcd", "alexander.poly_gcd"),
    ("verify", "suite_skein", "verify.skein"),
    ("verify", "suite_oddswitch", "verify.oddswitch"),
    ("verify", "suite_foxid", "verify.foxid"),
    ("verify", "suite_prop1", "verify.prop1"),
]
METHODS = [
    ("__mul__", "laurent.mul"),
    ("__rmul__", "laurent.mul"),
    ("exact_div", "laurent.exact_div"),
    ("canonicalize", "laurent.canonicalize"),
    ("to_text", "laurent.render"),
    ("to_json_terms", "laurent.render"),
]
SPANS = {"op", "diagram.parse", "diagram.parity", "diagram.move", "realize.realize",
         "alexander.build", "alexander.det", "alexander.full_matrix",
         "alexander.skein", "alexander.minors_gcd", "verify.skein",
         "verify.oddswitch", "verify.foxid", "verify.prop1"}


def _terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


# metric name -> function(args, result) -> {counter: increment}
COUNTERS: Dict[str, Callable] = {
    "realize.realize": lambda a, r: {
        "realize.virtual_crossings": sum(p.kind == "V" for p in r.passes) // 2},
    "alexander.build": lambda a, r: {
        "alexander.matrix_rows": len(r.rows),
        "alexander.matrix_nnz": sum(len(row) for row in r.rows)},
    "laurent.mul": lambda a, r: {"laurent.mul_term_products": _terms(a[0]) * _terms(a[1])},
    "laurent.exact_div": lambda a, r: {"laurent.exact_div_quotient_terms": len(r.terms)},
    # to_text and to_json_terms share the name; count rendered terms once
    "laurent.render": lambda a, r: {
        "laurent.result_terms": len(a[0].terms) if isinstance(r, str) else 0},
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.spans: List[tuple] = []
        self._child: List[float] = []     # child time of each open call
        self._open_spans: List[int] = []  # indices of open spans
        self._saved: List[tuple] = []
        self.label = ""                   # label of the op being run
        self.record_spans = True

    def reset(self) -> None:
        for d in (self.calls, self.total, self.self_time, self.counts):
            d.clear()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn under a traced call named name."""
        child, spans = self._child, self._open_spans
        span = None
        if self.record_spans and name in SPANS:
            span = len(self.spans)
            self.spans.append(None)
            spans.append(span)
        child.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            inner = child.pop()
            if child:
                child[-1] += dt
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dt
            self.self_time[name] = self.self_time.get(name, 0.0) + dt - inner
            if span is not None:
                spans.pop()
                self.spans[span] = (name, self.label, spans[-1] if spans else None,
                                    t0, dt, dt - inner)
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, inc in counter(args, result).items():
                self.counts[key] = self.counts.get(key, 0) + inc
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "paritypoly" or n.startswith("paritypoly."))]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"paritypoly.{mod_name}"], attr)
            traced = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, traced)
        cls = sys.modules["paritypoly.laurent"].LaurentPoly
        for attr, name in METHODS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, label, parent, start, dur, own in self.spans:
                f.write(json.dumps({"name": name, "op": label, "parent": parent,
                                    "start_s": start, "dur_s": dur, "self_s": own}) + "\n")
