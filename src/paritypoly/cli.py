"""Command line interface.

    paritypoly compute       [paths...] [--json]
    paritypoly bounds        [paths...] [--json]
    paritypoly verify SUITE  [paths...] [--trials N] [--seed S]
    paritypoly presentation  [paths...]
    paritypoly batch TABLE   [--out FILE]

Input files: ``.vkd`` diagram codes (possibly several per file, introduced
by ``name:`` lines) and ``.gauss`` classical signed Gauss codes (one per
line, ``name<TAB>code`` or bare), which are routed through the planar
realizer before the invariant is computed.

A command's options may come before, among or after its paths.

Exit codes: 0 success, 1 input or verification failure, 2 a usage error
(argparse's) or an internal error: the realizer hit a routing degeneracy
(``RealizationError``) or an oracle division was inexact
(``InexactDivision``); both are bugs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from .alexander import crossing_bounds, group_presentation, parity_alexander
from .diagram import DiagramCode, DiagramError, parse_vkd
from .laurent import InexactDivision
from .realize import (
    GaussError, RealizationError, SignedGaussCode, gauss_lines, parse_gauss, parse_gauss_line,
    realize,
)
from .verify import SUITES

Named = Tuple[str, DiagramCode]


def _read_text(path: Path) -> str:
    try:
        # drop a byte-order mark (utf-8-sig would give error offsets 3 bytes short)
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DiagramError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_path(path: Path) -> List[Named]:
    """Named codes of one file; an unnamed code is named by its index among
    the file's codes (.vkd) or by its line number (.gauss, as in batch)."""
    text = _read_text(path)
    if path.suffix == ".vkd":
        return [(name or f"{path.stem}[{i}]", code)
                for i, (name, code) in enumerate(parse_vkd(text))]
    if path.suffix == ".gauss":
        # every line is parsed before any is realized
        parsed = [(lineno, name or f"{path.stem}[{lineno}]", parse_gauss_line(lineno, body))
                  for lineno, name, body in gauss_lines(text)]
        return [(name, _realize_line(lineno, name, g)) for lineno, name, g in parsed]
    raise DiagramError(f"{path}: unknown input format (want .vkd or .gauss)")


def _realize_line(lineno: int, name: str, g: SignedGaussCode) -> DiagramCode:
    """realize, its error prefixed with the line number and the code's name."""
    try:
        return realize(g)
    except RealizationError as exc:
        raise RealizationError(f"line {lineno}: {name}: {exc}") from None


def load_paths(paths: List[str]) -> List[Named]:
    out: List[Named] = []
    for p in paths:
        out.extend(load_path(Path(p)))
    return out


def _record(name: str, code: DiagramCode) -> dict:
    res = parity_alexander(code)
    v_low, o_low = crossing_bounds(res.canonical)
    return {
        "name": name,
        "crossings": {"even": res.n_even, "odd": res.n_odd, "virtual": res.n_virtual},
        "polynomial": {"text": res.canonical.to_text(), "terms": res.canonical.to_json_terms()},
        "widths": {"q": res.q_width, "h": res.h_width},
        "bounds": {"virtual_at_least": v_low, "odd_at_least": o_low},
    }


def _print_records(args, text_line: Callable[[dict], str]) -> int:
    """One record per diagram, as JSON with --json, else as text_line(record)."""
    for name, code in load_paths(args.paths):
        rec = _record(name, code)
        print(json.dumps(rec, sort_keys=True) if args.json else text_line(rec))
    return 0


def cmd_compute(args) -> int:
    return _print_records(args, lambda rec: f"{rec['name']}: {rec['polynomial']['text']}")


def _fmt_width(w: Optional[int]) -> str:
    return "no information" if w is None else str(w)


def _bounds_line(rec: dict) -> str:
    w, b = rec["widths"], rec["bounds"]
    return (f"{rec['name']}: q-width {_fmt_width(w['q'])}, h-width {_fmt_width(w['h'])}, "
            f"virtual >= {_fmt_width(b['virtual_at_least'])}, "
            f"odd >= {_fmt_width(b['odd_at_least'])}")


def cmd_bounds(args) -> int:
    return _print_records(args, _bounds_line)


def cmd_verify(args) -> int:
    if args.trials < 0:
        print("error: --trials must be >= 0", file=sys.stderr)
        return 1
    diagrams = load_paths(args.paths)
    report = SUITES[args.suite](diagrams, args.trials, args.seed)
    for label, ok, detail in report.checks:
        if not ok:
            print(f"FAIL {label}" + (f"\n{detail}" if detail else ""))
        elif args.verbose:
            print(f"ok   {label}" + (f"  [{detail}]" if detail else ""))
    print(report.summary())
    return 0 if report.passed else 1


def cmd_presentation(args) -> int:
    diagrams = load_paths(args.paths)
    for name, code in diagrams:
        print(f"# {name}")
        print(group_presentation(code))
    return 0


def cmd_batch(args) -> int:
    """One JSON record per table line; a line that fails gets an error record
    and the stream goes on.  Exit 2 if any line hit an internal error, else
    1 if any line failed."""
    path = Path(args.table)
    text = _read_text(path)  # before --out is opened and truncated
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    failed = internal = False
    try:
        for lineno, name, body in gauss_lines(text):
            name = name or f"{path.stem}[{lineno}]"
            try:
                code = realize(parse_gauss(body))
                rec = _record(name, code)
            except (DiagramError, GaussError) as exc:
                rec = {"name": name, "line": lineno, "error": str(exc)}
                failed = True
            except RealizationError as exc:
                rec = {"name": name, "line": lineno, "error": str(exc)}
                internal = True
            print(json.dumps(rec, sort_keys=True), file=out)
    finally:
        if args.out:
            out.close()
    return 2 if internal else 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="paritypoly",
                                 description="Parity-aware Alexander-type invariant of virtual knot diagrams")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="canonical invariant per diagram")
    p.add_argument("paths", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compute, parser=p)

    p = sub.add_parser("bounds", help="widths and crossing-number lower bounds")
    p.add_argument("paths", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bounds, parser=p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("paths", nargs="*")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_verify, parser=p)

    p = sub.add_parser("presentation", help="print the group presentation")
    p.add_argument("paths", nargs="+")
    p.set_defaults(fn=cmd_presentation, parser=p)

    p = sub.add_parser("batch", help="stream JSON records for a .gauss table")
    p.add_argument("table")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_batch, parser=p)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        # argparse cannot intermix options and paths through subparsers, so
        # the command's own parser takes all of its arguments again; an
        # unknown option is still a usage error there (exit 2)
        args = args.parser.parse_intermixed_args(argv[1:])
    try:
        return args.fn(args)
    except (DiagramError, GaussError, OSError) as exc:  # OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RealizationError as exc:
        print(f"internal realization error: {exc}", file=sys.stderr)
        return 2
    except InexactDivision as exc:
        print(f"internal arithmetic error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
