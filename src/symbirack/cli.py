"""Command-line interface.

Subcommands: check, involutions, invariant, enhance, census, distinguish.
Exit status: 0 on success, 1 on validation failure (bad table content,
failed axioms, rho not a good involution), 2 on usage errors (bad
arguments, missing or unreadable files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .algebra import BirackTable, Permutation, check_axioms, enumerate_good_involutions, parse_birack_matrix
from .census import census_records, find_distinguishing_pairs, write_census
from .diagram import Diagram, builtin_diagrams, parse_diagram
from .invariants import (
    counting_invariant,
    format_framing,
    format_polynomial,
    symmetric_enhancement,
    tile_contributions,
)


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_table(path: str) -> BirackTable:
    return parse_birack_matrix(_read(path))


def _load_verified_table(path: str) -> BirackTable:
    t = _load_table(path)
    report = check_axioms(t)
    if not report.passed:
        raise ValueError(f"table fails axioms: {report}")
    return t


def _load_diagram(path: str) -> Diagram:
    return parse_diagram(_read(path))


def _parse_rho(text: str, n: int) -> Permutation:
    try:
        return Permutation.from_cycles(text, n)
    except ValueError as exc:
        raise _UsageError(f"bad permutation {text!r}: {exc}") from None


def _cmd_check(args: argparse.Namespace) -> int:
    t = _load_table(args.table)
    report = check_axioms(t)
    if report.passed:
        print(f"PASS  pi={t.kink.cycle_string()}  N={t.characteristic}")
        return 0
    print("FAIL")
    for v in report.violations:
        print(f"  {v.axiom} fails at witness ({','.join(str(e) for e in v.witness)})")
    return 1


def _cmd_involutions(args: argparse.Namespace) -> int:
    t = _load_verified_table(args.table)
    for rho in enumerate_good_involutions(t):
        print(rho.cycle_string())
    return 0


def _dump_labelings(entry) -> None:
    for i, lab in enumerate(entry.labelings, start=1):
        print(f"  labeling {i}:")
        for line in lab.lines():
            print(f"    {line}")


def _cmd_invariant(args: argparse.Namespace) -> int:
    t = _load_verified_table(args.table)
    d = _load_diagram(args.diagram)
    if args.verbose or args.kv:
        # reuse the tile walk; identity is always a good involution
        entries = tile_contributions(d, t, Permutation.identity(t.n))
        phi_z = sum(len(e.labelings) for e in entries)
        for e in entries:
            if args.kv:
                print(f"framing={format_framing(e.framing)}")
                print(f"count={len(e.labelings)}")
            else:
                print(f"w={format_framing(e.framing)} : {len(e.labelings)} labelings")
                if args.verbose:
                    _dump_labelings(e)
        print(f"phi_z={phi_z}" if args.kv else f"Phi_Z = {phi_z}")
    else:
        print(f"Phi_Z = {counting_invariant(d, t)}")
    return 0


def _cmd_enhance(args: argparse.Namespace) -> int:
    t = _load_verified_table(args.table)
    d = _load_diagram(args.diagram)
    rho = _parse_rho(args.rho, t.n)
    entries = tile_contributions(d, t, rho)  # rejects non-good involutions
    phi_z = sum(len(e.labelings) for e in entries)
    phi_rho = symmetric_enhancement(d, t, rho)
    for e in entries:
        poly = format_polynomial(e.polynomial)
        if args.kv:
            print(f"framing={format_framing(e.framing)}")
            print(f"poly={poly}")
            print(f"count={len(e.labelings)}")
        else:
            print(f"w={format_framing(e.framing)} : {poly} ({len(e.labelings)} labelings)")
            if args.verbose:
                _dump_labelings(e)
    if args.kv:
        print(f"phi_z={phi_z}")
        print(f"phi_rho={format_polynomial(phi_rho)}")
    else:
        print(f"Phi_Z = {phi_z}")
        print(f"Phi_rho = {format_polynomial(phi_rho)}")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    records = list(census_records(args.n, cap=args.cap))
    write_census(records, args.out)
    orders = f"orders 1..{args.n}" if args.n > 1 else "order 1"
    print(f"wrote {len(records)} tables ({orders}) to {args.out}")
    return 0


def _cmd_distinguish(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 1:
        raise _UsageError(f"--limit must be positive, got {args.limit}")
    corpus = dict(builtin_diagrams())
    if args.corpus:
        for path in sorted(Path(args.corpus).glob("*.vlink")):
            corpus[path.stem] = parse_diagram(path.read_text())
    records = census_records(args.n, cap=args.cap)
    witnesses = find_distinguishing_pairs(records, corpus, limit=args.limit)
    for i, w in enumerate(witnesses, start=1):
        print(f"witness {i}: order={w.table.n}  rho={w.rho.cycle_string()}  "
              f"{w.name_a} vs {w.name_b}  Phi_Z={w.phi_z}  "
              f"Phi_rho: {format_polynomial(w.poly_a)} vs {format_polynomial(w.poly_b)}")
        for row in zip(w.table.under, w.table.over, w.table.virt):
            print("    " + "  ".join(" ".join(str(e) for e in block) for block in row))
    if not witnesses:
        print("no witnesses found")
    else:
        print(f"found {len(witnesses)} witness(es)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbirack",
        description="Involutory virtual biracks: axioms, good involutions, "
                    "counting invariants and symmetric enhancements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the axioms of a table file")
    p.add_argument("table")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("involutions", help="list all good involutions of a table")
    p.add_argument("table")
    p.set_defaults(func=_cmd_involutions)

    p = sub.add_parser("invariant", help="counting invariant Phi_Z of a diagram")
    p.add_argument("table")
    p.add_argument("diagram")
    p.add_argument("--kv", action="store_true", help="machine-readable key-value output")
    p.add_argument("--verbose", action="store_true", help="dump labelings per framing")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("enhance", help="symmetric enhancement Phi_rho of a diagram")
    p.add_argument("table")
    p.add_argument("diagram")
    p.add_argument("--rho", required=True,
                   help='good involution in cycle notation, e.g. "(23)" or "()"')
    p.add_argument("--kv", action="store_true", help="machine-readable key-value output")
    p.add_argument("--verbose", action="store_true", help="dump labelings per framing")
    p.set_defaults(func=_cmd_enhance)

    p = sub.add_parser("census", help="enumerate all tables of order 1..n into a directory")
    p.add_argument("n", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--cap", type=int, default=4, help="order cap (default 4)")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("distinguish",
                       help="search census tables for diagram pairs with equal "
                            "Phi_Z but different Phi_rho")
    p.add_argument("n", type=int)
    p.add_argument("--corpus", help="directory of extra .vlink diagrams (added to builtins)")
    p.add_argument("--limit", type=int, help="stop after this many witnesses")
    p.add_argument("--cap", type=int, default=4, help="order cap (default 4)")
    p.set_defaults(func=_cmd_distinguish)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
