"""Batch command line: check, unfold, translate, render, and search.

Exit codes: 0 on success, 1 on a logical failure (an invalid proof, an
unprovable goal), 2 on malformed input.  This module holds the argument
parser, ``check`` and the file loader; the other commands, and the
writers they emit with, live in :mod:`nwproofs.commands`, which
:func:`main` imports only to run one of them.  So ``check`` loads just
the parser of the file format and the checker.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .calculus import CalculusError, check_proof_graph
from .coalgebra import BudgetError, BudgetExceeded, CoalgebraError
from .graphfile import GraphFileError, parse_proof_file
from .grz.rules import CALCULI, GRZ
from .syntax import ParseError
from .trees import TreeError


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise GraphFileError(f"cannot read {path}: {err}") from None
    return parse_proof_file(text)


def _cmd_check(args) -> int:
    paths = [args.file] if args.file else []
    if args.all:
        paths.extend(str(p) for p in sorted(Path(args.all).glob("*.proof")))
    if not paths:
        print("error: nothing to check", file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        name, pg = _load(path)
        report = check_proof_graph(CALCULI[name], pg)
        if report.ok:
            print(f"{path}: ok ({len(pg.states)} states)")
        else:
            failed = True
            for finding in report.findings:
                print(f"{path}: {finding}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nwproofs",
        description="check, unfold, translate, render, and search regular non-wellfounded proofs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check proof graph files")
    p.add_argument("file", nargs="?", help="a .proof file")
    p.add_argument("--all", metavar="DIR", help="check every .proof file in a directory")

    p = sub.add_parser("unfold", help="print a depth-bounded unfolding")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--max-nodes", type=int, default=100_000)
    p.add_argument("-o", "--output")

    p = sub.add_parser("cutelim", help="translate a proof with cuts into a cut-free one")
    p.add_argument("file")
    p.add_argument("--max-states", type=int, default=256)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--max-nodes", type=int, default=200_000)
    p.add_argument("--no-memo", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("translate", help="extend a named translation step")
    p.add_argument("file")
    p.add_argument("--step", required=True, choices=["identity", "cut-elim"])
    p.add_argument("--max-states", type=int, default=256)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--max-nodes", type=int, default=200_000)
    p.add_argument("--no-memo", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("render", help="emit a DOT rendering")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="accepted for clarity; DOT is the only format")
    p.add_argument("-o", "--output")

    p = sub.add_parser("search", help="bounded proof search for a sequent")
    p.add_argument("sequent", help="e.g. 'box p0 |- box p0'")
    p.add_argument("--calculus", choices=sorted(CALCULI), default=GRZ.name)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--states", type=int, default=16)
    p.add_argument("--cut-formulas", help="semicolon-separated formulas for the cut rule")
    p.add_argument("--seed", type=int, help="shuffle each sub-search's rule choices once, by this seed")
    p.add_argument("-o", "--output")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        from .commands import COMMANDS

        return COMMANDS[args.command](args)
    except (GraphFileError, ParseError, TreeError, CalculusError, CoalgebraError, BudgetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
