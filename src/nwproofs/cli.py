"""Batch command line: check, unfold, translate, render, and search.

Exit codes: 0 on success, 1 on a logical failure (an invalid proof, an
unprovable goal), 2 on malformed input.  Only the commands that unfold,
rewrite or search import that machinery, so ``check`` loads just the
checker.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .calculus import CalculusError, check_proof_graph
from .coalgebra import BudgetError, BudgetExceeded, CoalgebraError, UnfoldBudget
from .graphfile import GraphFileError, parse_proof_file, print_proof_file, to_dot
from .grz.rules import CALCULI, GRZ, GRZ_CUT
from .syntax import ParseError, parse_formula, parse_sequent, print_sequent
from .trees import TreeError, Truncation, format_word


def _load(path: str):
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise GraphFileError(f"cannot read {path}: {err}") from None
    return parse_proof_file(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    paths = [args.file] if args.file else []
    if args.all:
        paths.extend(str(p) for p in sorted(Path(args.all).glob("*.proof")))
    if not paths:
        print("nothing to check", file=sys.stderr)
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


def _print_unfolding(res) -> str:
    lines = []
    tree = res.tree
    for w in sorted(tree.nodes):
        label = tree.label(w)
        mark = " [root]" if tree.frag_root(w) == w else ""
        if isinstance(label, Truncation):
            lines.append(f"{format_word(w)}  ... -> {label.target}{mark}")
        else:
            sequent, rule = label
            lines.append(f"{format_word(w)}  {print_sequent(sequent)} : {rule}{mark}")
    return "\n".join(lines) + "\n"


def _cmd_unfold(args) -> int:
    from .fftree import unfold

    name, pg = _load(args.file)
    res = unfold(pg.graph, pg.root, UnfoldBudget(args.depth, args.max_nodes))
    _emit(_print_unfolding(res), args.output)
    return 0


def _cmd_cutelim(args) -> int:
    from .grz.cutelim import cut_elimination_step

    name, pg = _load(args.file)
    if name != GRZ_CUT.name:
        print(f"cutelim expects a {GRZ_CUT.name} file, got {name}", file=sys.stderr)
        return 2
    return _extend_and_emit(args, pg, cut_elimination_step(), GRZ.name, print_bound=True)


def _cmd_translate(args) -> int:
    from .grz.cutelim import cut_elimination_step
    from .translate import identity_step

    name, pg = _load(args.file)
    if args.step == "identity":
        return _extend_and_emit(args, pg, identity_step(CALCULI[name]), name)
    if name != GRZ_CUT.name:
        print(f"the cut-elim step expects a {GRZ_CUT.name} file", file=sys.stderr)
        return 2
    return _extend_and_emit(args, pg, cut_elimination_step(), GRZ.name)


def _extend_and_emit(args, pg, step, target_name: str, print_bound: bool = False) -> int:
    """Extend ``step`` over ``pg`` within the budgets of ``args``, report
    whether it closed and emit the proof file or the unfolding; with
    ``print_bound`` an open result also reports the state bound.  A broken
    step contract or an input that is no source proof exits 1."""
    from .fftree import Unfolding
    from .translate import NotASourceProof, StepContractViolation, extend

    budget = UnfoldBudget(args.depth, args.max_nodes)
    try:
        out = extend(step, pg, budget, memo=not args.no_memo, max_states=args.max_states)
    except (StepContractViolation, NotASourceProof) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if isinstance(out, Unfolding):
        print("closed: no")
        if print_bound:
            print(f"states: >{args.max_states}")
        _emit(_print_unfolding(out), args.output)
    else:
        print("closed: yes")
        print(f"states: {len(out.states)}")
        _emit(print_proof_file(out, target_name), args.output)
    return 0


def _cmd_render(args) -> int:
    name, pg = _load(args.file)
    _emit(to_dot(pg), args.output)
    return 0


def _cmd_search(args) -> int:
    from .search import SearchBudget, search

    goal = parse_sequent(args.sequent)
    calc = CALCULI[args.calculus]
    cut_pool = None
    if args.cut_formulas:
        cut_pool = frozenset(
            parse_formula(part) for part in args.cut_formulas.split(";") if part.strip()
        )
    rng = random.Random(args.seed) if args.seed is not None else None
    budget = SearchBudget(args.height, args.states, cut_formulas=cut_pool)
    pg = search(calc, goal, budget, rng=rng)
    if pg is None:
        print("not found within budget")
        return 1
    _emit(print_proof_file(pg, args.calculus), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nwproofs",
        description="check, unfold, translate, render, and search regular non-wellfounded proofs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check proof graph files")
    p.add_argument("file", nargs="?", help="a .proof file")
    p.add_argument("--all", metavar="DIR", help="check every .proof file in a directory")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("unfold", help="print a depth-bounded unfolding")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--max-nodes", type=int, default=100_000)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_unfold)

    p = sub.add_parser("cutelim", help="translate a proof with cuts into a cut-free one")
    p.add_argument("file")
    p.add_argument("--max-states", type=int, default=256)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--max-nodes", type=int, default=200_000)
    p.add_argument("--no-memo", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_cutelim)

    p = sub.add_parser("translate", help="extend a named translation step")
    p.add_argument("file")
    p.add_argument("--step", required=True, choices=["identity", "cut-elim"])
    p.add_argument("--max-states", type=int, default=256)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--max-nodes", type=int, default=200_000)
    p.add_argument("--no-memo", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("render", help="emit a DOT rendering")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="accepted for clarity; DOT is the only format")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("search", help="bounded proof search for a sequent")
    p.add_argument("sequent", help="e.g. 'box p0 |- box p0'")
    p.add_argument("--calculus", choices=sorted(CALCULI), default=GRZ.name)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--states", type=int, default=16)
    p.add_argument("--cut-formulas", help="semicolon-separated formulas for the cut rule")
    p.add_argument("--seed", type=int, help="shuffle each sub-search's rule choices once, by this seed")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphFileError, ParseError, TreeError, CalculusError, CoalgebraError, BudgetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
