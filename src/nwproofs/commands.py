"""Every command but ``check``, and the writers they emit with.

It holds the bodies of ``unfold``, ``cutelim``, ``translate``,
``render`` and ``search``, the sequent and unfolding printers, the
proof-file printer :func:`print_proof_file` and the DOT writer
:func:`to_dot`.
:func:`nwproofs.cli.main` imports this module only to run one of these
commands, so ``nwproofs check`` never loads it and none of it is part
of the trusted checking core.

Printing orders states by the coalgebra's root-first walk
(:func:`~nwproofs.coalgebra.root_first_order`), then any unreachable
states by name.  Formulas are printed with minimal parentheses and
multiset members in the canonical structural order, so printed files
are diff-stable and re-printing a parsed file reproduces it byte for
byte.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from .calculus import CalculusError, ProofGraph
from .cli import _load
from .coalgebra import root_first_order
from .graphfile import INDENT, GraphFileError
from .grz.formulas import Atom, Bot, Box, Formula, Imp, Sequent, mexpand
from .grz.rules import CALCULI, CUT, GRZ, GRZ_CUT
from .syntax import parse_formula, parse_sequent
from .trees import EPSILON, STAR, Truncation, format_word


def print_formula(f: Formula) -> str:
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Atom):
        return f"p{f.index}"
    if isinstance(f, Box):
        body = print_formula(f.body)
        return f"box ({body})" if isinstance(f.body, Imp) else f"box {body}"
    if isinstance(f, Imp):
        left = print_formula(f.left)
        if isinstance(f.left, Imp):
            left = f"({left})"
        return f"{left} -> {print_formula(f.right)}"
    raise TypeError(f"not a formula: {f!r}")


def print_sequent(s: Sequent) -> str:
    left = ", ".join(print_formula(f) for f in mexpand(s.ante))
    right = ", ".join(print_formula(f) for f in mexpand(s.succ))
    return f"{left} |- {right}".strip() if left else f"|- {right}".rstrip()


def _depths(arities: tuple[int, ...]) -> list[int]:
    """The depth of every node of a fragment, in preorder."""
    depths: list[int] = []
    upcoming = [0]  # the depths of the nodes still to come, next last
    for k in arities:
        depths.append(upcoming.pop())
        upcoming.extend([depths[-1] + 1] * k)
    return depths


def print_proof_file(pg: ProofGraph, calculus_name: str) -> str:
    if calculus_name not in CALCULI:
        raise GraphFileError(f"unknown calculus {calculus_name!r}")
    lines = [f"calculus {calculus_name}", f"root {pg.root}", ""]
    order = root_first_order(pg.graph, pg.root)
    # unreachable states still serialize, after the reachable ones
    for state in order + sorted(pg.states.difference(order)):
        lines.append(f"state {state}")
        frag, targets = pg.graph._dest[state]
        targets = iter(targets)
        # nodes in preorder, each indented one level more than its depth
        for label, depth in zip(frag.key[0], _depths(frag.key[1])):
            pad = INDENT * (depth + 1)
            if label is STAR:
                lines.append(f"{pad}link {next(targets)}")
            else:
                lines.append(f"{pad}{print_sequent(label[0])} : {label[1]}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def to_dot(pg: ProofGraph) -> str:
    """Graphviz rendering: one cluster per state, link edges dashed."""
    lines = ["digraph proof {", '  node [shape=box, fontname="monospace"];']
    escapes = str.maketrans({"\\": "\\\\", '"': '\\"'})  # for names in quoted strings
    links: list[tuple[str, str]] = []
    order = root_first_order(pg.graph, pg.root)
    for state in order + sorted(pg.states.difference(order)):
        frag = pg.fragment(state)
        state_links = pg.links(state)
        name = str(state).translate(escapes)
        lines.append(f'  subgraph "cluster_{name}" {{')
        lines.append(f'    label="{name}";')
        for w in sorted(frag.nodes):
            node_id = f"{name}/{format_word(w)}"
            if w in state_links:
                target = str(state_links[w]).translate(escapes)
                links.append((node_id, f"{target}/{format_word(EPSILON)}"))
                lines.append(f'    "{node_id}" [label="*", shape=circle];')
            else:
                sequent, rule = frag.label(w)
                text = f"{print_sequent(sequent)}\\n{rule.translate(escapes)}"
                lines.append(f'    "{node_id}" [label="{text}"];')
        for w in sorted(frag.nodes):
            if w == EPSILON:
                continue
            lines.append(
                f'    "{name}/{format_word(w[:-1])}" -> "{name}/{format_word(w)}";'
            )
        lines.append("  }")
    for src, dst in links:
        lines.append(f'  "{src}" -> "{dst}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as err:
            raise GraphFileError(f"cannot write {out}: {err}") from None
    else:
        sys.stdout.write(text)


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


def _unfold(args) -> int:
    from .fftree import UnfoldBudget, unfold

    name, pg = _load(args.file)
    res = unfold(pg.graph, pg.root, UnfoldBudget(args.depth, args.max_nodes))
    _emit(_print_unfolding(res), args.output)
    return 0


def _cutelim(args) -> int:
    from .grz.cutelim import cut_elimination_step

    name, pg = _load(args.file)
    if name != GRZ_CUT.name:
        raise CalculusError(f"cutelim expects a {GRZ_CUT.name} file, got {name}")
    return _extend_and_emit(args, pg, cut_elimination_step(), GRZ.name, print_bound=True)


def _translate(args) -> int:
    from .grz.cutelim import cut_elimination_step
    from .translate import identity_step

    name, pg = _load(args.file)
    if args.step == "identity":
        return _extend_and_emit(args, pg, identity_step(CALCULI[name]), name)
    if name != GRZ_CUT.name:
        raise CalculusError(f"the cut-elim step expects a {GRZ_CUT.name} file")
    return _extend_and_emit(args, pg, cut_elimination_step(), GRZ.name)


def _extend_and_emit(args, pg, step, target_name: str, print_bound: bool = False) -> int:
    """Extend ``step`` over ``pg`` within the budgets of ``args``, report
    whether it closed and emit the proof file or the unfolding; with
    ``print_bound`` an open result also reports the state bound.  A broken
    step contract or an input that is no source proof exits 1."""
    from .fftree import UnfoldBudget, Unfolding
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


def _render(args) -> int:
    name, pg = _load(args.file)
    _emit(to_dot(pg), args.output)
    return 0


def _search(args) -> int:
    from .search import SearchBudget, search

    goal = parse_sequent(args.sequent)
    calc = CALCULI[args.calculus]
    cut_pool = None
    if args.cut_formulas and CUT not in calc.rules:
        raise CalculusError(f"--cut-formulas needs a calculus with cut, not {calc.name}")
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


# by command name; ``check`` is not among them
COMMANDS = {
    "unfold": _unfold,
    "cutelim": _cutelim,
    "translate": _translate,
    "render": _render,
    "search": _search,
}
