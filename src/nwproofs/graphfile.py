"""The proof-graph file format, and its parser.

A file names its calculus and root state and lists one block per state;
inside a block the fragment is written as an indented tree of
``sequent : rule`` lines, with ``link NAME`` leaves for glue points.
Parsing appends each line to its state's preorder arrays of labels and
arities.  Only parsing is part of the trusted checking core: the
printer :func:`~nwproofs.commands.print_proof_file` and the DOT writer
live in :mod:`nwproofs.commands`.
"""

from __future__ import annotations

from typing import Any

from . import _forwarder
from .calculus import ProofGraph
from .coalgebra import Coalgebra, Destructor
from .grz.rules import CALCULI
from .syntax import ParseError, parse_sequent
from .trees import STAR, TreeNW

INDENT = "  "


class GraphFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def parse_proof_file(text: str) -> tuple[str, ProofGraph]:
    calculus_name: str | None = None
    root: str | None = None
    dest: dict[str, Destructor] = {}
    current: str | None = None
    labels: list[Any] = []  # the state's nodes in line order, which is preorder
    arities: list[int] = []
    targets: list[str] = []  # the link leaves' states, in line order
    path: list[int] = []  # the positions of the open nodes, one per depth

    def close_state(line_no: int) -> None:
        nonlocal current
        if current is None:
            return
        if not labels:
            raise GraphFileError(f"state {current} has no fragment", line_no)
        if labels[0] is STAR:
            raise GraphFileError(f"state {current} is just a link", line_no)
        dest[current] = (TreeNW(labels, arities), tuple(targets))
        for table in (labels, arities, targets, path):
            table.clear()
        current = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % len(INDENT):
            raise GraphFileError("odd indentation", line_no)
        depth = indent // len(INDENT)
        body = raw.strip()
        if depth == 0:
            parts = body.split()
            if parts[0] == "calculus" and len(parts) == 2:
                if calculus_name is not None:
                    raise GraphFileError("duplicate calculus header", line_no)
                calculus_name = parts[1]
            elif parts[0] == "root" and len(parts) == 2:
                if root is not None:
                    raise GraphFileError("duplicate root header", line_no)
                root = parts[1]
            elif parts[0] == "state" and len(parts) == 2:
                close_state(line_no)
                current = parts[1]
                if current in dest:
                    raise GraphFileError(f"duplicate state {current}", line_no)
            else:
                raise GraphFileError(f"unrecognized line {body!r}", line_no)
            continue
        if current is None:
            raise GraphFileError("fragment line outside a state block", line_no)
        label = _parse_node_line(body, line_no)
        del path[depth - 1 :]
        if depth == 1:
            if labels:
                raise GraphFileError("a state block may hold only one tree", line_no)
        else:
            if len(path) != depth - 1:
                raise GraphFileError("child without a parent at the right depth", line_no)
            if labels[path[-1]] is STAR:
                raise GraphFileError("links cannot have children", line_no)
            arities[path[-1]] += 1
        if isinstance(label, str):
            targets.append(label)
            label = STAR
        path.append(len(labels))
        labels.append(label)
        arities.append(0)
    close_state(len(text.splitlines()))

    if calculus_name is None:
        raise GraphFileError("missing calculus header")
    if calculus_name not in CALCULI:
        raise GraphFileError(f"unknown calculus {calculus_name!r}")
    if root is None:
        raise GraphFileError("missing root header")
    if root not in dest:
        raise GraphFileError(f"root {root} has no state block")
    for name, (_, successors) in dest.items():
        for target in successors:
            if target not in dest:
                raise GraphFileError(f"state {name} links to unknown state {target}")
    return calculus_name, ProofGraph(Coalgebra(dest), root)


def _parse_node_line(body: str, line_no: int) -> str | tuple[Any, str]:
    """A link leaf's target state, or the (sequent, rule) label of a node."""
    if body.startswith("link "):
        target = body[len("link ") :].strip()
        if not target or " " in target:
            raise GraphFileError("malformed link line", line_no)
        return target
    if " : " not in body:
        raise GraphFileError("expected 'sequent : rule'", line_no)
    seq_text, rule = body.rsplit(" : ", 1)
    rule = rule.strip()
    if not rule:
        raise GraphFileError("missing rule name", line_no)
    try:
        sequent = parse_sequent(seq_text)
    except ParseError as err:
        raise GraphFileError(f"bad sequent: {err}", line_no) from None
    return sequent, rule


# The benchmark's workloads and tracer read the printer from here.
__getattr__ = _forwarder(globals(), {"print_proof_file": "commands"})
