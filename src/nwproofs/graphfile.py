"""The proof-graph file format and the DOT rendering.

A file names its calculus and root state and lists one block per state;
inside a block the fragment is written as an indented tree of
``sequent : rule`` lines, with ``link NAME`` leaves for glue points.
Parsing writes each line straight into its state's word-indexed label
and link tables.  Printing orders states by the coalgebra's root-first
walk (:func:`~nwproofs.coalgebra.root_first_order`), then any
unreachable states by name, and formulas canonically, so printed files
are diff-stable and re-printing a parsed file reproduces it byte for
byte.
"""

from __future__ import annotations

from typing import Any

from .calculus import ProofGraph
from .coalgebra import Coalgebra, root_first_order
from .grz.rules import CALCULI
from .syntax import ParseError, parse_sequent, print_sequent
from .trees import EPSILON, STAR, TreeNW, Word, format_word

INDENT = "  "


class GraphFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def print_proof_file(pg: ProofGraph, calculus_name: str) -> str:
    if calculus_name not in CALCULI:
        raise GraphFileError(f"unknown calculus {calculus_name!r}")
    lines = [f"calculus {calculus_name}", f"root {pg.root}", ""]
    order = root_first_order(pg.graph, pg.root)
    # unreachable states still serialize, after the reachable ones
    for state in order + sorted(pg.states.difference(order)):
        lines.append(f"state {state}")
        links = pg.links(state)
        # the key lists words sorted, which is pre-order; each node is
        # indented one level more than its depth
        for w, label in pg.fragment(state).key:
            pad = INDENT * (len(w) + 1)
            if w in links:
                lines.append(f"{pad}link {links[w]}")
            else:
                lines.append(f"{pad}{print_sequent(label[0])} : {label[1]}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def parse_proof_file(text: str) -> tuple[str, ProofGraph]:
    calculus_name: str | None = None
    root: str | None = None
    dest: dict[str, tuple[TreeNW, dict[Word, str]]] = {}
    current: str | None = None
    labels: dict[Word, Any] = {}
    links: dict[Word, str] = {}
    kids: dict[Word, int] = {}  # children read so far, per node
    path: list[Word] = []  # the words of the open nodes, one per depth

    def close_state(line_no: int) -> None:
        nonlocal current
        if current is None:
            return
        if not labels:
            raise GraphFileError(f"state {current} has no fragment", line_no)
        if EPSILON in links:
            raise GraphFileError(f"state {current} is just a link", line_no)
        dest[current] = (TreeNW(labels), dict(links))
        labels.clear()
        links.clear()
        kids.clear()
        path.clear()
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
                calculus_name = parts[1]
            elif parts[0] == "root" and len(parts) == 2:
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
            word = EPSILON
        else:
            if len(path) != depth - 1:
                raise GraphFileError("child without a parent at the right depth", line_no)
            parent = path[-1]
            if parent in links:
                raise GraphFileError("links cannot have children", line_no)
            word = parent + (kids.get(parent, 0),)
            kids[parent] = word[-1] + 1
        if isinstance(label, str):
            labels[word] = STAR
            links[word] = label
        else:
            labels[word] = label
        path.append(word)
    close_state(len(text.splitlines()))

    if calculus_name is None:
        raise GraphFileError("missing calculus header")
    if calculus_name not in CALCULI:
        raise GraphFileError(f"unknown calculus {calculus_name!r}")
    if root is None:
        raise GraphFileError("missing root header")
    if root not in dest:
        raise GraphFileError(f"root {root} has no state block")
    for name, (_, state_links) in dest.items():
        for target in state_links.values():
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


def to_dot(pg: ProofGraph) -> str:
    """Graphviz rendering: one cluster per state, link edges dashed."""
    lines = ["digraph proof {", '  node [shape=box, fontname="monospace"];']
    links: list[tuple[str, str]] = []
    order = root_first_order(pg.graph, pg.root)
    for state in order + sorted(pg.states.difference(order)):
        frag = pg.fragment(state)
        state_links = pg.links(state)
        lines.append(f'  subgraph "cluster_{state}" {{')
        lines.append(f'    label="{state}";')
        for w in sorted(frag.nodes):
            node_id = f"{state}/{format_word(w)}"
            if w in frag.nw_leaves:
                links.append((node_id, f"{state_links[w]}/{format_word(EPSILON)}"))
                lines.append(f'    "{node_id}" [label="*", shape=circle];')
            else:
                sequent, rule = frag.label(w)
                text = f"{print_sequent(sequent)}\\n{rule}"
                lines.append(f'    "{node_id}" [label="{text}"];')
        for w in sorted(frag.nodes):
            if w == EPSILON:
                continue
            lines.append(
                f'    "{state}/{format_word(w[:-1])}" -> "{state}/{format_word(w)}";'
            )
        lines.append("  }")
    for src, dst in links:
        lines.append(f'  "{src}" -> "{dst}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
