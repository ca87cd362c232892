"""Generic local-progress sequent calculi and the decidable graph checker.

A calculus is a set of named rule matchers plus a progress function
picking out the premise indices where a branch may cross a fragment
boundary.  Proofs at rest are finite coalgebras whose fragment labels
are (sequent, rule) pairs; checking each state's fragment once, with
leaf sequents read off the linked states, certifies the whole
non-wellfounded proof.  There is one checker, :func:`check_proof_graph`,
walking states in the coalgebra's one root-first order
(:func:`~nwproofs.coalgebra.root_first_order`).  One call decides each
distinct ``(rule, premises, conclusion)`` instance once, however many
nodes and states it labels, and each fragment once per leaf sequents,
a tuple in leaf order: a subtree equal to a fragment that passed, over
the same leaf sequents, is not walked again.  A walk goes forward over a
fragment's preorder arrays, reads each label once, decides a node's
glue points with one comparison, and forms a word only to name a finding
or an error.  A fragment holds (sequent, rule) labels and stars only:
anything else, an unfolding's truncation mark included, raises
:class:`CalculusError`, however the graph was built.

This module is the checker and nothing else: it never changes a proof
and keeps nothing between calls.  Its ``decided`` table of instances
and passed fragments (never a failing one) is valid for one calculus
and belongs to one call or to its caller.  What rewrites proofs is in
:mod:`nwproofs.store`; the paper's pre-proof definitions are a test
reference, ``tests/paper_defs.py``.

Sequents are opaque here: anything hashable with equality works.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Container
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from . import _forwarder
from .coalgebra import Coalgebra, StateId, UnknownState, root_first_order
from .trees import EPSILON, STAR, TreeNW, Word, format_word

if TYPE_CHECKING:
    from .store import Arena

Matcher = Callable[[tuple, Any], bool]
ProgressFn = Callable[[str, tuple, Any], frozenset[int]]
_MISSING = object()  # stands for a leaf sequent not supplied


class CalculusError(ValueError):
    pass


class UnknownNode(CalculusError):
    pass


@dataclass(frozen=True)
class LocalProgressCalculus:
    """Named rule matchers plus the per-instance progress function."""

    name: str
    rules: Mapping[str, Matcher]
    progress: ProgressFn

    def is_instance(self, rule: str, premises: tuple, conclusion: Any) -> bool:
        matcher = self.rules.get(rule)
        return matcher is not None and matcher(premises, conclusion)

    def progress_set(self, rule: str, premises: tuple, conclusion: Any) -> frozenset[int]:
        return self.progress(rule, premises, conclusion)


@dataclass(frozen=True)
class Finding:
    """One checker violation: where it is and which condition broke."""

    state: StateId | None
    node: Word
    condition: str  # "rule" or "progress"
    message: str

    def __str__(self) -> str:
        where = f"state {self.state} " if self.state is not None else ""
        return f"{where}node {format_word(self.node)} {self.condition}: {self.message}"


@dataclass
class CheckReport:
    findings: list[Finding] = field(default_factory=list)
    states: list[StateId] = field(default_factory=list, compare=False)  # walked by a graph check

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        return "\n".join(str(f) for f in self.findings) if self.findings else "ok"


def _is_sequent_rule(label: Any) -> bool:
    return isinstance(label, tuple) and len(label) == 2 and isinstance(label[1], str)


def _sequent_rule(label: Any, node: Word = EPSILON) -> tuple[Any, str]:
    """``label``, read at proper node ``node``, once it has the shape (sequent, rule)."""
    if not _is_sequent_rule(label):
        raise CalculusError(f"node {format_word(node)} is not labelled with (sequent, rule)")
    return label


def _check_labels(frag: TreeNW) -> None:
    for p, label in enumerate(frag.key[0]):
        if label is not STAR and not _is_sequent_rule(label):
            _sequent_rule(label, frag.words([p])[p])


class ProofGraph:
    """A rooted coalgebra whose fragments are (sequent, rule)-labelled.

    A *view* (:meth:`at`, :meth:`~nwproofs.store.Arena.view`) shares the
    coalgebra of the graph or store it is taken from, so it is neither
    copied nor validated again, and it reports only the states reachable
    from its root, as a pruned copy would.  ``store`` is the
    :class:`~nwproofs.store.Arena` a view lives in, if any; the checker
    never reads it.
    """

    __slots__ = ("graph", "root", "store", "_states")

    def __init__(self, graph: Coalgebra, root: StateId):
        if root not in graph:
            raise UnknownState(f"root {root!r} is not a state")
        states = graph.states
        for state in states:
            _check_labels(graph.fragment(state))
        self.graph = graph
        self.root = root
        self.store: Arena | None = None
        self._states: frozenset[StateId] | None = states

    @staticmethod
    def _view(graph: Coalgebra, root: StateId, store: "Arena | None") -> "ProofGraph":
        if root not in graph._dest:
            raise UnknownState(f"root {root!r} is not a state")
        pg = object.__new__(ProofGraph)
        pg.graph, pg.root, pg.store, pg._states = graph, root, store, None
        return pg

    def at(self, state: StateId) -> "ProofGraph":
        """The proof rooted at ``state``, as a view of this graph."""
        return ProofGraph._view(self.graph, state, self.store)

    @property
    def states(self) -> frozenset[StateId]:
        if self._states is None:
            self._states = frozenset(root_first_order(self.graph, self.root))
        return self._states

    def fragment(self, state: StateId) -> TreeNW:
        return self.graph.fragment(state)

    def links(self, state: StateId) -> dict[Word, StateId]:
        return self.graph.links(state)

    def state_sequent(self, state: StateId) -> Any:
        return _sequent_rule(self.graph.fragment(state).label(EPSILON))[0]

    @property
    def root_sequent(self) -> Any:
        return self.state_sequent(self.root)

    def pruned(self) -> "ProofGraph":
        """A copy holding only the states reachable from the root."""
        keep = set(root_first_order(self.graph, self.root))
        dest = {s: d for s, d in self.graph._dest.items() if s in keep}
        return ProofGraph(Coalgebra(dest), self.root)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ProofGraph)
            and self.root == other.root
            and self.states == other.states
            and all(self.graph._dest[s] == other.graph._dest[s] for s in self.states)
        )

    def __repr__(self) -> str:
        return f"ProofGraph(root={self.root!r}, states={sorted(self.states)})"


def check_proof_fragment(
    calc: LocalProgressCalculus, tree: TreeNW, leaf_sequents: Mapping[Word, Any] | tuple,
    state: StateId | None = None, *, decided: dict | None = None,
) -> CheckReport:
    """Check one fragment: every proper node is a rule instance and its
    star leaves sit exactly at the progressing premises.

    ``leaf_sequents`` gives the sequent at each star leaf, by its word or
    as a tuple in leaf order.  ``decided`` maps each ``(rule, premises,
    conclusion)`` instance already decided with this ``calc`` to a flag
    per premise, set where it progresses, or to None for a non-instance;
    it is valid for one calculus only, and missing instances are added.
    One forward walk reads a node's premises at its children's positions,
    reports findings in preorder, a failing instance at every node, and
    raises at the first unreadable premise in preorder.  A passing
    fragment is recorded with its rule names, keyed ``(tree, leaves)`` and
    indexed by node count and root label; it passes again unwalked, as
    does a subtree with its arrays and leaf sequents, found by one lookup
    per inner node visited.  A failing fragment is never recorded."""
    leaves = leaf_sequents
    if not isinstance(leaves, tuple):
        leaves = tuple([leaf_sequents.get(w, _MISSING) for w in tree.leaf_order])
    elif len(leaves) != len(tree._stars):
        raise CalculusError("a fragment needs one sequent per star leaf")
    if decided is None:
        decided = {}
    elif (tree, leaves) in decided:
        return CheckReport()
    labels, arities, ends, stars = tree._labels, tree._arities, tree._ends, tree._stars
    _sequent_rule(labels[0])  # the root; every other label is read as a premise
    found: list[tuple[int, Word, str, str]] = []  # (node, word from it, condition, message)
    names, p = set(), 0  # the rules of the nodes passed, and the position at hand
    while p < len(labels):
        label, k = labels[p], arities[p]
        if label is STAR:
            p += 1
            continue
        if p and k and ends[p] - p in decided:  # passes with this node count
            e = ends[p]
            same = [
                seen for other, other_leaves, seen in decided[e - p].get(label, ())
                if other.key == (labels[p:e], arities[p:e])
                and other_leaves == leaves[bisect_left(stars, p) : bisect_left(stars, e)]
            ]
            if same:  # the subtree passed as a fragment of its own
                names, p = names | same[0], e
                continue
        sequent, rule = label
        names.add(rule)
        premises, glue, c = [], [], p + 1
        for i in range(k):
            below = labels[c]
            if below is STAR:
                below = leaves[bisect_left(stars, c)]
                if below is _MISSING:
                    word = format_word(tree.words([p])[p] + (i,))
                    raise CalculusError(f"no sequent supplied for leaf {word}")
            elif isinstance(below, tuple) and len(below) == 2 and isinstance(below[1], str):
                below = below[0]
            else:
                _sequent_rule(below, tree.words([p])[p] + (i,))  # raises, naming the node
            premises.append(below)
            glue.append(labels[c] is STAR)
            c = ends[c]
        instance = (rule, tuple(premises), sequent)
        prog = decided.get(instance, _MISSING)
        if prog is _MISSING:  # decided here, once per table
            ok = calc.is_instance(rule, instance[1], sequent)
            progress = calc.progress_set(rule, instance[1], sequent) if ok else ()
            prog = decided[instance] = [i in progress for i in range(k)] if ok else None
        if prog is None:
            found.append((p, EPSILON, "rule", f"not an instance of {rule}"))
        elif prog != glue:
            for i in range(k):
                if glue[i] != prog[i]:
                    expect = "a glue point" if prog[i] else "an ordinary premise"
                    found.append((p, (i,), "progress", f"premise {i} must be {expect}"))
        p += 1
    if found:
        words = tree.words([q for q, *_ in found])
        return CheckReport([Finding(state, words[q] + w, cond, msg) for q, w, cond, msg in found])
    decided[tree, leaves] = seen = frozenset(names)
    decided.setdefault(len(labels), {}).setdefault(labels[0], []).append((tree, leaves, seen))
    return CheckReport()


def check_proof_graph(
    calc: LocalProgressCalculus, pg: ProofGraph, skip: Container[StateId] = (), *,
    decided: dict | None = None,
) -> CheckReport:
    """Check every state reachable from the root; passing certifies the
    whole unfolded proof because fragments repeat state by state.

    States in ``skip`` are neither checked nor entered: a caller passes
    the states whose proofs it has already seen pass with ``calc``.
    One ``decided`` table, the caller's or a fresh one, serves every
    fragment check, whose leaf sequents, the root sequents of the state's
    targets, go as a tuple in leaf order; the report lists the states checked."""
    report = CheckReport(states=root_first_order(pg.graph, pg.root, skip))
    decided = {} if decided is None else decided
    dest = pg.graph._dest  # read, never written
    roots: dict[StateId, Any] = {}  # the root sequent of each linked state, read once
    for state in report.states:
        tree, targets = dest[state]
        for t in targets:
            if t not in roots:
                roots[t] = _sequent_rule(dest[t][0]._labels[0])[0]
        leaves = tuple([roots[t] for t in targets])
        found = check_proof_fragment(calc, tree, leaves, state, decided=decided)
        report.findings += found.findings
    return report


# The benchmark's workloads import these two store names from here.
__getattr__ = _forwarder(globals(), {"Arena": "store", "PNode": "store"})
