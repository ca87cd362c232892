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
nodes and states it labels, and each fragment once per leaf sequents it
passes with.  A walk reads a fragment's preorder arrays by position,
validates each label once, and forms a word only to name a finding, a
missing leaf sequent or a star leaf's link.  A fragment holds (sequent,
rule) labels and stars only: anything else, an unfolding's truncation
mark included, raises :class:`CalculusError`, however the graph was built.

This module is the checker and nothing else: it never changes a proof
and keeps nothing between calls.  Its ``decided`` table of instances
and passed fragments (never a failing one) is valid for one calculus
and belongs to one call or to its caller.  What rewrites proofs is in
:mod:`nwproofs.store`; the paper's pre-proof definitions are in
:mod:`nwproofs.fftree`.

Sequents are opaque here: anything hashable with equality works.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from . import _resolve
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
        if root not in graph:
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
            and all(
                self.fragment(s) == other.fragment(s) and self.links(s) == other.links(s)
                for s in self.states
            )
        )

    def __repr__(self) -> str:
        return f"ProofGraph(root={self.root!r}, states={sorted(self.states)})"


def recorded_pass(decided: Mapping, tree: TreeNW, leaf_sequents: Mapping[Word, Any]) -> bool:
    """Does ``decided`` hold a pass of ``tree`` over these leaf sequents, keyed by its star leaves?"""
    return (tree, tuple([leaf_sequents.get(w, _MISSING) for w in decided.get(tree, ())])) in decided


def check_proof_fragment(
    calc: LocalProgressCalculus,
    tree: TreeNW,
    leaf_sequents: Mapping[Word, Any],
    state: StateId | None = None,
    *,
    decided: dict | None = None,
) -> CheckReport:
    """Check one fragment: every proper node is a rule instance and its
    star leaves sit exactly at the progressing premises.

    ``decided`` maps each ``(rule, premises, conclusion)`` instance
    already decided with this ``calc`` to its progress set, or to None
    for a non-instance; it is valid for one calculus only.  The matcher
    runs on instances missing from it, and they are added.  Glue points
    are tested at every node, and a failing instance is reported at
    every node it labels.  A fragment that passes is recorded too, with
    its leaf sequents in leaf-word order, and that pair passes again
    without a walk; a failing one is walked, and reported, every time."""
    if decided is None:
        decided = {}
    elif recorded_pass(decided, tree, leaf_sequents):
        return CheckReport()
    labels, arities = tree._labels, tree._arities  # read, never written
    # end[p] is just past the subtree at p: the children of p are p + 1 and
    # then, each, the end of the one before
    end = list(range(1, len(labels) + 1))
    for p, k in zip(range(len(end) - 1, -1, -1), reversed(arities)):
        if k:
            e = end[p + 1]
            while k > 1:
                e, k = end[e], k - 1
            end[p] = e
    leaf = {p: leaf_sequents.get(w, _MISSING) for p, w in zip(tree._stars, tree.leaf_order)}
    found: list[tuple[int, str, str]] = []  # (position, condition, message)
    _sequent_rule(labels[0])  # the root; every other label is read as a premise
    for p, label in enumerate(labels):
        if label is STAR:
            continue
        sequent, rule = label
        premises, glue = [], []
        c = p + 1
        for i in range(arities[p]):
            child = labels[c]
            if child is STAR:
                if leaf[c] is _MISSING:
                    word = format_word(tree.words([c])[c])
                    raise CalculusError(f"no sequent supplied for leaf {word}")
                premises.append(leaf[c])
                glue.append(i)
            elif _is_sequent_rule(child):
                premises.append(child[0])
            else:
                _sequent_rule(child, tree.words([c])[c])  # raises, naming the node
            c = end[c]
        instance = (rule, tuple(premises), sequent)
        try:
            prog = decided[instance]
        except KeyError:
            prog = decided[instance] = (
                calc.progress_set(rule, instance[1], sequent)
                if calc.is_instance(rule, instance[1], sequent)
                else None
            )
        if prog is None:
            found.append((p, "rule", f"not an instance of {rule}"))
        elif glue or prog:
            c = p + 1
            for i in range(len(premises)):
                if (i in glue) != (i in prog):
                    expect = "a glue point" if i in prog else "an ordinary premise"
                    found.append((c, "progress", f"premise {i} must be {expect}"))
                c = end[c]
    if found:
        words = tree.words([q for q, _, _ in found])
        return CheckReport([Finding(state, words[q], cond, msg) for q, cond, msg in found])
    stars = decided.setdefault(tree, tree.leaf_order)
    decided[tree, tuple([leaf_sequents.get(w, _MISSING) for w in stars])] = True
    return CheckReport()


def _leaf_sequents(dest: Mapping[StateId, tuple[TreeNW, Any]], state: StateId) -> dict[Word, Any]:
    """The root sequent of each state that ``state`` links to."""
    links = dest[state][1]
    return {w: _sequent_rule(dest[t][0]._labels[0])[0] for w, t in links.items()}


def check_proof_graph(
    calc: LocalProgressCalculus, pg: ProofGraph, skip: Container[StateId] = (), *,
    decided: dict | None = None,
) -> CheckReport:
    """Check every state reachable from the root; passing certifies the
    whole unfolded proof because fragments repeat state by state.

    States in ``skip`` are neither checked nor entered: a caller passes
    the states whose proofs it has already seen pass with ``calc``.
    One ``decided`` table, the caller's or a fresh one, serves every
    fragment check; the report lists the states checked.
    """
    report = CheckReport(states=root_first_order(pg.graph, pg.root, skip))
    decided = {} if decided is None else decided
    dest = pg.graph._dest  # read, never written
    for state in report.states:
        leaves = _leaf_sequents(dest, state)
        found = check_proof_fragment(calc, dest[state][0], leaves, state, decided=decided)
        report.findings += found.findings
    return report


def __getattr__(name: str) -> Any:
    # The benchmark's workloads import these two store names from here.
    return _resolve(globals(), {"Arena": "store", "PNode": "store"}, name)
