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
passes with: a pass is keyed ``(tree, leaves)``, the leaf sequents going
by position, as a tuple in leaf order.  A walk reads a fragment's
preorder arrays backwards, validates each label once, decides a node's
glue points with one comparison, and forms a word only to name a finding
or an error.  A fragment holds (sequent, rule) labels and stars only:
anything else, an unfolding's truncation mark included, raises
:class:`CalculusError`, however the graph was built.

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


def recorded_pass(decided: Mapping, tree: TreeNW, leaves: tuple) -> bool:
    """Does ``decided`` hold a pass of ``tree`` over ``leaves``, in leaf order?"""
    return (tree, leaves) in decided


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
    it is valid for one calculus only.  The matcher runs on instances
    missing from it, and they are added.  Glue points are tested at every
    node, and a failing instance is reported at every node it labels.  A
    fragment that passes is recorded, keyed ``(tree, leaves)``, and passes
    again without a walk; a failing one is walked every time."""
    leaves = leaf_sequents
    if not isinstance(leaves, tuple):
        leaves = tuple([leaf_sequents.get(w, _MISSING) for w in tree.leaf_order])
    elif len(leaves) != len(tree._stars):
        raise CalculusError("a fragment needs one sequent per star leaf")
    if decided is None:
        decided = {}
    elif (tree, leaves) in decided:
        return CheckReport()
    labels, arities = tree._labels, tree._arities  # read, never written
    _sequent_rule(labels[0])  # the root; every other label is read as a premise
    # in reverse preorder, a node's premises are the subtrees finished last,
    # the first premise last, and star leaves come in reverse leaf order
    below, glued = [], []  # each finished subtree's sequent, and whether it is a star
    j, unread = len(leaves), _MISSING in leaves  # unread: some sequent may be _MISSING
    found: list[tuple[int, Word, str, str]] = []  # (node, word from it, condition, message)
    broken = None  # (node, premise, is a star) of the first unreadable premise in preorder
    for p in range(len(labels) - 1, -1, -1):
        label, k = labels[p], arities[p]
        if label is STAR:
            j -= 1
            below.append(leaves[j])
            glued.append(True)
            continue
        premises, glue = tuple(below[:~k:-1]), glued[:~k:-1]
        if k:
            del below[-k:], glued[-k:]
        glued.append(False)
        if not (isinstance(label, tuple) and len(label) == 2 and isinstance(label[1], str)):
            below.append(_MISSING)
            unread = True
            continue
        sequent, rule = label
        below.append(sequent)
        if unread and any(q is _MISSING for q in premises):
            i = [q is _MISSING for q in premises].index(True)
            broken = p, i, glue[i]
            continue
        instance = (rule, premises, sequent)
        try:
            prog = decided[instance]
        except KeyError:
            if calc.is_instance(rule, premises, sequent):
                progress = calc.progress_set(rule, premises, sequent)
                prog = decided[instance] = [i in progress for i in range(k)]
            else:
                prog = decided[instance] = None
        if prog is None:
            found.append((p, EPSILON, "rule", f"not an instance of {rule}"))
        elif prog != glue:
            for i in range(k):
                if glue[i] != prog[i]:
                    expect = "a glue point" if prog[i] else "an ordinary premise"
                    found.append((p, (i,), "progress", f"premise {i} must be {expect}"))
    if broken is not None:
        p, i, star = broken
        word = tree.words([p])[p] + (i,)
        if star:
            raise CalculusError(f"no sequent supplied for leaf {format_word(word)}")
        _sequent_rule(_MISSING, word)  # raises, naming the node
    if not found:
        decided[tree, leaves] = True
        return CheckReport()
    words = tree.words([q for q, *_ in found])
    return CheckReport([Finding(state, words[q] + w, cond, msg) for q, w, cond, msg in sorted(found)])


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
    targets, go as a tuple in leaf order; the report lists the states checked.
    """
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
