"""Generic local-progress sequent calculi and the decidable graph checker.

A calculus is a set of named rule matchers plus a progress function
picking out the premise indices where a branch may cross a fragment
boundary.  Proofs at rest are finite coalgebras whose fragment labels
are (sequent, rule) pairs; checking each state's fragment once, with
leaf sequents read off the linked states, certifies the whole
non-wellfounded proof.  There is one checker, :func:`check_proof_graph`,
walking states in the coalgebra's one root-first order
(:func:`~nwproofs.coalgebra.root_first_order`); :func:`check_pre_proof`
keeps the rule findings of its report.  One call decides each distinct
``(rule, premises, conclusion)`` instance once, however many nodes and
states it labels; the glue-point test still runs at every node.

This module is the checker and nothing else: it never changes a proof
and keeps nothing between calls; a table of decided instances belongs
to one call or to its caller.  What rewrites proofs is in
:mod:`nwproofs.store`.

Sequents are opaque here: anything hashable with equality works.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .coalgebra import Coalgebra, StateId, UnknownState, reachable, restrict, root_first_order
from .trees import EPSILON, STAR, TreeNW, Truncation, Word, format_word

if TYPE_CHECKING:
    from .store import Arena

Matcher = Callable[[tuple, Any], bool]
ProgressFn = Callable[[str, tuple, Any], frozenset[int]]


class CalculusError(ValueError):
    pass


class UnknownNode(CalculusError):
    pass


class NotAPreProof(CalculusError):
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

    @property
    def ok(self) -> bool:
        return not self.findings

    def extend(self, other: "CheckReport") -> None:
        self.findings.extend(other.findings)

    def __str__(self) -> str:
        return "\n".join(str(f) for f in self.findings) if self.findings else "ok"


def _node_label(tree: TreeNW, w: Word) -> tuple[Any, str]:
    label = tree.label(w)
    if not (isinstance(label, tuple) and len(label) == 2 and isinstance(label[1], str)):
        raise CalculusError(f"node {format_word(w)} is not labelled with (sequent, rule)")
    return label


def _check_labels(frag: TreeNW) -> None:
    for w in frag.proper_nodes:
        _node_label(frag, w)


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
        return _node_label(self.graph.fragment(state), EPSILON)[0]

    @property
    def root_sequent(self) -> Any:
        return self.state_sequent(self.root)

    def pruned(self) -> "ProofGraph":
        return ProofGraph(restrict(self.graph, reachable(self.graph, self.root)), self.root)

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


def _instance_at(
    calc: LocalProgressCalculus,
    tree: TreeNW,
    w: Word,
    leaf_sequents: Mapping[Word, Any],
) -> tuple[tuple, Any, str]:
    """Premise sequents, conclusion, and rule name at a proper node."""
    sequent, rule = _node_label(tree, w)
    premises = []
    for i in range(tree.arity(w)):
        child = w + (i,)
        label = tree.label(child)
        if label is STAR:
            if child not in leaf_sequents:
                raise CalculusError(f"no sequent supplied for leaf {format_word(child)}")
            premises.append(leaf_sequents[child])
        elif isinstance(label, Truncation):
            premises.append(label.label[0])
        else:
            premises.append(_node_label(tree, child)[0])
    return tuple(premises), sequent, rule


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
    every node it labels."""
    if decided is None:
        decided = {}
    report = CheckReport()
    for w, label in tree.key:
        if label is STAR or isinstance(label, Truncation):
            continue
        premises, sequent, rule = _instance_at(calc, tree, w, leaf_sequents)
        instance = (rule, premises, sequent)
        try:
            prog = decided[instance]
        except KeyError:
            prog = decided[instance] = (
                calc.progress_set(rule, premises, sequent)
                if calc.is_instance(rule, premises, sequent)
                else None
            )
        if prog is None:
            report.findings.append(
                Finding(state, w, "rule", f"not an instance of {rule}")
            )
            continue
        for i in range(tree.arity(w)):
            child = w + (i,)
            below = tree.label(child)
            is_boundary = below is STAR or isinstance(below, Truncation)
            if is_boundary != (i in prog):
                expect = "a glue point" if i in prog else "an ordinary premise"
                report.findings.append(
                    Finding(state, child, "progress", f"premise {i} must be {expect}")
                )
    return report


def _leaf_sequents_for(pg: ProofGraph, state: StateId) -> dict[Word, Any]:
    return {w: pg.state_sequent(t) for w, t in pg.links(state).items()}


def check_proof_graph(
    calc: LocalProgressCalculus, pg: ProofGraph, skip: Container[StateId] = ()
) -> CheckReport:
    """Check every state reachable from the root; passing certifies the
    whole unfolded proof because fragments repeat state by state.

    States in ``skip`` are neither checked nor entered: a caller passes
    the states whose proofs it has already seen pass with ``calc``.
    Every fragment check of one call shares one table of decided
    instances.
    """
    report = CheckReport()
    decided: dict = {}
    for state in root_first_order(pg.graph, pg.root, skip):
        report.extend(
            check_proof_fragment(
                calc, pg.fragment(state), _leaf_sequents_for(pg, state), state, decided=decided
            )
        )
    return report


def check_pre_proof(calc: LocalProgressCalculus, pg: ProofGraph) -> CheckReport:
    """The rule findings of :func:`check_proof_graph`: is every proper
    node a rule instance, wherever its glue points sit?"""
    report = check_proof_graph(calc, pg)
    return CheckReport([f for f in report.findings if f.condition == "rule"])


def progressing(calc: LocalProgressCalculus, pg: ProofGraph, state: StateId, node: Word) -> bool:
    """Is ``node`` a progressing premise of its parent in this fragment?"""
    frag = pg.fragment(state)
    if node not in frag.nodes:
        raise UnknownNode(f"node {format_word(node)} not in state {state!r}")
    if node == EPSILON:
        return False
    parent = node[:-1]
    premises, sequent, rule = _instance_at(calc, frag, parent, _leaf_sequents_for(pg, state))
    return node[-1] in calc.progress_set(rule, premises, sequent)


def compute_fragmentation(
    calc: LocalProgressCalculus, labels: Mapping[Word, Any]
) -> dict[Word, Word]:
    """Partition a labelled pre-proof tree along its progress edges.

    Blocks are the regions connected by parent-child edges whose child
    is not progressing; the result maps each node to its block root.
    Truncation leaves contribute their recorded sequents to the parent
    instance but carry no rule of their own.
    """
    tree = labels if isinstance(labels, TreeNW) else TreeNW(labels)
    parent_root: dict[Word, Word] = {EPSILON: EPSILON}
    for w in sorted(tree.nodes, key=len):
        label = tree.label(w)
        if isinstance(label, Truncation):
            continue
        premises, sequent, rule = _instance_at(calc, tree, w, {})
        if not calc.is_instance(rule, premises, sequent):
            raise NotAPreProof(f"node {format_word(w)} is not an instance of {rule}")
        prog = calc.progress_set(rule, premises, sequent)
        for i, child in enumerate(tree.children(w)):
            parent_root[child] = child if i in prog else parent_root[w]
    return parent_root


def __getattr__(name: str) -> Any:
    # The benchmark's workloads import these two store names from here.
    if name in ("Arena", "PNode"):
        from . import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
