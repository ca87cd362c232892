"""Generic local-progress sequent calculi and the decidable graph checker.

A calculus is a set of named rule matchers plus a progress function
picking out the premise indices where a branch may cross a fragment
boundary.  Proofs at rest are finite coalgebras whose fragment labels
are (sequent, rule) pairs; checking each state's fragment once, with
leaf sequents read off the linked states, certifies the whole
non-wellfounded proof.  There is one checker, :func:`check_proof_graph`,
walking states in the coalgebra's one root-first order
(:func:`~nwproofs.coalgebra.root_first_order`); :func:`check_pre_proof`
keeps the rule findings of its report.

Sequents are opaque here: anything hashable with equality works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .coalgebra import (
    Coalgebra,
    StateId,
    UnknownState,
    bisim_minimize,
    reachable,
    restrict,
    root_first_order,
    validated_destructor,
)
from .trees import EPSILON, STAR, TreeNW, Truncation, Word, format_word

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

    A *view* (:meth:`at`, :meth:`Arena.view`) shares the coalgebra of
    the graph or store it is taken from, so it is neither copied nor
    validated again, and it reports only the states reachable from its
    root, as a pruned copy would.  ``store`` is the :class:`Arena` a view
    lives in, if any.
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
    for child in tree.children(w):
        if child in tree.nw_leaves:
            if child not in leaf_sequents:
                raise CalculusError(f"no sequent supplied for leaf {format_word(child)}")
            premises.append(leaf_sequents[child])
        else:
            label = tree.label(child)
            if isinstance(label, Truncation):
                premises.append(label.label[0])
            else:
                premises.append(_node_label(tree, child)[0])
    return tuple(premises), sequent, rule


def check_proof_fragment(
    calc: LocalProgressCalculus,
    tree: TreeNW,
    leaf_sequents: Mapping[Word, Any],
    state: StateId | None = None,
) -> CheckReport:
    """Check one fragment: every proper node is a rule instance and its
    star leaves sit exactly at the progressing premises."""
    report = CheckReport()
    for w in sorted(tree.proper_nodes):
        if isinstance(tree.label(w), Truncation):
            continue
        premises, sequent, rule = _instance_at(calc, tree, w, leaf_sequents)
        if not calc.is_instance(rule, premises, sequent):
            report.findings.append(
                Finding(state, w, "rule", f"not an instance of {rule}")
            )
            continue
        prog = calc.progress_set(rule, premises, sequent)
        for i, child in enumerate(tree.children(w)):
            is_boundary = child in tree.nw_leaves or isinstance(tree.label(child), Truncation)
            if is_boundary != (i in prog):
                expect = "a glue point" if i in prog else "an ordinary premise"
                report.findings.append(
                    Finding(state, child, "progress", f"premise {i} must be {expect}")
                )
    return report


def _leaf_sequents_for(pg: ProofGraph, state: StateId) -> dict[Word, Any]:
    return {w: pg.state_sequent(t) for w, t in pg.links(state).items()}


def check_proof_graph(calc: LocalProgressCalculus, pg: ProofGraph) -> CheckReport:
    """Check every state reachable from the root; passing certifies the
    whole unfolded proof because fragments repeat state by state.

    On a view of an :class:`Arena` the store remembers, per calculus
    object, the states whose proofs passed, and the walk neither checks
    nor enters them again.  A certified state reaches only certified
    states, so a failing check still reports the same findings, in the
    same order, as a walk over everything.
    """
    certified = pg.store.certified(calc) if pg.store is not None else set()
    order = root_first_order(pg.graph, pg.root, certified)
    report = CheckReport()
    for state in order:
        report.extend(
            check_proof_fragment(calc, pg.fragment(state), _leaf_sequents_for(pg, state), state)
        )
    if report.ok:
        certified.update(order)
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


# -- nested fragment views ------------------------------------------------
#
# Rewrites of a single fragment are much easier over a recursive view
# than over word-indexed label tables; links stay symbolic leaves.


@dataclass(frozen=True)
class PLink:
    target: StateId


@dataclass(frozen=True)
class PNode:
    sequent: Any
    rule: str
    children: tuple["PNode | PLink", ...] = ()

    @property
    def height(self) -> int:
        if not self.children:
            return 0
        return 1 + max(c.height if isinstance(c, PNode) else 0 for c in self.children)

    def count(self, rule: str) -> int:
        own = 1 if self.rule == rule else 0
        return own + sum(c.count(rule) for c in self.children if isinstance(c, PNode))


def to_nested(fragment: TreeNW, links: Mapping[Word, StateId]) -> PNode:
    def walk(w: Word) -> PNode | PLink:
        if w in fragment.nw_leaves:
            return PLink(links[w])
        sequent, rule = _node_label(fragment, w)
        return PNode(sequent, rule, tuple(walk(c) for c in fragment.children(w)))

    top = walk(EPSILON)
    assert isinstance(top, PNode)
    return top


def flatten(node: PNode) -> tuple[TreeNW, dict[Word, StateId]]:
    labels: dict[Word, Any] = {}
    links: dict[Word, StateId] = {}

    def walk(n: PNode | PLink, at: Word) -> None:
        if isinstance(n, PLink):
            labels[at] = STAR
            links[at] = n.target
            return
        labels[at] = (n.sequent, n.rule)
        for i, child in enumerate(n.children):
            walk(child, at + (i,))

    walk(node, EPSILON)
    return TreeNW(labels), links


def replace_subtree(node: PNode, at: Word, new: PNode | PLink) -> PNode | PLink:
    if at == EPSILON:
        return new
    head, rest = at[0], at[1:]
    kids = list(node.children)
    child = kids[head]
    assert isinstance(child, PNode) or rest == EPSILON
    kids[head] = replace_subtree(child, rest, new) if isinstance(child, PNode) else new
    return PNode(node.sequent, node.rule, tuple(kids))


def subtree_at(node: PNode, at: Word) -> PNode | PLink:
    cur: PNode | PLink = node
    for i in at:
        assert isinstance(cur, PNode)
        cur = cur.children[i]
    return cur


class Arena:
    """The append-only, hash-consed state store of one rewriting computation.

    Every state carries the id of its bisimulation class, so two states
    have the same id exactly when their rooted proofs are bisimilar.  A
    state made by :meth:`add` links only to states already stored, so
    it cannot change bisimilarity among them: its class is found by
    looking up its signature, the fragment plus its successors' class
    ids in leaf order, in a table (hash-consing after Filliâtre and
    Conchon, "Type-safe modular hash-consing", 2006).  A graph brought
    in by :meth:`include` may be cyclic; its new states are classified
    once, by refining them jointly with one state of every known class.

    Merging graphs renames a state only when the same id arrives with
    different content; the rename is closed under reverse reachability
    so shared ids always denote identical subgraphs.

    The store also remembers, per calculus object, the states whose
    proofs passed :func:`check_proof_graph`.
    """

    def __init__(self) -> None:
        self._states: dict[StateId, tuple[TreeNW, dict[Word, StateId]]] = {}
        self._counter = 0
        self.graph = Coalgebra.view(self._states)
        self._class: dict[StateId, int] = {}
        self._reps: list[StateId] = []  # one state of each class, by class id
        self._table: dict[tuple, int] = {}  # signature -> class id
        self._certified: dict[int, tuple[LocalProgressCalculus, set[StateId]]] = {}

    def view(self, state: StateId) -> ProofGraph:
        return ProofGraph._view(self.graph, state, self)

    def class_of(self, state: StateId) -> int:
        return self._class[state]

    def certified(self, calc: LocalProgressCalculus) -> set[StateId]:
        """States whose proofs passed the check of this calculus object."""
        # keyed by identity, and holding ``calc`` so that its id stays unique
        return self._certified.setdefault(id(calc), (calc, set()))[1]

    def include(self, pg: ProofGraph) -> StateId:
        """Copy in the part of ``pg`` reachable from its root; returns the
        root's id in this store."""
        if pg.store is self:
            return pg.root
        part = {s: (pg.fragment(s), pg.links(s)) for s in root_first_order(pg.graph, pg.root)}
        rename, new = self._merge(part)
        self._classify(new)
        return rename.get(pg.root, pg.root)

    def _merge(
        self, extra: Mapping[StateId, tuple[TreeNW, Mapping[Word, StateId]]]
    ) -> tuple[dict[StateId, StateId], list[StateId]]:
        conflicted = {
            s
            for s, (frag, links) in extra.items()
            if s in self._states and self._states[s] != (frag, dict(links))
        }
        changed = True
        while changed:
            changed = False
            for s, (_, links) in extra.items():
                if s in conflicted or s not in self._states:
                    continue
                if any(t in conflicted for t in links.values()):
                    conflicted.add(s)
                    changed = True
        rename: dict[StateId, StateId] = {}
        for s in sorted(conflicted):
            name = self.fresh()
            while name in extra or name in rename.values():
                name = self.fresh()
            rename[s] = name
        new: list[StateId] = []
        for s, (frag, links) in extra.items():
            new_id = rename.get(s, s)
            new_links = {w: rename.get(t, t) for w, t in links.items()}
            if new_id in self._states:
                assert self._states[new_id] == (frag, new_links)
            else:
                new.append(new_id)
            self._states[new_id] = (frag, new_links)
        return rename, new

    def _classify(self, new: list[StateId]) -> None:
        """Class ids for states just merged in, from one refinement of them
        jointly with a representative of every known class."""
        if not new:
            return
        fresh = set(new)
        known = len(self._reps)

        def rep(t: StateId) -> StateId:
            return t if t in fresh else self._reps[self._class[t]]

        joint = {}
        for s in self._reps + new:
            frag, links = self._states[s]
            joint[s] = (frag, {w: rep(t) for w, t in links.items()})
        _, block = bisim_minimize(Coalgebra.view(joint))
        class_of_block = {block[r]: c for c, r in enumerate(self._reps)}
        for s in new:
            c = class_of_block.setdefault(block[s], len(self._reps))
            if c == len(self._reps):
                self._reps.append(s)
            self._class[s] = c
        for c in range(known, len(self._reps)):
            self._table[self._signature(*self._states[self._reps[c]])] = c

    def _signature(self, fragment: TreeNW, links: Mapping[Word, StateId]) -> tuple:
        return fragment, tuple(self._class[links[w]] for w in sorted(fragment.nw_leaves))

    def fresh(self) -> StateId:
        while True:
            name = f"t{self._counter}"
            self._counter += 1
            if name not in self._states:
                return name

    def add(self, fragment: TreeNW, links: Mapping[Word, StateId]) -> StateId:
        """Store a new state whose links lead to stored states."""
        sid = self.fresh()
        fragment, links = validated_destructor(sid, fragment, links, self._states)
        _check_labels(fragment)
        signature = self._signature(fragment, links)
        c = self._table.setdefault(signature, len(self._reps))
        if c == len(self._reps):
            self._reps.append(sid)
        self._states[sid] = (fragment, links)
        self._class[sid] = c
        return sid

    def intern(self, node: PNode) -> StateId:
        fragment, links = flatten(node)
        return self.add(fragment, links)

    def materialize(self, state: StateId) -> PNode:
        fragment, links = self._states[state]
        return to_nested(fragment, links)

    def state_fragment(self, state: StateId) -> TreeNW:
        return self._states[state][0]

    def proof(self, node: PNode) -> ProofGraph:
        return self.view(self.intern(node))


def subproof(pg: ProofGraph, node: Word) -> ProofGraph:
    """The proof rooted at a node of the root fragment.

    A star leaf yields the linked state's proof; an inner node becomes
    a fresh state carrying the carved-out part of the fragment.
    """
    frag = pg.fragment(pg.root)
    if node not in frag.nodes:
        raise UnknownNode(f"node {format_word(node)} not in root fragment")
    links = pg.links(pg.root)
    if node in frag.nw_leaves:
        return pg.at(links[node])
    arena = Arena()
    arena.include(pg)
    nested = subtree_at(to_nested(frag, links), node)
    assert isinstance(nested, PNode)
    return arena.proof(nested)
