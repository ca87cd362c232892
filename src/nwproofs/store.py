"""The rewriting side of the kernel; nothing in it is needed to check a proof.

It holds the nested view of a fragment (:class:`PNode` with
:class:`PLink` leaves) and its conversions to and from the fragment's
preorder arrays,
bisimulation (:func:`bisim_partition`, and :func:`bisim_minimize` and
:func:`canonical_form` built on it), and :class:`Arena`, the hash-consed store in which ``extend``,
``cuts_up`` and the admissible moves keep the proofs they make.  The
store is a minimal coalgebra: no two of its states are bisimilar, so a
state id is a bisimulation class, and a nested view read from the store
names stored states only.  The store caches
which of its states passed the checker, and what the checker decided,
in one pair of tables per calculus object; :func:`check` and the
checks of ``extend`` are the places that read or write them.
Sharing them across checks is sound: a stored state never changes, so
a state that passed still passes, and whether an instance, or a
fragment over given leaf sequents, passes depends on the calculus
alone.  Which table may answer for which calculus is decided by
``extend``, not here.  A pass is keyed ``(tree, leaves)``, the leaf
sequents in leaf order.  A copied-in state shares its tuple of targets
unless one of them is renamed or redirected to its class's stored
state; a translation step hands it back, and none is written.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Iterable
from dataclasses import dataclass, field
from typing import Any

from .calculus import CheckReport, LocalProgressCalculus, ProofGraph
from .calculus import _check_labels, check_proof_graph
from .coalgebra import Coalgebra, Destructor, StateId, root_first_order, validated_destructor
from .trees import EPSILON, STAR, TreeNW, Word

# -- nested fragment views ------------------------------------------------
#
# Rewrites of a single fragment are much easier over a recursive view
# than over preorder arrays; links stay symbolic leaves.


@dataclass(frozen=True)
class PLink:
    target: StateId


@dataclass(frozen=True)
class PNode:
    sequent: Any
    rule: str
    children: tuple["PNode | PLink", ...] = ()
    # computed once, from the children's heights, so reading it never recurses
    height: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        height = 0
        for c in self.children:
            h = c.height + 1 if isinstance(c, PNode) else 1
            if h > height:
                height = h
        object.__setattr__(self, "height", height)

    def count(self, rule: str) -> int:
        own = 1 if self.rule == rule else 0
        return own + sum(c.count(rule) for c in self.children if isinstance(c, PNode))


def to_nested(
    fragment: TreeNW,
    targets: Iterable[StateId],
    node: Callable[[Any, str, tuple], PNode] = PNode,
) -> PNode:
    """The nested view of a fragment whose star leaves link to ``targets``
    in leaf order, built from its preorder arrays, premises before
    conclusions and left to right; ``node(sequent, rule, premises)`` makes
    each proper node, so a rewrite can act on every node as it is built."""
    labels, arities = fragment.key
    targets = iter(targets)
    done: list[PNode | PLink] = []  # the finished subtrees, in that order
    open_: list[tuple[int, int]] = []  # (position, len(done) before its premises)
    for p, label in enumerate(labels):
        if arities[p]:
            open_.append((p, len(done)))
            continue
        done.append(PLink(next(targets)) if label is STAR else node(*label, ()))
        while open_ and len(done) - open_[-1][1] == arities[open_[-1][0]]:
            q, base = open_.pop()
            premises = tuple(done[base:])
            del done[base:]
            done.append(node(*labels[q], premises))
    (top,) = done
    assert isinstance(top, PNode)
    return top


def flatten(node: PNode) -> Destructor:
    """The fragment and targets of a nested view: its nodes laid out in
    preorder on an explicit stack, straight into a fragment's arrays."""
    labels: list[Any] = []
    arities: list[int] = []
    targets: list[StateId] = []  # of the links, in preorder, which is leaf order
    stack: list[PNode | PLink] = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, PLink):
            labels.append(STAR)
            arities.append(0)
            targets.append(n.target)
        else:
            labels.append((n.sequent, n.rule))
            arities.append(len(n.children))
            stack.extend(reversed(n.children))
    return TreeNW(labels, arities), tuple(targets)


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


# -- bisimulation ----------------------------------------------------------


def bisim_partition(coalg: Coalgebra) -> dict[StateId, int]:
    """The coarsest bisimulation, as a block id per state.

    States are identified iff their fragments are equal and their targets
    are pairwise identified states; the refinement is seeded by fragment
    equality, and a signature keeps only block ids, in leaf order.
    """
    states = sorted(coalg.states)
    block: dict[StateId, int] = {}
    by_frag: dict[Any, int] = {}
    for s in states:
        # a fragment hashes once, where its key tuple would hash every label
        block[s] = by_frag.setdefault(coalg._dest[s][0], len(by_frag))
    while True:
        sigs: dict[tuple, int] = {}
        new_block: dict[StateId, int] = {}
        for s in states:
            sig = (block[s], tuple([block[t] for t in coalg._dest[s][1]]))
            new_block[s] = sigs.setdefault(sig, len(sigs))
        if new_block == block:
            return block
        block = new_block


def bisim_minimize(coalg: Coalgebra) -> tuple[Coalgebra, dict[StateId, StateId]]:
    """Quotient by the coarsest bisimulation (:func:`bisim_partition`),
    each block named by its least state.  Returns the quotient and the
    renaming map."""
    block = bisim_partition(coalg)  # its states in sorted order
    members: dict[int, list[StateId]] = {}
    for s in block:
        members.setdefault(block[s], []).append(s)
    name = {b: min(ms) for b, ms in members.items()}
    renaming = {s: name[block[s]] for s in block}
    dest = {}
    for b, ms in members.items():
        rep = min(ms)
        frag, targets = coalg._dest[rep]
        dest[name[b]] = (frag, tuple([renaming[t] for t in targets]))
    # each block's fragment and targets come from a state of ``coalg``
    return Coalgebra.view(dest), renaming


def canonical_form(coalg: Coalgebra, state: StateId) -> tuple:
    """A hashable key equal for exactly the bisimilar rooted machines.

    Minimizes the part reachable from ``state`` and serializes it in
    a deterministic root-first order, so the key doubles as a memo key
    for corecursion and as an isomorphism test.
    """
    part = Coalgebra({s: coalg._dest[s] for s in root_first_order(coalg, state)})
    small, renaming = bisim_minimize(part)
    order = root_first_order(small, renaming[state])
    index = {s: i for i, s in enumerate(order)}
    return tuple(
        (frag.key, tuple([index[t] for t in targets]))
        for frag, targets in (small._dest[s] for s in order)
    )


class Arena:
    """The append-only, hash-consed state store of one rewriting computation.

    The store is a minimal coalgebra: no two stored states are bisimilar,
    so a state's id is its bisimulation class, and two stored states have
    the same id exactly when their rooted proofs are bisimilar.  A state
    made by :meth:`add` links only to stored states, so it is bisimilar
    to a stored state exactly when that state has its destructor, the
    fragment plus the target ids in leaf order; a table maps each
    destructor to its state (hash-consing after Filliâtre and Conchon,
    "Type-safe modular hash-consing", 2006).  A graph brought in by
    :meth:`include` may be cyclic; its states are refined once, jointly
    with the stored ones, into classes alone, with no quotient built, and
    only one state of each new class is copied in.

    The store also keeps, per calculus object, the states whose proofs
    passed :func:`check` and the table of instances and fragments the
    checker decided.  A passed fragment is indexed there by node count
    and root label, so a later check skips any subtree equal to it, over
    the same leaf sequents, whichever state it sits in.
    """

    def __init__(self) -> None:
        self._states: dict[StateId, Destructor] = {}
        self._counter = 0
        self.graph = Coalgebra.view(self._states)
        self._table: dict[Destructor, StateId] = {}  # destructor -> the state with it
        self._checked: dict[int, tuple[LocalProgressCalculus, set[StateId], dict]] = {}

    def view(self, state: StateId) -> ProofGraph:
        return ProofGraph._view(self.graph, state, self)

    def certified(self, calc: LocalProgressCalculus) -> set[StateId]:
        """States whose proofs passed the check of this calculus object."""
        return self._tables(calc)[1]

    def decided(self, calc: LocalProgressCalculus) -> dict:
        """The instances and fragments decided with this calculus object,
        as :func:`~nwproofs.calculus.check_proof_fragment` keeps them."""
        return self._tables(calc)[2]

    def _tables(self, calc: LocalProgressCalculus) -> tuple[Any, set[StateId], dict]:
        # keyed by identity, and holding ``calc`` so that its id stays unique
        if id(calc) not in self._checked:
            self._checked[id(calc)] = (calc, set(), {})
        return self._checked[id(calc)]

    def include(self, pg: ProofGraph) -> StateId:
        """Copy in the part of ``pg`` reachable from its root, one state
        per bisimulation class that the store lacks; returns the id of the
        root's class.  An incoming id that the store holds is renamed.
        Each class is represented by its stored state if it has one, else
        by its first incoming state in root-first order."""
        if pg.store is self:
            return pg.root
        order = root_first_order(pg.graph, pg.root)
        rename = {s: self.fresh(pg.graph._dest) for s in order if s in self._states}
        joint = dict(self._states)
        for s in order:
            frag, targets = pg.graph._dest[s]
            if rename:
                targets = tuple([rename.get(t, t) for t in targets])
            joint[rename.get(s, s)] = (frag, targets)
        block = bisim_partition(Coalgebra.view(joint))  # the classes, and no quotient
        rep = {block[s]: s for s in self._states}
        incoming = [rename.get(s, s) for s in order]
        for s in incoming:
            rep.setdefault(block[s], s)
        for s in incoming:
            if rep[block[s]] != s:
                continue
            dest = frag, targets = joint[s]
            if any(rep[block[t]] != t for t in targets):
                dest = frag, tuple([rep[block[t]] for t in targets])
            self._states[s] = dest
            self._table[dest] = s
        return rep[block[incoming[0]]]

    def fresh(self, avoid: Container[StateId] = ()) -> StateId:
        """A name that no stored state has, nor any in ``avoid``."""
        while True:
            name = f"t{self._counter}"
            self._counter += 1
            if name not in self._states and name not in avoid:
                return name

    def add(self, fragment: TreeNW, targets: tuple[StateId, ...]) -> StateId:
        """The id of a state whose targets are stored states: the stored
        state with its destructor, or else a new one."""
        dest = validated_destructor("new", fragment, targets, self._states)
        _check_labels(fragment)
        sid = self._table.get(dest)
        if sid is None:
            sid = self._table[dest] = self.fresh()
            self._states[sid] = dest
        return sid

    def intern(self, node: PNode) -> StateId:
        return self.add(*flatten(node))

    def materialize(self, state: StateId) -> PNode:
        return to_nested(*self._states[state])

    def state_fragment(self, state: StateId) -> TreeNW:
        return self._states[state][0]

    def proof(self, node: PNode) -> ProofGraph:
        return self.view(self.intern(node))


def check(calc: LocalProgressCalculus, pg: ProofGraph) -> CheckReport:
    """The checker, skipping the states of a view whose proofs passed with
    this calculus object before, so a certified root needs no walk; a pass
    certifies the states it walked.  A store never changes a stored state,
    so a certified state reaches only certified states, and the findings
    and their order are those of a walk over everything.  A graph outside
    a store is checked whole."""
    if pg.store is None:
        return check_proof_graph(calc, pg)
    certified = pg.store.certified(calc)
    if pg.root in certified:
        return CheckReport()
    report = check_proof_graph(calc, pg, certified, decided=pg.store.decided(calc))
    if report.ok:
        certified.update(report.states)
    return report

