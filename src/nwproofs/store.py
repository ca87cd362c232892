"""The rewriting side of the kernel; nothing in it is needed to check a proof.

It holds the nested view of a fragment (:class:`PNode` with
:class:`PLink` leaves) and its conversions to and from the fragment's
preorder arrays,
bisimulation (:func:`bisim_minimize`, and :func:`canonical_form` built
on it), and :class:`Arena`, the hash-consed store in which ``extend``,
``cuts_up`` and the admissible moves keep the proofs they make, and
whose classes are bisimulation classes.  The store caches
which of its states passed the checker, and what the checker decided,
in one pair of tables per calculus object; :func:`check` and the
checks of ``extend`` are the places that read or write them.
Sharing them across checks is sound: a stored state never changes, so
a state that passed still passes, and whether an instance, or a
fragment over given leaf sequents, passes depends on the calculus
alone.  Which table may answer for which calculus is decided by
``extend``, not here.  A pass is keyed ``(tree, leaves)``, the leaf
sequents in leaf order.  A copied-in state shares its links unless an
id is renamed; a translation step hands them back, and none is written.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from .calculus import CheckReport, LocalProgressCalculus, ProofGraph, UnknownNode
from .calculus import _check_labels, check_proof_graph
from .coalgebra import Coalgebra, StateId, root_first_order, validated_destructor
from .trees import EPSILON, STAR, TreeNW, Word, format_word

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
    links: Mapping[Word, StateId],
    node: Callable[[Any, str, tuple], PNode] = PNode,
) -> PNode:
    """The nested view of a fragment, built from its preorder arrays,
    premises before conclusions and left to right; ``node(sequent, rule,
    premises)`` makes each proper node, so a rewrite can act on every node
    as it is built."""
    labels, arities = fragment.key
    targets = iter([links[w] for w in fragment.leaf_order])
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


def flatten(node: PNode) -> tuple[TreeNW, dict[Word, StateId]]:
    """The fragment and links of a nested view: its nodes laid out in
    preorder on an explicit stack, straight into a fragment's arrays."""
    labels: list[Any] = []
    arities: list[int] = []
    targets: list[StateId] = []  # of the links, in preorder
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
    fragment = TreeNW(labels, arities)
    return fragment, dict(zip(fragment.leaf_order, targets))


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


def bisim_minimize(coalg: Coalgebra) -> tuple[Coalgebra, dict[StateId, StateId]]:
    """Quotient by the coarsest bisimulation.

    States are identified iff their fragments are equal and their links
    lead to pairwise identified states; the refinement is seeded by
    fragment equality.  A block fixes its fragment, and so its leaf
    words, so a signature keeps only block ids, in leaf order.  Returns
    the quotient and the renaming map.
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
            frag, links = coalg._dest[s]
            sig = (block[s], tuple([block[links[w]] for w in frag.leaf_order]))
            new_block[s] = sigs.setdefault(sig, len(sigs))
        if new_block == block:
            break
        block = new_block
    members: dict[int, list[StateId]] = {}
    for s in states:
        members.setdefault(block[s], []).append(s)
    name = {b: min(ms) for b, ms in members.items()}
    renaming = {s: name[block[s]] for s in states}
    dest = {}
    for b, ms in members.items():
        rep = min(ms)
        frag, links = coalg._dest[rep]
        dest[name[b]] = (frag, {w: renaming[t] for w, t in links.items()})
    # each block's fragment and links come from a state of ``coalg``
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
        (frag.key, tuple((w, index[links[w]]) for w in frag.leaf_order))
        for frag, links in (small._dest[s] for s in order)
    )


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

    The store also keeps, per calculus object, the states whose proofs
    passed :func:`check` and the table of instances and fragments the
    checker decided.
    """

    def __init__(self) -> None:
        self._states: dict[StateId, tuple[TreeNW, dict[Word, StateId]]] = {}
        self._counter = 0
        self.graph = Coalgebra.view(self._states)
        self._class: dict[StateId, int] = {}
        self._reps: list[StateId] = []  # one state of each class, by class id
        self._table: dict[tuple, int] = {}  # signature -> class id
        self._checked: dict[int, tuple[LocalProgressCalculus, set[StateId], dict]] = {}

    def view(self, state: StateId) -> ProofGraph:
        return ProofGraph._view(self.graph, state, self)

    def class_of(self, state: StateId) -> int:
        return self._class[state]

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
        """Copy in the part of ``pg`` reachable from its root; returns the
        root's id in this store."""
        if pg.store is self:
            return pg.root
        part = {s: pg.graph._dest[s] for s in root_first_order(pg.graph, pg.root)}
        rename, new = self._merge(part)
        self._classify(new)
        return rename.get(pg.root, pg.root)

    def _merge(
        self, extra: Mapping[StateId, tuple[TreeNW, Mapping[Word, StateId]]]
    ) -> tuple[dict[StateId, StateId], list[StateId]]:
        conflicted = {
            s
            for s, (frag, links) in extra.items()
            if s in self._states and self._states[s] != (frag, links)
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
            new_links = {w: rename.get(t, t) for w, t in links.items()} if rename else links
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
            if not fresh.issuperset(links.values()) and any(rep(t) != t for t in links.values()):
                links = {w: rep(t) for w, t in links.items()}
            joint[s] = (frag, links)
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
        return fragment, tuple([self._class[links[w]] for w in fragment.leaf_order])

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


def subproof(pg: ProofGraph, node: Word) -> ProofGraph:
    """The proof rooted at a node of the root fragment.

    A star leaf yields the linked state's proof; an inner node becomes
    a fresh state carrying the carved-out part of the fragment.
    """
    frag = pg.fragment(pg.root)
    if node not in frag:
        raise UnknownNode(f"node {format_word(node)} not in root fragment")
    links = pg.links(pg.root)
    if node in frag.nw_leaves:
        return pg.at(links[node])
    arena = Arena()
    arena.include(pg)
    nested = subtree_at(to_nested(frag, links), node)
    assert isinstance(nested, PNode)
    return arena.proof(nested)
