"""Labelled trees carrying a partition into finite, rooted, convex blocks.

Each block of the partition is one finite piece of a (conceptually
infinite) tree; block roots mark where one piece ends and the next one
starts.  The pair (piece at the root, subtree per glue point) is a
destructor, and ``construct`` is its inverse, so these trees are the
concrete carrier that unfoldings of finite coalgebras land in.

A tree is built in one place, :meth:`FFTree._build`, which indexes the
members of every block; the constructor validates its input first, and
``subtree`` and ``construct`` call the builder directly because their
input is valid by construction.

The unfolding side of a coalgebra lives here too, outside what the
checker loads: root paths through a machine (:func:`subelement`, next
to its destructor-driven twin :func:`ff_subelement`), the layout of its
first layers as one tree (:func:`unfold`, through :func:`unfold_by`,
which takes any destructor, so a translation that is never closed into
a machine, :mod:`nwproofs.translate`, unfolds through the same code),
and the paper's pre-proof definitions, which partition such a tree
along its progress edges (:func:`compute_fragmentation`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .calculus import (
    CalculusError,
    CheckReport,
    LocalProgressCalculus,
    ProofGraph,
    _sequent_rule,
    check_proof_graph,
)
from .calculus import UnknownNode as UnknownProofNode  # not this module's UnknownNode
from .coalgebra import BudgetError, BudgetExceeded, Coalgebra, CoalgebraError, StateId
from .trees import EPSILON, STAR, Label, TreeError, TreeNW, Truncation, Word, format_word, tree_arity

RootPath = tuple[Word, ...]


def prefix_le(w: Word, v: Word) -> bool:
    """True iff ``w`` is a prefix of ``v`` (the tree ancestor order)."""
    return len(w) <= len(v) and v[: len(w)] == w


def disjoint(w: Word, v: Word) -> bool:
    """True iff neither word is a prefix of the other."""
    return not prefix_le(w, v) and not prefix_le(v, w)


def strip_prefix(w: Word, v: Word) -> Word:
    if not prefix_le(w, v):
        raise ValueError(f"{w!r} is not a prefix of {v!r}")
    return v[len(w) :]


def word_of(path: RootPath) -> Word:
    """Concatenate the words of a root path into a single tree address."""
    out: list[int] = []
    for w in path:
        out.extend(w)
    return tuple(out)


class FFTreeError(TreeError):
    pass


class NotAPartition(FFTreeError):
    pass


class NoRoot(FFTreeError):
    pass


class NotConvex(FFTreeError):
    pass


class UnknownNode(FFTreeError):
    pass


class NotARoot(FFTreeError):
    pass


class TruncationNotAllowed(FFTreeError):
    pass


class FFTree:
    """An immutable labelled tree with a fragmentation partition.

    The partition is stored as a node-to-block-root map, so membership
    and block-root queries are O(1), and as the member list of each
    block, so a block or a subtree is read without scanning the tree.
    """

    __slots__ = ("_labels", "_root_of", "_blocks", "_succ")

    def __init__(
        self,
        labels: Mapping[Word, Label],
        partition: Iterable[Iterable[Word]] | Mapping[Word, Any],
    ):
        labels = dict(labels)
        arity = tree_arity(labels)
        for w, lab in labels.items():
            if lab is STAR:
                raise FFTreeError("star labels are reserved for fragment leaves", w)
            if isinstance(lab, Truncation) and arity[w]:
                raise TruncationNotAllowed("truncation marker on an inner node", w)

        if isinstance(partition, Mapping):
            grouped: dict[Any, list[Word]] = {}
            for node, cls in partition.items():
                grouped.setdefault(cls, []).append(node)
            classes = list(grouped.values())
        else:
            classes = [list(cls) for cls in partition]

        root_of: dict[Word, Word] = {}
        for cls in classes:
            if not cls:
                continue
            members = sorted(cls, key=len)
            member_set = set(members)
            root = members[0]
            for v in members:
                if v not in labels:
                    raise NotAPartition("partition mentions a non-node", v)
                if v in root_of:
                    raise NotAPartition("node in two blocks", v)
                if not prefix_le(root, v):
                    raise NoRoot(f"block {sorted(map(format_word, members))} has no minimum")
            for v in members:
                # convexity: by induction on length, each member's parent
                # is in the block, up to the root
                if v != root and v[:-1] not in member_set:
                    raise NotConvex("node missing from its block", v[:-1])
                root_of[v] = root
        missing = set(labels) - set(root_of)
        if missing:
            raise NotAPartition("partition does not cover every node", min(missing, key=len))
        self._build(labels, root_of)

    def _build(self, labels: dict[Word, Label], root_of: dict[Word, Word]) -> "FFTree":
        """Take a valid tree and partition; index each block's members and
        the block roots right above each block."""
        self._labels = labels
        self._root_of = root_of
        blocks: dict[Word, list[Word]] = {}
        for v, r in root_of.items():
            blocks.setdefault(r, []).append(v)
        self._blocks = blocks
        succ: dict[Word, list[Word]] = {r: [] for r in blocks}
        for r in blocks:
            if r != EPSILON:
                succ[root_of[r[:-1]]].append(r)
        self._succ = {r: tuple(sorted(kids)) for r, kids in succ.items()}
        return self

    # -- basic views ---------------------------------------------------

    @property
    def nodes(self) -> frozenset[Word]:
        return frozenset(self._labels)

    def label(self, w: Word) -> Label:
        try:
            return self._labels[w]
        except KeyError:
            raise UnknownNode("no such node", w) from None

    def labels(self) -> dict[Word, Label]:
        return dict(self._labels)

    def arity(self, w: Word) -> int:
        if w not in self._labels:
            raise UnknownNode("no such node", w)
        k = 0
        while w + (k,) in self._labels:
            k += 1
        return k

    def partition(self) -> frozenset[frozenset[Word]]:
        return frozenset(frozenset(b) for b in self._blocks.values())

    def root_map(self) -> dict[Word, Word]:
        return dict(self._root_of)

    # -- roots and measures --------------------------------------------

    def roots(self) -> frozenset[Word]:
        return frozenset(self._succ)

    def frag_root(self, w: Word) -> Word:
        if w not in self._root_of:
            raise UnknownNode("no such node", w)
        return self._root_of[w]

    def imm_succ(self, w: Word, v: Word) -> bool:
        """True iff ``v`` is a block root immediately above the root ``w``."""
        if w not in self._root_of or v not in self._root_of:
            raise UnknownNode("no such node", w if w not in self._root_of else v)
        return v in self._succ and v != EPSILON and self._root_of[v[:-1]] == w

    def fheight(self, w: Word) -> int:
        """Number of block roots strictly below ``w``."""
        root = self.frag_root(w)
        n = 0 if root == w else 1
        while root != EPSILON:
            root = self._root_of[root[:-1]]
            n += 1
        return n

    def root_path_of(self, w: Word) -> RootPath:
        """The chain of root-to-root steps reaching the block root ``w``."""
        if w not in self._succ:
            raise NotARoot("not a block root", w)
        parts: list[Word] = []
        while w != EPSILON:
            below = self._root_of[w[:-1]]
            parts.append(strip_prefix(below, w))
            w = below
        return tuple(reversed(parts))

    # -- fragments and subtrees ----------------------------------------

    def tree_fragment(self, w: Word) -> TreeNW:
        """The finite piece rooted at ``w``: its block plus star leaves."""
        if w not in self._succ:
            raise NotARoot("not a block root", w)
        n = len(w)
        out = {v[n:]: self._labels[v] for v in self._blocks[w]}
        for v in self._succ[w]:
            out[v[n:]] = STAR
        return TreeNW(out)

    def subtree(self, w: Word) -> "FFTree":
        """The fragmented tree generated at block root ``w``."""
        if w not in self._succ:
            raise NotARoot("not a block root", w)
        n = len(w)
        labels: dict[Word, Label] = {}
        root_of: dict[Word, Word] = {}
        roots = [w]
        for r in roots:
            for v in self._blocks[r]:
                labels[v[n:]] = self._labels[v]
                root_of[v[n:]] = r[n:]
            roots.extend(self._succ[r])
        return object.__new__(FFTree)._build(labels, root_of)

    def destruct(self) -> tuple[TreeNW, dict[Word, "FFTree"]]:
        """Split into the root piece and the subtree glued at each star."""
        frag = self.tree_fragment(EPSILON)
        return frag, {w: self.subtree(w) for w in self._succ[EPSILON]}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FFTree)
            and self._labels == other._labels
            and self._root_of == other._root_of
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._labels.items()), frozenset(self._root_of.items())))

    def __repr__(self) -> str:
        return f"FFTree({len(self._labels)} nodes, {len(self._succ)} blocks)"


def validate_fftree(
    labels: Mapping[Word, Label],
    partition: Iterable[Iterable[Word]] | Mapping[Word, Any],
) -> FFTree:
    """Check the fragmentation properties and wrap the result."""
    return FFTree(labels, partition)


def construct(fragment: TreeNW, parts: Mapping[Word, FFTree]) -> FFTree:
    """Glue ``parts[w]`` over each star leaf ``w`` of ``fragment``.

    Inverse of :meth:`FFTree.destruct`: the proper nodes of the fragment
    become one block and each glued tree keeps its own fragmentation.
    """
    labels: dict[Word, Label] = {}
    root_of: dict[Word, Word] = {}
    for w in fragment.proper_nodes:
        labels[w] = fragment.label(w)
        root_of[w] = EPSILON
    for w in fragment.leaf_order:  # the first missing leaf is the least
        if w not in parts:
            raise ValueError(f"no tree glued at {format_word(w)}")
        sub = parts[w]
        for v, lab in sub._labels.items():
            labels[w + v] = lab
        for v, r in sub._root_of.items():
            root_of[w + v] = w + r
    return object.__new__(FFTree)._build(labels, root_of)


# -- destructor-driven navigation, written exactly as the recursive
#    clauses so they can serve as an independent path in tests ----------


def ff_is_root_path(tree: FFTree, path: RootPath) -> bool:
    if not path:
        return True
    _, parts = tree.destruct()
    return path[0] in parts and ff_is_root_path(parts[path[0]], path[1:])


def ff_subelement(tree: FFTree, path: RootPath) -> FFTree:
    if not path:
        return tree
    _, parts = tree.destruct()
    if path[0] not in parts:  # its keys are the fragment's star leaves
        raise NotARoot("path leaves the tree", path[0])
    return ff_subelement(parts[path[0]], path[1:])


def ff_fragment(tree: FFTree, path: RootPath) -> TreeNW:
    return ff_subelement(tree, path).tree_fragment(EPSILON)


def ff_root_paths(tree: FFTree) -> list[RootPath]:
    """All root paths, enumerated from the destructor side."""
    out: list[RootPath] = [()]
    frag, parts = tree.destruct()
    for w in frag.leaf_order:
        out.extend((w,) + rest for rest in ff_root_paths(parts[w]))
    return out


# -- root paths through a coalgebra, and its unfolding -------------------


class NotARootPath(CoalgebraError):
    pass


def is_root_path(coalg: Coalgebra, state: StateId, path: RootPath) -> bool:
    """Does the sequence of leaf words trace through the machine?"""
    try:
        subelement(coalg, state, path)
    except NotARootPath:
        return False
    return True


def subelement(coalg: Coalgebra, state: StateId, path: RootPath) -> StateId:
    """The state reached by following ``path`` from ``state``."""
    coalg._check(state)
    for w in path:
        frag, targets = coalg._dest[state]
        p = frag._positions().get(w, 0)  # 0 is the root, which is no star
        if frag._labels[p] is not STAR:
            raise NotARootPath(f"{format_word(w)} is not a star leaf of state {state!r}")
        state = targets[bisect_left(frag._stars, p)]  # its rank among the star leaves
    return state


def fragment_at(coalg: Coalgebra, state: StateId, path: RootPath) -> TreeNW:
    return coalg.fragment(subelement(coalg, state, path))


@dataclass(frozen=True)
class UnfoldBudget:
    """Bounds for unfolding: layers of fragments, and total tree nodes."""

    max_depth: int
    max_nodes: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_depth < 1 or self.max_nodes < 1:
            raise BudgetError("budget bounds must be at least 1")


@dataclass(frozen=True)
class Unfolding:
    """A depth-truncated unfolding plus where it was cut off."""

    tree: FFTree
    truncations: Mapping[Word, StateId]

    @property
    def complete_nodes(self) -> frozenset[Word]:
        return self.tree.nodes - frozenset(self.truncations)


def unfold(coalg: Coalgebra, state: StateId, budget: UnfoldBudget) -> Unfolding:
    """Lay out ``budget.max_depth`` layers of the machine's fragments as
    one tree; see :func:`unfold_by`."""
    coalg._check(state)
    return unfold_by(lambda s, at: coalg._dest[s], state, budget, lambda s: s)


def unfold_by(
    destruct: Callable[[Any, Word], tuple[TreeNW, Sequence[Any]]],
    root: Any,
    budget: UnfoldBudget,
    name: Callable[[Any], str],
) -> Unfolding:
    """Lay out ``budget.max_depth`` layers of fragments as one tree.

    ``destruct(x, at)`` gives the fragment of a value placed at word
    ``at`` and its successors in leaf order.  Layer k holds the fragments
    reached by root paths of length k; beyond the last layer each
    pending glue point becomes a truncation leaf carrying its value's
    ``name`` and root label, taken in frontier order.
    """
    labels: dict[Word, Any] = {}
    root_of: dict[Word, Word] = {}
    truncations: dict[Word, str] = {}
    frontier: list[tuple[Word, Any]] = [(EPSILON, root)]
    for _ in range(budget.max_depth):
        next_frontier: list[tuple[Word, Any]] = []
        for base, x in frontier:
            frag, succ = destruct(x, base)
            for u, label in frag.labels().items():
                if label is not STAR:
                    labels[base + u] = label
                    root_of[base + u] = base
            if len(labels) > budget.max_nodes:
                raise BudgetExceeded(f"unfolding exceeds {budget.max_nodes} nodes")
            for w, y in zip(frag.leaf_order, succ):
                next_frontier.append((base + w, y))
        frontier = next_frontier
    for base, x in frontier:
        truncations[base] = name(x)
        labels[base] = Truncation(truncations[base], destruct(x, base)[0].label(EPSILON))
        root_of[base] = base
        if len(labels) > budget.max_nodes:
            raise BudgetExceeded(f"unfolding exceeds {budget.max_nodes} nodes")
    return Unfolding(FFTree(labels, root_of), truncations)


# -- pre-proofs: the paper's definitions, over words ------------------------


class NotAPreProof(CalculusError):
    pass


def check_pre_proof(calc: LocalProgressCalculus, pg: ProofGraph) -> CheckReport:
    """The rule findings of :func:`~nwproofs.calculus.check_proof_graph`:
    is every proper node a rule instance, wherever its glue points sit?"""
    report = check_proof_graph(calc, pg)
    return CheckReport([f for f in report.findings if f.condition == "rule"])


def _premises(tree: TreeNW, w: Word, leaf_sequents: Mapping[Word, Any]) -> tuple:
    """The premise sequents of proper node ``w``: a star leaf's from
    ``leaf_sequents``, a truncation's recorded one, else the child's own."""
    premises = []
    for child in tree.children(w):
        label = tree.label(child)
        if label is STAR:
            if child not in leaf_sequents:
                raise CalculusError(f"no sequent supplied for leaf {format_word(child)}")
            premises.append(leaf_sequents[child])
        elif isinstance(label, Truncation):
            premises.append(label.label[0])
        else:
            premises.append(_sequent_rule(label, child)[0])
    return tuple(premises)


def progressing(calc: LocalProgressCalculus, pg: ProofGraph, state: StateId, node: Word) -> bool:
    """Is ``node`` a progressing premise of its parent in this fragment?"""
    frag = pg.fragment(state)
    if node not in frag.nodes:
        raise UnknownProofNode(f"node {format_word(node)} not in state {state!r}")
    if node == EPSILON:
        return False
    sequent, rule = _sequent_rule(frag.label(node[:-1]), node[:-1])
    leaf_sequents = {w: pg.state_sequent(t) for w, t in pg.links(state).items()}
    premises = _premises(frag, node[:-1], leaf_sequents)
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
        sequent, rule = _sequent_rule(label, w)
        premises = _premises(tree, w, {})
        if not calc.is_instance(rule, premises, sequent):
            raise NotAPreProof(f"node {format_word(w)} is not an instance of {rule}")
        prog = calc.progress_set(rule, premises, sequent)
        for i, child in enumerate(tree.children(w)):
            parent_root[child] = child if i in prog else parent_root[w]
    return parent_root
