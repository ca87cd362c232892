"""Labelled trees carrying a partition into finite, rooted, convex blocks,
and the layout of a machine's first layers as one such tree.

Each block of the partition is one finite piece of a (conceptually
infinite) tree; block roots mark where one piece ends and the next one
starts, and :meth:`FFTree.tree_fragment` reads the piece at a root with
star leaves where the next pieces are glued.  A tree is given by its
labels and the block root of each node, the map that :func:`unfold_by`
builds and :meth:`FFTree.frag_root` reads back.  :func:`unfold` lays out
the first layers of a coalgebra through :func:`unfold_by`, which takes
any destructor, so a translation that is never closed into a machine,
:mod:`nwproofs.translate`, unfolds through the same code.

The paper's definitions over words and these trees (root paths, the
destructor and its inverse ``construct``, and the pre-proof definitions
that partition a tree along its progress edges) are a test reference,
``tests/paper_defs.py``: the kernel runs none of them, and this module
imports nothing from the checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .coalgebra import BudgetError, BudgetExceeded, Coalgebra, StateId
from .trees import EPSILON, STAR, Label, TreeError, TreeNW, Truncation, Word, format_word, tree_arity


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
    """An immutable labelled tree with a fragmentation partition, given as
    the root of each node's block.

    The constructor checks one local rule per node: its root is an
    ancestor-or-self that is its own root, and a node that is no root has
    its parent's root.  Then every block is finite, has its root as its
    least member, and is convex.  Each block's members are also listed,
    so a block is read without scanning the tree.
    """

    __slots__ = ("_labels", "_root_of", "_blocks", "_succ")

    def __init__(self, labels: Mapping[Word, Label], root_of: Mapping[Word, Word]):
        labels = dict(labels)
        arity = tree_arity(labels)
        for w, lab in labels.items():
            if lab is STAR:
                raise FFTreeError("star labels are reserved for fragment leaves", w)
            if isinstance(lab, Truncation) and arity[w]:
                raise TruncationNotAllowed("truncation marker on an inner node", w)
        root_of = dict(root_of)
        for w in root_of:
            if w not in labels:
                raise NotAPartition("partition names a non-node", w)
        if len(root_of) != len(labels):
            missing = next(w for w in labels if w not in root_of)
            raise NotAPartition("partition misses a node", missing)
        blocks: dict[Word, list[Word]] = {}
        for w, r in root_of.items():
            if root_of.get(r) != r or w[: len(r)] != r:
                raise NoRoot(f"block root {format_word(r)} is no ancestor-or-self block root", w)
            if w != r and root_of[w[:-1]] != r:
                raise NotConvex("node missing from its block", w[:-1])
            blocks.setdefault(r, []).append(w)
        # the block roots right above each block
        succ: dict[Word, list[Word]] = {r: [] for r in blocks}
        for r in blocks:
            if r != EPSILON:
                succ[root_of[r[:-1]]].append(r)
        self._labels = labels
        self._root_of = root_of
        self._blocks = blocks
        self._succ = {r: tuple(sorted(kids)) for r, kids in succ.items()}

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

    def roots(self) -> frozenset[Word]:
        return frozenset(self._succ)

    def frag_root(self, w: Word) -> Word:
        if w not in self._root_of:
            raise UnknownNode("no such node", w)
        return self._root_of[w]

    def tree_fragment(self, w: Word) -> TreeNW:
        """The finite piece rooted at ``w``: its block plus star leaves."""
        if w not in self._succ:
            raise NotARoot("not a block root", w)
        n = len(w)
        out = {v[n:]: self._labels[v] for v in self._blocks[w]}
        for v in self._succ[w]:
            out[v[n:]] = STAR
        return TreeNW(out)

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
    """A depth-truncated unfolding: its cut-off points are its
    :class:`~nwproofs.trees.Truncation` leaves, each naming its state."""

    tree: FFTree


def unfold(coalg: Coalgebra, state: StateId, budget: UnfoldBudget) -> Unfolding:
    """Lay out ``budget.max_depth`` layers of the machine's fragments as
    one tree; see :func:`unfold_by`."""
    coalg._check(state)
    return unfold_by(coalg._dest.__getitem__, state, budget, lambda s: s)


def unfold_by(
    destruct: Callable[[Any], tuple[TreeNW, Sequence[Any]]],
    root: Any,
    budget: UnfoldBudget,
    name: Callable[[Any], str],
) -> Unfolding:
    """Lay out ``budget.max_depth`` layers of fragments as one tree.

    ``destruct(x)`` gives the fragment of a value and its successors in
    leaf order; it is read again wherever the value recurs.  Layer k
    holds the fragments reached by root paths of length k; beyond the
    last layer each pending glue point becomes a truncation leaf carrying
    its value's ``name`` and root label, taken in frontier order, so a
    cut-off value's fragment is read for its root label only.
    """
    labels: dict[Word, Any] = {}
    root_of: dict[Word, Word] = {}
    frontier: list[tuple[Word, Any]] = [(EPSILON, root)]
    for _ in range(budget.max_depth):
        next_frontier: list[tuple[Word, Any]] = []
        for base, x in frontier:
            frag, succ = destruct(x)
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
        labels[base] = Truncation(name(x), destruct(x)[0].label(EPSILON))
        root_of[base] = base
        if len(labels) > budget.max_nodes:
            raise BudgetExceeded(f"unfolding exceeds {budget.max_nodes} nodes")
    return Unfolding(FFTree(labels, root_of))
