"""Labelled trees carrying a partition into finite, rooted, convex blocks,
and the layout of a machine's first layers as one such tree.

Each block of the partition is one finite piece of a (conceptually
infinite) tree; block roots mark where one piece ends and the next one
starts, and :meth:`FFTree.tree_fragment` reads the piece at a root with
star leaves where the next pieces are glued.  :func:`unfold` lays out
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
from typing import Any, Callable, Iterable, Mapping, Sequence

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
    """An immutable labelled tree with a fragmentation partition.

    The partition is stored as a node-to-block-root map, so membership
    and block-root queries are O(1), and as the member list of each
    block, so a block is read without scanning the tree.
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
                if v[: len(root)] != root:  # no member is shorter than the root
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

        # index each block's members, and the block roots right above each block
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
    """A depth-truncated unfolding plus where it was cut off."""

    tree: FFTree
    truncations: Mapping[Word, StateId]


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
    truncations: dict[Word, str] = {}
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
        truncations[base] = name(x)
        labels[base] = Truncation(truncations[base], destruct(x)[0].label(EPSILON))
        root_of[base] = base
        if len(labels) > budget.max_nodes:
            raise BudgetExceeded(f"unfolding exceeds {budget.max_nodes} nodes")
    return Unfolding(FFTree(labels, root_of), truncations)
