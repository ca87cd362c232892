"""Finite trees whose leaves may mark glue points, kept as preorder arrays.

A tree is one label and one arity per node, in preorder, so walks read
integer positions.  Nodes also have words (tuples of naturals): the root
is the empty word and the i-th child of ``w`` is ``w + (i,)``; the word
API reads an index that a word table fills and arrays build on first use.  A leaf labelled ``STAR`` is a
gluing point where another tree will be attached later; everything here
is immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection, Mapping, Sequence

Word = tuple[int, ...]
Label = Any
Labels = Mapping[Word, Label] | Sequence[Label]  # a word table, or labels in preorder

EPSILON: Word = ()


def format_word(w: Word) -> str:
    return ".".join(str(i) for i in w) if w else "."


class _Star:
    __slots__ = ()

    def __repr__(self) -> str:
        return "*"


#: Label marking a non-wellfounded leaf (a gluing point).
STAR = _Star()


@dataclass(frozen=True)
class Truncation:
    """Leaf marker for an unfolding cut short at a glue point.

    ``target`` names the coalgebra state the full tree would continue
    with; ``label`` carries that state's root label so shallow checks
    can still read the sequent behind the cut-off point.
    """

    target: str
    label: Label = None


class TreeError(ValueError):
    """A candidate tree violates a structural invariant."""

    def __init__(self, message: str, node: Word | None = None):
        super().__init__(message if node is None else f"{message} (at node {format_word(node)})")
        self.node = node


class NotPrefixClosed(TreeError):
    pass


class GappedChildren(TreeError):
    pass


class ViolatedRootLabel(TreeError):
    pass


class StarNotLeaf(TreeError):
    pass


def tree_arity(labels: Mapping[Word, Label]) -> dict[Word, int]:
    """The number of children of every node, once the words of ``labels``
    are known to form a tree: the root is present, every letter is a
    natural, every parent is present and children are numbered without
    gaps from 0."""
    if EPSILON not in labels:
        raise NotPrefixClosed("tree has no root", EPSILON)
    arity: dict[Word, int] = {w: 0 for w in labels}
    for w in labels:
        if any(i < 0 for i in w):
            raise TreeError("negative letter in node word", w)
        if w:
            if w[:-1] not in labels:
                raise NotPrefixClosed("parent node missing", w)
            arity[w[:-1]] += 1
    for w, k in arity.items():
        for i in range(k):
            if w + (i,) not in labels:
                raise GappedChildren(f"child {i} missing among {k}", w)
    return arity


def preorder_words(arities: Sequence[int], wanted: Collection[int] | None = None) -> dict[int, Word]:
    """The word of each position in ``wanted`` (of every node if None), from
    one walk in preorder over the arities of one tree."""
    words: dict[int, Word] = {}
    path: list[int] = []  # the word of the node at hand, after a 0 for the root
    upcoming = [(0, 0)]  # (depth, child index) of the nodes still to come, next last
    for p, k in enumerate(arities):
        depth, i = upcoming.pop()
        del path[depth:]
        path.append(i)
        if wanted is None or p in wanted:
            words[p] = tuple(path[1:])
        upcoming.extend([(depth + 1, j) for j in range(k - 1, -1, -1)])
    return words


class TreeNW:
    """A finite tree with labels and possibly star-marked leaves, built from
    a word table or from preorder arrays: one label and one arity per node.

    Checked at construction: the nodes form one tree, the root is not a
    star, and stars only occur at leaves.  ``_ends`` holds where each
    position's subtree ends, so a node's children sit at ``p + 1`` and
    each child's end; ``_stars`` holds the star leaves' positions in
    preorder, which is leaf order.  Walks read them and form no word; the
    word API's ``leaf_order`` and ``nw_leaves`` scan the word index."""

    __slots__ = ("_labels", "_arities", "_ends", "_stars", "_hash", "_index")

    def __init__(self, labels: Labels, arities: Sequence[int] | None = None):
        self._index: dict[Word, int] | None = None  # word -> position, built on first use
        if arities is None:  # a word table, sorted into preorder, which is word order
            arity = tree_arity(labels)
            words = sorted(arity)
            labels, arities = [labels[w] for w in words], [arity[w] for w in words]
            self._index = {w: p for p, w in enumerate(words)}
        if not labels or len(labels) != len(arities):
            raise TreeError("a tree needs a root, and one label and one arity per node")
        if labels[0] is STAR:
            raise ViolatedRootLabel("root may not be a star", EPSILON)
        ends, done = [0] * len(arities), []  # the subtrees finished, in reverse preorder
        for p in range(len(arities) - 1, -1, -1):  # a node ends where its last child ends
            k = arities[p]
            if not 0 <= k <= len(done) or (not p and k != len(done)):  # the root takes all
                raise TreeError(f"arity {k} at position {p} does not fit the nodes after it")
            ends[p] = done[-k] if k else p + 1
            done[len(done) - k :] = [ends[p]]
        self._labels, self._arities, self._ends = tuple(labels), tuple(arities), tuple(ends)
        self._stars = tuple([p for p, lab in enumerate(labels) if lab is STAR])
        for p in self._stars:
            if arities[p]:
                raise StarNotLeaf("star label on an inner node", self.words([p])[p])
        self._hash = hash((self._labels, self._arities))

    def _positions(self) -> dict[Word, int]:
        if self._index is None:
            self._index = {w: p for p, w in preorder_words(self._arities).items()}
        return self._index

    @property
    def key(self) -> tuple[tuple, tuple]:
        """The preorder arrays (labels, arities)."""
        return self._labels, self._arities

    @property
    def nodes(self) -> frozenset[Word]:
        return frozenset(self._positions())

    @property
    def nw_leaves(self) -> frozenset[Word]:
        return frozenset(self.leaf_order)

    @property
    def leaf_order(self) -> tuple[Word, ...]:
        return tuple([w for w, p in self._positions().items() if self._labels[p] is STAR])

    @property
    def proper_nodes(self) -> frozenset[Word]:
        return frozenset(w for w, p in self._positions().items() if self._labels[p] is not STAR)

    @property
    def height(self) -> int:
        return max(map(len, self._positions()))

    def words(self, positions: Collection[int]) -> dict[int, Word]:
        return preorder_words(self._arities, set(positions))

    def label(self, w: Word) -> Label:
        return self._labels[self._positions()[w] if w else 0]

    def labels(self) -> dict[Word, Label]:
        return dict(zip(self._positions(), self._labels))

    def arity(self, w: Word) -> int:
        return self._arities[self._positions()[w]]

    def children(self, w: Word) -> list[Word]:
        return [w + (i,) for i in range(self.arity(w))]

    def __contains__(self, w: Word) -> bool:
        return w in self._positions()

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, TreeNW) and self._hash == other._hash and self.key == other.key
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"{format_word(w)}:{lab!r}" for w, lab in self.labels().items())
        return f"TreeNW({parts})"
