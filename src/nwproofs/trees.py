"""Words over naturals and finite trees whose leaves may mark glue points.

Tree nodes are addressed by words (tuples of naturals): the root is the
empty word and the i-th child of ``w`` is ``w + (i,)``.  A leaf labelled
``STAR`` is a gluing point where another tree will be attached later;
everything here is immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

Word = tuple[int, ...]
RootPath = tuple[Word, ...]
Label = Any

EPSILON: Word = ()


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


class TreeNW:
    """A finite tree with labels and possibly star-marked leaves.

    Invariants checked at construction: the node set is prefix closed,
    every node has contiguously indexed children, the root is not a
    star, and stars only occur at leaves.  ``leaf_order`` is the star
    leaves in word order, computed once: walks in leaf order read it.
    """

    __slots__ = ("_labels", "_arity", "_nwl", "_key", "_hash", "_leaf_order")

    def __init__(self, labels: Mapping[Word, Label]):
        labels = dict(labels)
        arity = tree_arity(labels)
        if labels[EPSILON] is STAR:
            raise ViolatedRootLabel("root may not be a star", EPSILON)
        for w, lab in labels.items():
            if lab is STAR and arity[w]:
                raise StarNotLeaf("star label on an inner node", w)
        self._labels = labels
        self._arity = arity
        self._key = tuple(sorted(labels.items(), key=lambda kv: kv[0]))
        self._hash = hash(self._key)
        self._leaf_order = tuple(w for w, lab in self._key if lab is STAR)
        self._nwl = frozenset(self._leaf_order)

    @property
    def nodes(self) -> frozenset[Word]:
        return frozenset(self._labels)

    @property
    def nw_leaves(self) -> frozenset[Word]:
        return self._nwl

    @property
    def leaf_order(self) -> tuple[Word, ...]:
        return self._leaf_order

    @property
    def proper_nodes(self) -> frozenset[Word]:
        return frozenset(w for w in self._labels if w not in self._nwl)

    @property
    def height(self) -> int:
        return max(len(w) for w in self._labels)

    @property
    def key(self) -> tuple:
        return self._key

    def label(self, w: Word) -> Label:
        return self._labels[w]

    def labels(self) -> dict[Word, Label]:
        return dict(self._labels)

    def arity(self, w: Word) -> int:
        return self._arity[w]

    def children(self, w: Word) -> list[Word]:
        return [w + (i,) for i in range(self._arity[w])]

    def __contains__(self, w: Word) -> bool:
        return w in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TreeNW) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"{format_word(w)}:{lab!r}" for w, lab in self._key)
        return f"TreeNW({parts})"
