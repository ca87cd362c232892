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
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from .trees import (
    EPSILON,
    STAR,
    Label,
    TreeError,
    TreeNW,
    Truncation,
    Word,
    RootPath,
    format_word,
    prefix_le,
    strip_prefix,
    tree_arity,
)


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
        allow_truncation: bool = False,
    ):
        labels = dict(labels)
        arity = tree_arity(labels)
        for w, lab in labels.items():
            if lab is STAR:
                raise FFTreeError("star labels are reserved for fragment leaves", w)
            if isinstance(lab, Truncation):
                if not allow_truncation:
                    raise TruncationNotAllowed("truncation marker in a plain tree", w)
                if arity[w]:
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
    allow_truncation: bool = False,
) -> FFTree:
    """Check the fragmentation properties and wrap the result."""
    return FFTree(labels, partition, allow_truncation=allow_truncation)


def construct(fragment: TreeNW, parts: Mapping[Word, FFTree]) -> FFTree:
    """Glue ``parts[w]`` over each star leaf ``w`` of ``fragment``.

    Inverse of :meth:`FFTree.destruct`: the proper nodes of the fragment
    become one block and each glued tree keeps its own fragmentation.
    """
    missing = fragment.nw_leaves - set(parts)
    if missing:
        raise ValueError(f"no tree glued at {format_word(min(missing))}")
    labels: dict[Word, Label] = {}
    root_of: dict[Word, Word] = {}
    for w in fragment.proper_nodes:
        labels[w] = fragment.label(w)
        root_of[w] = EPSILON
    for w in fragment.nw_leaves:
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
    frag, parts = tree.destruct()
    w = path[0]
    return w in frag.nw_leaves and ff_is_root_path(parts[w], path[1:])


def ff_subelement(tree: FFTree, path: RootPath) -> FFTree:
    if not path:
        return tree
    frag, parts = tree.destruct()
    if path[0] not in frag.nw_leaves:
        raise NotARoot("path leaves the tree", path[0])
    return ff_subelement(parts[path[0]], path[1:])


def ff_fragment(tree: FFTree, path: RootPath) -> TreeNW:
    return ff_subelement(tree, path).tree_fragment(EPSILON)


def ff_root_paths(tree: FFTree) -> list[RootPath]:
    """All root paths, enumerated from the destructor side."""
    out: list[RootPath] = [()]
    frag, parts = tree.destruct()
    for w in sorted(frag.nw_leaves):
        out.extend((w,) + rest for rest in ff_root_paths(parts[w]))
    return out
