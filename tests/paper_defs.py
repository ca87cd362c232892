"""The paper's definitions over words and finitely fragmented trees.

The kernel checks and translates coalgebras held in preorder arrays; the
paper defines the same objects over words.  This module restates those
definitions, for the tests to hold the kernel against:

- the ancestor order on words and the word of a root path;
- root paths through a machine (:func:`subelement`), read through the
  word-keyed :meth:`~nwproofs.coalgebra.Coalgebra.links`;
- a finitely fragmented tree read through its block roots
  (:func:`root_path_of`, :func:`subtree`), its destructor
  (:func:`destruct`) and its inverse (:func:`construct`), and root paths
  followed through the destructor alone (:func:`ff_subelement`);
- pre-proofs: every proper node a rule instance, wherever its glue
  points sit (:func:`check_pre_proof`), and the fragmentation of a
  labelled tree along its progress edges (:func:`compute_fragmentation`).

A tree is read through the public views of
:class:`~nwproofs.fftree.FFTree` and built through its validating
constructor, so each definition is read off its clauses rather than the
indexes the kernel keeps.
"""

from __future__ import annotations

from typing import Any, Mapping

from nwproofs.calculus import (
    CalculusError,
    CheckReport,
    LocalProgressCalculus,
    ProofGraph,
    UnknownNode,
    _sequent_rule,
    check_proof_graph,
)
from nwproofs.coalgebra import Coalgebra, CoalgebraError, StateId
from nwproofs.fftree import FFTree, NotARoot, Unfolding
from nwproofs.store import Arena, PNode, subtree_at
from nwproofs.trees import EPSILON, STAR, TreeNW, Truncation, Word, format_word

RootPath = tuple[Word, ...]


# -- words ------------------------------------------------------------------


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


# -- root paths through a machine ---------------------------------------------


class NotARootPath(CoalgebraError):
    pass


def subelement(coalg: Coalgebra, state: StateId, path: RootPath) -> StateId:
    """The state reached by following ``path`` from ``state``."""
    coalg.fragment(state)  # an unknown state is refused, even on the empty path
    for w in path:
        links = coalg.links(state)
        if w not in links:
            raise NotARootPath(f"{format_word(w)} is not a star leaf of state {state!r}")
        state = links[w]
    return state


def is_root_path(coalg: Coalgebra, state: StateId, path: RootPath) -> bool:
    """Does the sequence of leaf words trace through the machine?"""
    try:
        subelement(coalg, state, path)
    except NotARootPath:
        return False
    return True


def fragment_at(coalg: Coalgebra, state: StateId, path: RootPath) -> TreeNW:
    return coalg.fragment(subelement(coalg, state, path))


# -- a fragmented tree, read through its block roots ----------------------------


def arity(tree: FFTree, w: Word) -> int:
    tree.label(w)  # an unknown node is refused
    nodes = tree.nodes
    k = 0
    while w + (k,) in nodes:
        k += 1
    return k


def partition(tree: FFTree) -> frozenset[frozenset[Word]]:
    blocks: dict[Word, set[Word]] = {}
    for w in tree.nodes:
        blocks.setdefault(tree.frag_root(w), set()).add(w)
    return frozenset(frozenset(b) for b in blocks.values())


def root_map(tree: FFTree) -> dict[Word, Word]:
    return {w: tree.frag_root(w) for w in tree.nodes}


def imm_succ(tree: FFTree, w: Word, v: Word) -> bool:
    """True iff ``v`` is a block root immediately above the root ``w``."""
    tree.frag_root(w), tree.frag_root(v)  # an unknown node is refused
    return v != EPSILON and v in tree.roots() and tree.frag_root(v[:-1]) == w


def fheight(tree: FFTree, w: Word) -> int:
    """Number of block roots strictly below ``w``."""
    tree.frag_root(w)  # an unknown node is refused
    return sum(1 for r in tree.roots() if r != w and prefix_le(r, w))


def root_path_of(tree: FFTree, w: Word) -> RootPath:
    """The chain of root-to-root steps reaching the block root ``w``."""
    if w not in tree.roots():
        raise NotARoot("not a block root", w)
    below = sorted(r for r in tree.roots() if prefix_le(r, w))  # ancestors sort first
    return tuple(strip_prefix(a, b) for a, b in zip(below, below[1:]))


def subtree(tree: FFTree, w: Word) -> FFTree:
    """The fragmented tree generated at block root ``w``."""
    if w not in tree.roots():
        raise NotARoot("not a block root", w)
    n = len(w)
    above = [v for v in tree.nodes if prefix_le(w, v)]
    return FFTree(
        {v[n:]: tree.label(v) for v in above}, {v[n:]: tree.frag_root(v)[n:] for v in above}
    )


def destruct(tree: FFTree) -> tuple[TreeNW, dict[Word, FFTree]]:
    """Split into the root piece and the subtree glued at each star."""
    frag = tree.tree_fragment(EPSILON)
    return frag, {w: subtree(tree, w) for w in frag.leaf_order}


def construct(fragment: TreeNW, parts: Mapping[Word, FFTree]) -> FFTree:
    """Glue ``parts[w]`` over each star leaf ``w`` of ``fragment``.

    Inverse of :func:`destruct`: the proper nodes of the fragment become
    one block and each glued tree keeps its own fragmentation.
    """
    labels = {w: fragment.label(w) for w in fragment.proper_nodes}
    root_of = dict.fromkeys(labels, EPSILON)
    for w in fragment.leaf_order:  # the first missing leaf is the least
        if w not in parts:
            raise ValueError(f"no tree glued at {format_word(w)}")
        part = parts[w]
        for v in part.nodes:
            labels[w + v] = part.label(v)
            root_of[w + v] = w + part.frag_root(v)
    return FFTree(labels, root_of)


def truncations(unfolding: Unfolding) -> dict[Word, str]:
    """The cut-off points of an unfolding, each with the state its mark names."""
    labels = unfolding.tree.labels()
    return {w: lab.target for w, lab in labels.items() if isinstance(lab, Truncation)}


def complete_nodes(unfolding: Unfolding) -> frozenset[Word]:
    """The nodes of an unfolding that are no truncation mark."""
    return unfolding.tree.nodes - frozenset(truncations(unfolding))


# -- root paths through the destructor, written exactly as the recursive
#    clauses --------------------------------------------------------------------


def ff_is_root_path(tree: FFTree, path: RootPath) -> bool:
    if not path:
        return True
    _, parts = destruct(tree)
    return path[0] in parts and ff_is_root_path(parts[path[0]], path[1:])


def ff_subelement(tree: FFTree, path: RootPath) -> FFTree:
    if not path:
        return tree
    _, parts = destruct(tree)
    if path[0] not in parts:  # its keys are the fragment's star leaves
        raise NotARoot("path leaves the tree", path[0])
    return ff_subelement(parts[path[0]], path[1:])


def ff_fragment(tree: FFTree, path: RootPath) -> TreeNW:
    return ff_subelement(tree, path).tree_fragment(EPSILON)


def ff_root_paths(tree: FFTree) -> list[RootPath]:
    """All root paths, enumerated from the destructor side."""
    out: list[RootPath] = [()]
    frag, parts = destruct(tree)
    for w in frag.leaf_order:
        out.extend((w,) + rest for rest in ff_root_paths(parts[w]))
    return out


# -- pre-proofs ------------------------------------------------------------------


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
        raise UnknownNode(f"node {format_word(node)} not in state {state!r}")
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


# -- proofs ---------------------------------------------------------------------


def subproof(pg: ProofGraph, node: Word) -> ProofGraph:
    """The proof rooted at a node of the root fragment.

    A star leaf yields the linked state's proof; an inner node becomes
    a fresh state carrying the carved-out part of the fragment.
    """
    frag = pg.fragment(pg.root)
    if node not in frag:
        raise UnknownNode(f"node {format_word(node)} not in root fragment")
    links = pg.links(pg.root)
    if node in links:
        return pg.at(links[node])
    arena = Arena()
    nested = subtree_at(arena.materialize(arena.include(pg)), node)
    assert isinstance(nested, PNode)
    return arena.proof(nested)
