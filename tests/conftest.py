"""Shared generators for randomized structure tests.

Heavyweight structures (trees, coalgebras, proofs) come from seeded
``random.Random`` generators so failures reproduce exactly; hypothesis
is reserved for the small algebraic types where strategies are cheap.
"""

from __future__ import annotations

import random

from nwproofs.coalgebra import Coalgebra
from nwproofs.fftree import FFTree
from nwproofs.trees import EPSILON, STAR, TreeNW

LABELS = ["a", "b", "c"]


def random_tree_nw(
    rng: random.Random,
    max_nodes: int = 7,
    star_prob: float = 0.35,
    labels: list | None = None,
) -> TreeNW:
    """A random valid tree with star leaves, grown top-down."""
    pool = labels or LABELS
    out = {EPSILON: rng.choice(pool)}
    frontier = [EPSILON]
    while frontier and len(out) < max_nodes:
        w = frontier.pop(rng.randrange(len(frontier)))
        arity = rng.choice([0, 1, 1, 2, 2, 3])
        arity = min(arity, max_nodes - len(out))
        for i in range(arity):
            child = w + (i,)
            if rng.random() < star_prob:
                out[child] = STAR
            else:
                out[child] = rng.choice(pool)
                frontier.append(child)
    return TreeNW(out)


def random_coalgebra(
    rng: random.Random,
    max_states: int = 8,
    max_frag_nodes: int = 7,
) -> Coalgebra:
    n = rng.randint(1, max_states)
    names = [f"s{i}" for i in range(n)]
    dest = {}
    for s in names:
        frag = random_tree_nw(rng, max_nodes=max_frag_nodes)
        links = {w: rng.choice(names) for w in frag.nw_leaves}
        dest[s] = (frag, tuple(links[w] for w in frag.leaf_order))
    return Coalgebra(dest)


def random_root_path(rng: random.Random, coalg: Coalgebra, state: str, max_len: int = 4):
    """A random valid root path from ``state``, possibly empty."""
    path = []
    for _ in range(rng.randint(0, max_len)):
        frag = coalg.fragment(state)
        leaves = sorted(frag.nw_leaves)
        if not leaves:
            break
        w = rng.choice(leaves)
        path.append(w)
        state = coalg.links(state)[w]
    return tuple(path)


def unfold_by_gluing(coalg: Coalgebra, state: str, depth: int) -> FFTree:
    """Independent unfolder: recursive destructor gluing, used as oracle."""
    from nwproofs.fftree import construct
    from nwproofs.trees import EPSILON as EPS
    from nwproofs.trees import Truncation

    if depth == 0:
        label = coalg.fragment(state).label(EPS)
        return FFTree({EPS: Truncation(state, label)}, [[EPS]])
    frag = coalg.fragment(state)
    links = coalg.links(state)
    return construct(
        frag, {w: unfold_by_gluing(coalg, links[w], depth - 1) for w in frag.nw_leaves}
    )


def random_fftree(rng: random.Random, max_nodes: int = 40) -> FFTree:
    """A random tree with a random edge-cut fragmentation.

    Marking each edge as a block boundary or not always yields blocks
    that are finite, rooted, and convex.
    """
    labels = {EPSILON: rng.choice(LABELS)}
    root_of = {EPSILON: EPSILON}
    frontier = [EPSILON]
    while frontier and len(labels) < max_nodes:
        w = frontier.pop(rng.randrange(len(frontier)))
        arity = rng.choice([0, 1, 1, 2, 2, 3])
        arity = min(arity, max_nodes - len(labels))
        for i in range(arity):
            child = w + (i,)
            labels[child] = rng.choice(LABELS)
            root_of[child] = child if rng.random() < 0.4 else root_of[w]
            frontier.append(child)
    return FFTree(labels, root_of)
