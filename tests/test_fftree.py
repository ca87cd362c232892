import random

import pytest

from conftest import random_fftree
from nwproofs.fftree import (
    FFTree,
    FFTreeError,
    NoRoot,
    NotAPartition,
    NotARoot,
    NotConvex,
    TruncationNotAllowed,
)
from paper_defs import (
    arity,
    construct,
    destruct,
    ff_fragment,
    ff_is_root_path,
    ff_root_paths,
    ff_subelement,
    fheight,
    imm_succ,
    partition,
    root_path_of,
    subtree,
    word_of,
)
from nwproofs.trees import EPSILON, STAR, GappedChildren, TreeError, TreeNW, Truncation

# three stacked single-node blocks: . -> 0 -> 0.0
PI2 = FFTree(
    {EPSILON: "a", (0,): "b", (0, 0): "c"},
    {EPSILON: EPSILON, (0,): (0,), (0, 0): (0, 0)},
)
ONE_BLOCK = {EPSILON: EPSILON, (0,): EPSILON}


def test_validate_ok():
    t = FFTree({EPSILON: "a", (0,): "b"}, {EPSILON: EPSILON, (0,): (0,)})
    assert t.roots() == {EPSILON, (0,)}


def test_validate_not_convex():
    # 0.0 claims the root's block, but its parent starts a block of its own
    with pytest.raises(NotConvex) as err:
        FFTree(
            {EPSILON: "a", (0,): "b", (0, 0): "c"},
            {EPSILON: EPSILON, (0,): (0,), (0, 0): EPSILON},
        )
    assert err.value.node == (0,)


def test_validate_no_root():
    labels = {EPSILON: "a", (0,): "b", (1,): "c"}
    # the block root of 1 is no ancestor of it
    with pytest.raises(NoRoot) as err:
        FFTree(labels, {EPSILON: EPSILON, (0,): (0,), (1,): (0,)})
    assert err.value.node == (1,)
    # the block root of 1 is an ancestor whose own block root is another node
    with pytest.raises(NoRoot) as err:
        FFTree(labels, {(1,): EPSILON, (0,): (0,), EPSILON: (0,)})
    assert err.value.node == (1,)


def test_validate_must_cover():
    with pytest.raises(NotAPartition, match="misses a node") as err:
        FFTree({EPSILON: "a", (0,): "b"}, {EPSILON: EPSILON})
    assert err.value.node == (0,)
    with pytest.raises(NotAPartition, match="names a non-node") as err:
        FFTree({EPSILON: "a"}, {EPSILON: EPSILON, (1,): EPSILON})
    assert err.value.node == (1,)


def test_star_labels_are_refused():
    with pytest.raises(FFTreeError, match="star labels are reserved") as err:
        FFTree({EPSILON: "a", (0,): STAR}, ONE_BLOCK)
    assert err.value.node == (0,)


def test_root_map_round_trip():
    # a tree is rebuilt from its labels and the block root of each node
    rng = random.Random(16)
    for _ in range(100):
        t = random_fftree(rng, max_nodes=25)
        assert FFTree(t.labels(), {w: t.frag_root(w) for w in t.nodes}) == t


def test_tree_shape_is_checked_as_for_fragments():
    with pytest.raises(TreeError, match="negative letter"):
        FFTree({EPSILON: "a", (-1,): "b"}, {EPSILON: EPSILON, (-1,): (-1,)})
    with pytest.raises(GappedChildren):
        FFTree({EPSILON: "a", (1,): "b"}, {EPSILON: EPSILON, (1,): EPSILON})
    with pytest.raises(TreeError):
        FFTree({(0,): "b"}, {(0,): (0,)})


def test_arity_equality_and_hash():
    assert [arity(PI2, w) for w in (EPSILON, (0,), (0, 0))] == [1, 1, 0]
    same = FFTree({(0, 0): "c", (0,): "b", EPSILON: "a"}, {(0, 0): (0, 0), (0,): (0,), EPSILON: EPSILON})
    assert same == PI2 and hash(same) == hash(PI2)
    merged = FFTree({EPSILON: "a", (0,): "b", (0, 0): "c"}, {**ONE_BLOCK, (0, 0): (0, 0)})
    assert merged != PI2


def test_truncation_accepted_at_a_leaf_refused_on_an_inner_node():
    labels = {EPSILON: "a", (0,): Truncation("s0", "a")}
    t = FFTree(labels, {EPSILON: EPSILON, (0,): (0,)})
    assert t.roots() == {EPSILON, (0,)}
    inner = {EPSILON: Truncation("s0", "a"), (0,): "b"}
    with pytest.raises(TruncationNotAllowed, match="truncation marker on an inner node") as err:
        FFTree(inner, {EPSILON: EPSILON, (0,): (0,)})
    assert err.value.node == EPSILON


def test_roots_and_measures():
    assert PI2.roots() == {EPSILON, (0,), (0, 0)}
    assert PI2.frag_root((0, 0)) == (0, 0)
    assert fheight(PI2, (0, 0)) == 2
    assert not imm_succ(PI2, EPSILON, (0, 0))
    assert imm_succ(PI2, EPSILON, (0,))


def test_tree_fragment_examples():
    frag = PI2.tree_fragment((0,))
    assert frag == TreeNW({EPSILON: "b", (0,): STAR})
    whole = FFTree({EPSILON: "a", (0,): "b"}, ONE_BLOCK)
    assert whole.tree_fragment(EPSILON) == TreeNW({EPSILON: "a", (0,): "b"})
    assert PI2.tree_fragment((0, 0)) == TreeNW({EPSILON: "c"})


def test_subtree_examples():
    sub = subtree(PI2, (0,))
    assert sub.nodes == {EPSILON, (0,)}
    assert partition(sub) == frozenset({frozenset({EPSILON}), frozenset({(0,)})})
    assert subtree(PI2, EPSILON) == PI2
    assert subtree(PI2, (0, 0)).nodes == {EPSILON}
    with pytest.raises(NotARoot):
        subtree(FFTree({EPSILON: "a", (0,): "b"}, ONE_BLOCK), (0,))


def test_destruct_examples():
    whole = FFTree({EPSILON: "a", (0,): "b"}, ONE_BLOCK)
    frag, parts = destruct(whole)
    assert parts == {}
    assert frag == TreeNW({EPSILON: "a", (0,): "b"})

    frag2, parts2 = destruct(PI2)
    assert frag2 == TreeNW({EPSILON: "a", (0,): STAR})
    assert parts2 == {(0,): subtree(PI2, (0,))}


def test_construct_examples():
    assert construct(TreeNW({EPSILON: "a"}), {}) == FFTree({EPSILON: "a"}, {EPSILON: EPSILON})
    glued = construct(TreeNW({EPSILON: "a", (0,): STAR}), {(0,): FFTree({EPSILON: "b"}, {EPSILON: EPSILON})})
    assert partition(glued) == frozenset({frozenset({EPSILON}), frozenset({(0,)})})
    with pytest.raises(ValueError):
        construct(TreeNW({EPSILON: "a", (0,): STAR}), {})


def test_root_path_examples():
    assert root_path_of(PI2, EPSILON) == ()
    assert root_path_of(PI2, (0, 0)) == ((0,), (0,))
    with pytest.raises(NotARoot):
        root_path_of(FFTree({EPSILON: "a", (0,): "b"}, ONE_BLOCK), (0,))


def test_round_trip_destruct_construct_random():
    rng = random.Random(11)
    for _ in range(100):
        t = random_fftree(rng, max_nodes=25)
        frag, parts = destruct(t)
        assert construct(frag, parts) == t


def test_block_characterization_by_fragments():
    # equal roots plus equal fragments at every root pins the tree down
    rng = random.Random(12)
    for _ in range(60):
        t = random_fftree(rng, max_nodes=25)
        u = random_fftree(rng, max_nodes=25)
        same = t.roots() == u.roots() and all(
            t.tree_fragment(w) == u.tree_fragment(w) for w in t.roots()
        )
        assert same == (t == u)
        # positive direction: a tree rebuilt from its roots and fragments
        # alone is the original tree
        assert _rebuild_from_fragments(t) == t


def _rebuild_from_fragments(t: FFTree) -> FFTree:
    labels = {}
    root_of = {}
    for root in t.roots():
        frag = t.tree_fragment(root)
        for w in frag.proper_nodes:
            labels[root + w] = frag.label(w)
            root_of[root + w] = root
    return FFTree(labels, root_of)


def test_subtree_roots_correspondence():
    rng = random.Random(13)
    for _ in range(60):
        t = random_fftree(rng, max_nodes=30)
        for w in sorted(t.roots()):
            sub = subtree(t, w)
            assert {w + v for v in sub.roots()} == {
                u for u in t.roots() if (u[: len(w)] == w)
            }
            for v in sorted(sub.roots()):
                assert sub.tree_fragment(v) == t.tree_fragment(w + v)
                assert subtree(sub, v) == subtree(t, w + v)


def test_immediate_predecessor_root_is_unique():
    rng = random.Random(15)
    for _ in range(60):
        t = random_fftree(rng, max_nodes=30)
        for v in t.roots():
            if v == EPSILON:
                continue
            below = [w for w in t.roots() if imm_succ(t, w, v)]
            assert len(below) == 1


def test_correspondence_of_navigation_and_representation():
    rng = random.Random(14)
    for _ in range(60):
        t = random_fftree(rng, max_nodes=25)
        paths = ff_root_paths(t)
        for r in paths:
            w = word_of(r)
            assert w in t.roots()
            assert root_path_of(t, w) == r
            assert ff_fragment(t, r) == t.tree_fragment(w)
            assert ff_subelement(t, r) == subtree(t, w)
        for w in sorted(t.roots()):
            r = root_path_of(t, w)
            assert ff_is_root_path(t, r)
            assert word_of(r) == w
            assert t.tree_fragment(w) == ff_fragment(t, r)
            assert subtree(t, w) == ff_subelement(t, r)
