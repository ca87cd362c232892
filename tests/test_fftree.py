import random

import pytest

from conftest import random_fftree
from nwproofs.fftree import (
    FFTree,
    NoRoot,
    NotAPartition,
    NotARoot,
    NotConvex,
    TruncationNotAllowed,
    construct,
    ff_fragment,
    ff_is_root_path,
    ff_root_paths,
    ff_subelement,
    validate_fftree,
    word_of,
)
from nwproofs.trees import EPSILON, STAR, GappedChildren, TreeError, TreeNW, Truncation

# three stacked single-node blocks: . -> 0 -> 0.0
PI2 = FFTree(
    {EPSILON: "a", (0,): "b", (0, 0): "c"},
    [[EPSILON], [(0,)], [(0, 0)]],
)


def test_validate_ok():
    t = validate_fftree({EPSILON: "a", (0,): "b"}, [[EPSILON], [(0,)]])
    assert t.roots() == {EPSILON, (0,)}


def test_validate_not_convex():
    with pytest.raises(NotConvex) as err:
        validate_fftree(
            {EPSILON: "a", (0,): "b", (0, 0): "c"},
            [[EPSILON, (0, 0)], [(0,)]],
        )
    assert err.value.node == (0,)


def test_validate_overlap_is_not_a_partition():
    with pytest.raises(NotAPartition):
        validate_fftree(
            {EPSILON: "a", (0,): "b"},
            [[EPSILON, (0,)], [(0,)]],
        )


def test_validate_no_root():
    with pytest.raises(NoRoot):
        validate_fftree(
            {EPSILON: "a", (0,): "b", (1,): "c"},
            [[EPSILON], [(0,), (1,)]],
        )


def test_validate_must_cover():
    with pytest.raises(NotAPartition):
        validate_fftree({EPSILON: "a", (0,): "b"}, [[EPSILON]])


def test_tree_shape_is_checked_as_for_fragments():
    with pytest.raises(TreeError, match="negative letter"):
        validate_fftree({EPSILON: "a", (-1,): "b"}, [[EPSILON], [(-1,)]])
    with pytest.raises(GappedChildren):
        validate_fftree({EPSILON: "a", (1,): "b"}, [[EPSILON, (1,)]])
    with pytest.raises(TreeError):
        validate_fftree({(0,): "b"}, [[(0,)]])


def test_arity_equality_and_hash():
    assert [PI2.arity(w) for w in (EPSILON, (0,), (0, 0))] == [1, 1, 0]
    same = FFTree({(0, 0): "c", (0,): "b", EPSILON: "a"}, {EPSILON: 0, (0,): 1, (0, 0): 2})
    assert same == PI2 and hash(same) == hash(PI2)
    merged = FFTree({EPSILON: "a", (0,): "b", (0, 0): "c"}, [[EPSILON, (0,)], [(0, 0)]])
    assert merged != PI2


def test_truncation_accepted_at_a_leaf_refused_on_an_inner_node():
    labels = {EPSILON: "a", (0,): Truncation("s0", "a")}
    t = validate_fftree(labels, [[EPSILON], [(0,)]])
    assert t.roots() == {EPSILON, (0,)}
    inner = {EPSILON: Truncation("s0", "a"), (0,): "b"}
    with pytest.raises(TruncationNotAllowed, match="truncation marker on an inner node"):
        validate_fftree(inner, [[EPSILON], [(0,)]])


def test_roots_and_measures():
    assert PI2.roots() == {EPSILON, (0,), (0, 0)}
    assert PI2.frag_root((0, 0)) == (0, 0)
    assert PI2.fheight((0, 0)) == 2
    assert not PI2.imm_succ(EPSILON, (0, 0))
    assert PI2.imm_succ(EPSILON, (0,))


def test_tree_fragment_examples():
    frag = PI2.tree_fragment((0,))
    assert frag == TreeNW({EPSILON: "b", (0,): STAR})
    whole = FFTree({EPSILON: "a", (0,): "b"}, [[EPSILON, (0,)]])
    assert whole.tree_fragment(EPSILON) == TreeNW({EPSILON: "a", (0,): "b"})
    assert PI2.tree_fragment((0, 0)) == TreeNW({EPSILON: "c"})


def test_subtree_examples():
    sub = PI2.subtree((0,))
    assert sub.nodes == {EPSILON, (0,)}
    assert sub.partition() == frozenset({frozenset({EPSILON}), frozenset({(0,)})})
    assert PI2.subtree(EPSILON) == PI2
    assert PI2.subtree((0, 0)).nodes == {EPSILON}
    with pytest.raises(NotARoot):
        FFTree({EPSILON: "a", (0,): "b"}, [[EPSILON, (0,)]]).subtree((0,))


def test_destruct_examples():
    whole = FFTree({EPSILON: "a", (0,): "b"}, [[EPSILON, (0,)]])
    frag, parts = whole.destruct()
    assert parts == {}
    assert frag == TreeNW({EPSILON: "a", (0,): "b"})

    frag2, parts2 = PI2.destruct()
    assert frag2 == TreeNW({EPSILON: "a", (0,): STAR})
    assert parts2 == {(0,): PI2.subtree((0,))}


def test_construct_examples():
    assert construct(TreeNW({EPSILON: "a"}), {}) == FFTree({EPSILON: "a"}, [[EPSILON]])
    glued = construct(TreeNW({EPSILON: "a", (0,): STAR}), {(0,): FFTree({EPSILON: "b"}, [[EPSILON]])})
    assert glued.partition() == frozenset({frozenset({EPSILON}), frozenset({(0,)})})
    with pytest.raises(ValueError):
        construct(TreeNW({EPSILON: "a", (0,): STAR}), {})


def test_root_path_examples():
    assert PI2.root_path_of(EPSILON) == ()
    assert PI2.root_path_of((0, 0)) == ((0,), (0,))
    with pytest.raises(NotARoot):
        FFTree({EPSILON: "a", (0,): "b"}, [[EPSILON, (0,)]]).root_path_of((0,))


def test_round_trip_destruct_construct_random():
    rng = random.Random(11)
    for _ in range(100):
        t = random_fftree(rng, max_nodes=25)
        frag, parts = t.destruct()
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
            sub = t.subtree(w)
            assert {w + v for v in sub.roots()} == {
                u for u in t.roots() if (u[: len(w)] == w)
            }
            for v in sorted(sub.roots()):
                assert sub.tree_fragment(v) == t.tree_fragment(w + v)
                assert sub.subtree(v) == t.subtree(w + v)


def test_immediate_predecessor_root_is_unique():
    rng = random.Random(15)
    for _ in range(60):
        t = random_fftree(rng, max_nodes=30)
        for v in t.roots():
            if v == EPSILON:
                continue
            below = [w for w in t.roots() if t.imm_succ(w, v)]
            assert len(below) == 1


def test_correspondence_of_navigation_and_representation():
    rng = random.Random(14)
    for _ in range(60):
        t = random_fftree(rng, max_nodes=25)
        paths = ff_root_paths(t)
        for r in paths:
            w = word_of(r)
            assert w in t.roots()
            assert t.root_path_of(w) == r
            assert ff_fragment(t, r) == t.tree_fragment(w)
            assert ff_subelement(t, r) == t.subtree(w)
        for w in sorted(t.roots()):
            r = t.root_path_of(w)
            assert ff_is_root_path(t, r)
            assert word_of(r) == w
            assert t.tree_fragment(w) == ff_fragment(t, r)
            assert t.subtree(w) == ff_subelement(t, r)
