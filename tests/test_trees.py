import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_tree_nw
from nwproofs.graphfile import parse_proof_file
from nwproofs.trees import (
    EPSILON,
    STAR,
    GappedChildren,
    NotPrefixClosed,
    StarNotLeaf,
    TreeError,
    TreeNW,
    ViolatedRootLabel,
)
from paper_defs import disjoint, prefix_le, word_of

words = st.lists(st.integers(min_value=0, max_value=5), max_size=6).map(tuple)


def test_prefix_examples():
    assert prefix_le((), (0, 1))
    assert prefix_le((0, 1), (0, 1))
    assert not prefix_le((1,), (0, 1))


def test_disjoint_examples():
    assert disjoint((0,), (1,))
    assert not disjoint((0,), (0, 1))
    assert not disjoint((), ())


@given(words, words, words)
def test_prefix_partial_order(w, v, u):
    assert prefix_le(w, w)
    if prefix_le(w, v) and prefix_le(v, w):
        assert w == v
    if prefix_le(w, v) and prefix_le(v, u):
        assert prefix_le(w, u)


@given(words, words)
def test_disjoint_is_no_common_upper_bound(w, v):
    assert disjoint(w, v) == (not prefix_le(w, v) and not prefix_le(v, w))


def test_word_of_examples():
    assert word_of(()) == EPSILON
    assert word_of(((0, 1), (2,))) == (0, 1, 2)
    assert word_of(((5,),)) == (5,)


@given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple), max_size=4).map(tuple), words)
def test_word_of_append(path, w):
    assert word_of(path + (w,)) == word_of(path) + w


def test_validate_single_node():
    t = TreeNW({EPSILON: "a"})
    assert t.nodes == {EPSILON}
    assert t.height == 0


def test_validate_root_star_rejected():
    with pytest.raises(ViolatedRootLabel):
        TreeNW({EPSILON: STAR})


def test_validate_star_must_be_leaf():
    with pytest.raises(StarNotLeaf) as err:
        TreeNW({EPSILON: "a", (0,): STAR, (0, 0): "a"})
    assert err.value.node == (0,)


def test_validate_prefix_closure():
    with pytest.raises(NotPrefixClosed):
        TreeNW({EPSILON: "a", (0, 0): "b"})


def test_validate_gapped_children():
    with pytest.raises(GappedChildren):
        TreeNW({EPSILON: "a", (1,): "b"})


def test_leaf_partition_examples():
    t = TreeNW({EPSILON: "a", (0,): STAR})
    assert t.nw_leaves == {(0,)}
    assert t.proper_nodes == {EPSILON}

    t2 = TreeNW({EPSILON: "a"})
    assert t2.nw_leaves == frozenset()
    assert t2.proper_nodes == {EPSILON}

    t3 = TreeNW({EPSILON: "a", (0,): STAR, (1,): "b"})
    assert t3.nw_leaves == {(0,)}
    assert t3.proper_nodes == {EPSILON, (1,)}


def test_leaf_partition_is_a_partition():
    rng = random.Random(7)
    from conftest import random_tree_nw

    for _ in range(100):
        t = random_tree_nw(rng)
        assert t.nw_leaves | t.proper_nodes == t.nodes
        assert not (t.nw_leaves & t.proper_nodes)


def test_tree_equality_and_hash():
    a = TreeNW({EPSILON: "a", (0,): STAR})
    b = TreeNW({(0,): STAR, EPSILON: "a"})
    assert a == b and hash(a) == hash(b)
    assert a != TreeNW({EPSILON: "a"})


def test_leaf_order_is_the_sorted_star_leaves():
    rng = random.Random(11)
    trees = [random_tree_nw(rng, max_nodes=12, star_prob=0.5) for _ in range(200)]
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    for path in sorted(corpus.glob("*.proof")):
        pg = parse_proof_file(path.read_text())[1]
        trees.extend(pg.fragment(s) for s in pg.states)
    assert any(len(t.nw_leaves) > 1 for t in trees)
    for t in trees:
        assert t.leaf_order == tuple(sorted(t.nw_leaves))


def test_preorder_arrays_build_the_same_tree_as_the_word_table():
    rng = random.Random(18)
    for _ in range(200):
        t = random_tree_nw(rng, max_nodes=12, star_prob=0.4)
        u = TreeNW(*t.key)
        assert u == t and hash(u) == hash(t)
        assert u.labels() == t.labels() and u.leaf_order == t.leaf_order
        assert [u.arity(w) for w in sorted(u.nodes)] == [t.arity(w) for w in sorted(t.nodes)]
        assert u.height == t.height


def test_preorder_arrays_are_checked_in_one_walk():
    with pytest.raises(ViolatedRootLabel):
        TreeNW([STAR], [0])
    with pytest.raises(StarNotLeaf) as err:
        TreeNW(["a", "b", STAR, "c"], [2, 0, 1, 0])
    assert err.value.node == (1,)
    for labels, arities in [
        ([], []),  # no root
        (["a", "b"], [1]),  # one arity short
        (["a", "b"], [0, 0]),  # a second root
        (["a", "b"], [2, 0]),  # a child missing at the end
        (["a", "b"], [1, -1]),  # a negative arity
    ]:
        with pytest.raises(TreeError):
            TreeNW(labels, arities)
