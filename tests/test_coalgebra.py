import random

import pytest

from conftest import random_coalgebra, random_root_path, unfold_by_gluing
from nwproofs.coalgebra import (
    BudgetExceeded,
    Coalgebra,
    CoalgebraError,
    UnfoldBudget,
    UnknownState,
    reachable,
    root_first_order,
)
from nwproofs.fftree import NotARootPath, disjoint, fragment_at, is_root_path, subelement, unfold, word_of
from nwproofs.store import bisim_minimize, canonical_form
from nwproofs.trees import EPSILON, STAR, TreeNW, Truncation

LOOP_FRAG = TreeNW({EPSILON: "a", (0,): STAR})
G1 = Coalgebra({"c": (LOOP_FRAG, ("c",))})
CHAIN = Coalgebra(
    {
        "c": (LOOP_FRAG, ("d",)),
        "d": (TreeNW({EPSILON: "b"}), ()),
    }
)


def test_a_destructor_is_a_tuple_of_one_known_target_per_star_leaf():
    for targets in ((), ("c", "c"), ["c"], {(0,): "c"}):
        with pytest.raises(CoalgebraError, match="one target per star leaf"):
            Coalgebra({"c": (LOOP_FRAG, targets)})
    with pytest.raises(UnknownState, match="links 0 to unknown state 'x'"):
        Coalgebra({"c": (LOOP_FRAG, ("x",))})


def test_is_root_path_examples():
    assert is_root_path(G1, "c", ())
    assert is_root_path(G1, "c", ((0,), (0,)))
    assert not is_root_path(G1, "c", ((1,),))
    with pytest.raises(UnknownState):
        is_root_path(G1, "missing", ())


def test_subelement_examples():
    assert subelement(G1, "c", ()) == "c"
    assert subelement(G1, "c", ((0,),)) == "c"
    assert subelement(CHAIN, "c", ((0,),)) == "d"
    with pytest.raises(NotARootPath):
        subelement(G1, "c", ((1,),))


def test_subelement_follows_each_star_leaf_to_its_own_target():
    # star leaves 0.0 and 1 sit at preorder positions 2 and 3; 0 and the root are no stars
    frag = TreeNW({EPSILON: "a", (0,): "b", (0, 0): STAR, (1,): STAR})
    coalg = Coalgebra({"c": (frag, ("d", "c")), "d": (TreeNW({EPSILON: "b"}), ())})
    assert subelement(coalg, "c", ((0, 0),)) == "d"
    assert subelement(coalg, "c", ((1,), (1,), (0, 0))) == "d"
    for word in (EPSILON, (0,), (2,), (0, 0, 0)):
        with pytest.raises(NotARootPath):
            subelement(coalg, "c", (word,))


def test_fragment_at_examples():
    assert fragment_at(G1, "c", ()) == LOOP_FRAG
    assert fragment_at(G1, "c", ((0,),)) == LOOP_FRAG
    assert fragment_at(CHAIN, "c", ((0,),)) == TreeNW({EPSILON: "b"})


def test_unfold_depth_one_truncates_after_root_fragment():
    res = unfold(G1, "c", UnfoldBudget(max_depth=1))
    assert res.complete_nodes == {EPSILON}
    assert res.truncations == {(0,): "c"}


def test_unfold_layers_and_partition():
    res = unfold(G1, "c", UnfoldBudget(max_depth=3))
    assert res.complete_nodes == {EPSILON, (0,), (0, 0)}
    assert res.truncations == {(0, 0, 0): "c"}
    assert res.tree.partition() == frozenset(
        {frozenset({EPSILON}), frozenset({(0,)}), frozenset({(0, 0)}), frozenset({(0, 0, 0)})}
    )


def test_unfold_without_stars_is_the_fragment():
    res = unfold(CHAIN, "d", UnfoldBudget(max_depth=5))
    assert res.truncations == {}
    assert res.tree.partition() == frozenset({frozenset({EPSILON})})


def test_unfold_budget_nodes():
    with pytest.raises(BudgetExceeded):
        unfold(G1, "c", UnfoldBudget(max_depth=50, max_nodes=10))


def test_unfold_agrees_with_gluing_oracle():
    rng = random.Random(21)
    for _ in range(60):
        coalg = random_coalgebra(rng, max_states=5, max_frag_nodes=6)
        state = sorted(coalg.states)[0]
        for depth in range(1, 5):
            direct = unfold(coalg, state, UnfoldBudget(max_depth=depth)).tree
            assert direct == unfold_by_gluing(coalg, state, depth)


def test_unfold_destruct_matches_machine_destructor():
    rng = random.Random(22)
    for _ in range(40):
        coalg = random_coalgebra(rng, max_states=5, max_frag_nodes=6)
        state = sorted(coalg.states)[0]
        res = unfold(coalg, state, UnfoldBudget(max_depth=3))
        frag, parts = res.tree.destruct()
        assert frag == coalg.fragment(state)
        links = coalg.links(state)
        for w, sub in parts.items():
            assert sub == unfold(coalg, links[w], UnfoldBudget(max_depth=2)).tree


def test_fundamental_composition_extension_prefix():
    rng = random.Random(23)
    for _ in range(120):
        coalg = random_coalgebra(rng, max_states=6, max_frag_nodes=6)
        state = sorted(coalg.states)[rng.randrange(len(coalg.states))]
        r = random_root_path(rng, coalg, state)
        s = random_root_path(rng, coalg, subelement(coalg, state, r))
        # composition
        assert is_root_path(coalg, state, r + s)
        assert fragment_at(coalg, state, r + s) == fragment_at(coalg, subelement(coalg, state, r), s)
        assert subelement(coalg, state, r + s) == subelement(coalg, subelement(coalg, state, r), s)
        # extension
        frag = fragment_at(coalg, state, r)
        for w in sorted(frag.nw_leaves):
            assert is_root_path(coalg, state, r + (w,))
        assert not is_root_path(coalg, state, r + ((99,),))
        # prefix closure
        for i in range(len(r) + 1):
            assert is_root_path(coalg, state, r[:i])


def all_root_paths(coalg, state, depth):
    if depth == 0:
        return [()]
    out = [()]
    frag = coalg.fragment(state)
    links = coalg.links(state)
    for w in sorted(frag.nw_leaves):
        out.extend((w,) + rest for rest in all_root_paths(coalg, links[w], depth - 1))
    return out


def test_root_path_words_disjoint_or_ordered():
    rng = random.Random(24)
    for _ in range(60):
        coalg = random_coalgebra(rng, max_states=4, max_frag_nodes=5)
        state = sorted(coalg.states)[0]
        paths = all_root_paths(coalg, state, 3)
        for r in paths:
            for s in paths:
                if len(r) == len(s) and r != s:
                    assert disjoint(word_of(r), word_of(s))
                from nwproofs.fftree import prefix_le

                if prefix_le(word_of(r), word_of(s)):
                    assert s[: len(r)] == r


def test_fragment_node_regions_disjoint():
    rng = random.Random(25)
    for _ in range(40):
        coalg = random_coalgebra(rng, max_states=4, max_frag_nodes=5)
        state = sorted(coalg.states)[0]
        paths = all_root_paths(coalg, state, 3)
        regions = {}
        for r in paths:
            base = word_of(r)
            regions[r] = {base + u for u in fragment_at(coalg, state, r).proper_nodes}
        flat = sorted(regions)
        for i, r in enumerate(flat):
            for s in flat[i + 1 :]:
                assert not (regions[r] & regions[s])


def test_bisim_minimize_examples():
    frag = TreeNW({EPSILON: "a", (0,): STAR})
    two_loops = Coalgebra({"x": (frag, ("x",)), "y": (frag, ("y",))})
    small, renaming = bisim_minimize(two_loops)
    assert len(small.states) == 1
    assert renaming["x"] == renaming["y"]

    small1, ren1 = bisim_minimize(G1)
    assert small1 == G1 and ren1 == {"c": "c"}

    chain = Coalgebra({"c": (frag, ("d",)), "d": (frag, ("d",))})
    small2, ren2 = bisim_minimize(chain)
    assert len(small2.states) == 1
    assert ren2["c"] == ren2["d"]


def test_bisim_minimize_preserves_navigation():
    rng = random.Random(26)
    for _ in range(80):
        coalg = random_coalgebra(rng, max_states=6, max_frag_nodes=5)
        small, ren = bisim_minimize(coalg)
        state = sorted(coalg.states)[rng.randrange(len(coalg.states))]
        r = random_root_path(rng, coalg, state)
        assert is_root_path(small, ren[state], r)
        assert fragment_at(coalg, state, r) == fragment_at(small, ren[state], r)
        assert ren[subelement(coalg, state, r)] == subelement(small, ren[state], r)
        assert not is_root_path(small, ren[state], r + ((99,),))


def test_bisim_minimize_preserves_unfoldings():
    rng = random.Random(27)
    for _ in range(40):
        coalg = random_coalgebra(rng, max_states=5, max_frag_nodes=5)
        small, ren = bisim_minimize(coalg)
        for state in sorted(coalg.states):
            for depth in (1, 3):
                a = unfold(coalg, state, UnfoldBudget(max_depth=depth))
                b = unfold(small, ren[state], UnfoldBudget(max_depth=depth))
                strip = lambda t: {
                    w: (lab.label if isinstance(lab, Truncation) else lab)
                    for w, lab in t.labels().items()
                }
                assert strip(a.tree) == strip(b.tree)
                assert a.tree.partition() == b.tree.partition()


def test_canonical_form_detects_bisimilarity():
    frag = TreeNW({EPSILON: "a", (0,): STAR})
    a = Coalgebra({"x": (frag, ("x",))})
    b = Coalgebra({"p": (frag, ("q",)), "q": (frag, ("p",))})
    assert canonical_form(a, "x") == canonical_form(b, "p")
    c = Coalgebra({"x": (TreeNW({EPSILON: "b", (0,): STAR}), ("x",))})
    assert canonical_form(a, "x") != canonical_form(c, "x")


def test_reachable_restrict():
    assert reachable(CHAIN, "d") == {"d"}


def test_root_first_order_is_breadth_first_in_leaf_order():
    two = TreeNW({EPSILON: "a", (0,): STAR, (1,): STAR})
    leaf = TreeNW({EPSILON: "b"})
    coalg = Coalgebra(
        {
            "r": (two, ("y", "x")),
            "y": (two, ("z", "r")),
            "x": (LOOP_FRAG, ("w",)),
            "z": (leaf, ()),
            "w": (leaf, ()),
            "u": (leaf, ()),
        }
    )
    assert root_first_order(coalg, "r") == ["r", "y", "x", "z", "w"]
    assert root_first_order(coalg, "r", skip={"x"}) == ["r", "y", "z"]
    assert root_first_order(coalg, "r", skip={"r"}) == []
    assert reachable(coalg, "r") == {"r", "x", "y", "z", "w"}
    with pytest.raises(UnknownState):
        root_first_order(coalg, "missing")
