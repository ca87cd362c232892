import random
from pathlib import Path

import pytest

from grzlib import (
    P,
    Q,
    ax_graph,
    box_step_graph,
    complete_blocks,
    graph,
    link,
    node,
    self_loop_graph,
    seq,
)
from nwproofs.calculus import (
    CalculusError,
    Finding,
    ProofGraph,
    UnknownNode,
    check_proof_fragment,
    check_proof_graph,
)
from nwproofs.coalgebra import Coalgebra, UnfoldBudget, root_first_order
from nwproofs.fftree import (
    FFTree,
    NotAPreProof,
    check_pre_proof,
    compute_fragmentation,
    progressing,
    unfold,
)
from nwproofs.graphfile import parse_proof_file
from nwproofs.grz import GRZ, GRZ_CUT, Box, Imp, local_height
from nwproofs.store import flatten, subproof, to_nested
from nwproofs.trees import EPSILON, STAR, TreeNW, Truncation

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_axiom_fragment_passes():
    frag, links = flatten(node(seq([P], [P]), "ax"))
    assert check_proof_fragment(GRZ, frag, {}).ok


def test_box_right_premise_must_be_a_leaf_link():
    frag, _ = flatten(
        node(
            seq([Box(P)], [Box(P)]),
            "box",
            node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
            node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
        )
    )
    report = check_proof_fragment(GRZ, frag, {})
    assert not report.ok
    assert any(f.condition == "progress" and f.node == (1,) for f in report.findings)


def test_imp_right_fragment_with_wrong_child_fails_rule_condition():
    frag, _ = flatten(
        node(seq([], [Imp(P, P)]), "impr", node(seq([], [P]), "ax"))
    )
    report = check_proof_fragment(GRZ, frag, {})
    assert any(f.condition == "rule" for f in report.findings)


def test_check_proof_graph_examples():
    assert check_proof_graph(GRZ, ax_graph()).ok
    assert check_proof_graph(GRZ, box_step_graph()).ok
    assert check_proof_graph(GRZ, self_loop_graph()).ok


def test_self_loop_with_swapped_box_children_fails():
    # move the self link to the non-progress premise of the inner box
    from grzlib import s1_node, s2_node
    from nwproofs.store import replace_subtree, subtree_at

    good = s2_node()

    box_node = subtree_at(good, (0, 0, 0, 0))
    swapped = node(box_node.sequent, box_node.rule, box_node.children[1], box_node.children[0])
    bad = replace_subtree(good, (0, 0, 0, 0), swapped)
    pg = graph("s2", s2=bad, s1=s1_node())
    report = check_proof_graph(GRZ, pg)
    assert not report.ok


def test_check_pre_proof_ignores_progress():
    # the swapped graph above is still not a pre-proof (premise order broke
    # the instance), so build a progress-only violation instead: a refl
    # child replaced by a link to a state proving the same sequent
    pg = graph(
        "s0",
        s0=node(seq([Box(P)], [Box(P)]), "box",
                link("s1"),
                link("s1")),
        s1=node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
    )
    assert check_pre_proof(GRZ, pg).ok
    report = check_proof_graph(GRZ, pg)
    assert any(f.condition == "progress" and f.node == (0,) for f in report.findings)


def test_check_pre_proof_keeps_the_rule_findings_in_order():
    pg = graph(
        "s0",
        s0=node(seq([Box(P)], [Box(P)]), "box", link("s1"), link("s2")),
        s1=node(seq([Box(P)], [P]), "ax"),
        s2=node(seq([Box(P)], [P]), "refl", node(seq([Q, Box(P)], [P]), "ax")),
    )
    full = check_proof_graph(GRZ, pg).findings
    assert {f.condition for f in full} == {"rule", "progress"}
    assert check_pre_proof(GRZ, pg).findings == [f for f in full if f.condition == "rule"]
    assert [f.state for f in check_pre_proof(GRZ, pg).findings] == ["s1", "s2", "s2"]


def test_progressing_examples():
    pg = box_step_graph()
    assert progressing(GRZ, pg, "s0", (1,))
    assert not progressing(GRZ, pg, "s0", (0,))
    impr = graph("s0", s0=node(seq([], [Imp(P, P)]), "impr", node(seq([P], [P]), "ax")))
    assert not progressing(GRZ, impr, "s0", (0,))
    assert not progressing(GRZ, pg, "s0", EPSILON)
    with pytest.raises(UnknownNode):
        progressing(GRZ, pg, "s0", (5, 5))


def test_compute_fragmentation_no_progress_rules_single_class():
    frag, _ = flatten(
        node(seq([], [Imp(P, P)]), "impr", node(seq([P], [P]), "ax"))
    )
    roots = compute_fragmentation(GRZ, frag.labels())
    assert set(roots.values()) == {EPSILON}


def test_compute_fragmentation_box_splits_right_child():
    frag, _ = flatten(
        node(
            seq([P, Box(P)], [Box(P)]),
            "box",
            node(seq([P, Box(P)], [P]), "ax"),
            node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
        )
    )
    roots = compute_fragmentation(GRZ, frag.labels())
    blocks = {}
    for w, r in roots.items():
        blocks.setdefault(r, set()).add(w)
    assert blocks == {EPSILON: {EPSILON, (0,)}, (1,): {(1,), (1, 0)}}


def test_compute_fragmentation_axiom_tree():
    roots = compute_fragmentation(GRZ, {EPSILON: (seq([P], [P]), "ax")})
    assert roots == {EPSILON: EPSILON}


def test_compute_fragmentation_rejects_non_preproof():
    with pytest.raises(NotAPreProof):
        compute_fragmentation(GRZ, {EPSILON: (seq([P], [Q]), "ax")})


def test_fragmentation_of_unfolding_matches_computed():
    pg = self_loop_graph()
    res = unfold(pg.graph, pg.root, UnfoldBudget(max_depth=4))
    computed = compute_fragmentation(GRZ, res.tree.labels())
    assert computed == res.tree.root_map()
    # and the recomputed partition validates as a fragmented tree
    FFTree(res.tree.labels(), computed)


def test_unfolded_fragments_all_check():
    pg = self_loop_graph()
    res = unfold(pg.graph, pg.root, UnfoldBudget(max_depth=4))
    for _, frag, leaf_sequents in complete_blocks(res.tree):
        assert check_proof_fragment(GRZ, frag, leaf_sequents).ok


def test_progress_window_bounded_by_max_fragment_height():
    pg = self_loop_graph()
    res = unfold(pg.graph, pg.root, UnfoldBudget(max_depth=4))
    tree = res.tree
    bound = max(pg.fragment(s).height for s in pg.states)
    leaves = [w for w in tree.nodes if all(w + (i,) not in tree.nodes for i in range(8))]
    for leaf in leaves:
        boundaries = [
            len(w)
            for w in tree.roots()
            if w and w == leaf[: len(w)]
        ]
        gaps = []
        prev = 0
        for b in sorted(boundaries):
            gaps.append(b - prev)
            prev = b
        assert all(g <= bound for g in gaps)


def test_local_height_examples():
    assert local_height(ax_graph()) == 0
    impr = graph("s0", s0=node(seq([], [Imp(P, P)]), "impr", node(seq([P], [P]), "ax")))
    assert local_height(impr) == 1
    both_leaves = graph(
        "s0",
        s0=node(seq([Box(P)], [Box(P)]), "box", link("s1"), link("s1")),
        s1=node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
    )
    assert local_height(both_leaves) == 1


def test_subproof_extraction():
    pg = box_step_graph()
    left = subproof(pg, (0,))
    assert left.root_sequent == seq([Box(P)], [P])
    assert check_proof_graph(GRZ, left).ok
    right = subproof(pg, (1,))
    assert right.root == "s1"
    assert check_proof_graph(GRZ, right).ok


def test_nested_round_trip():
    pg = self_loop_graph()
    nested = to_nested(pg.fragment("s2"), pg.links("s2").values())
    frag, targets = flatten(nested)
    assert frag == pg.fragment("s2")
    assert dict(zip(frag.leaf_order, targets)) == pg.links("s2")


# -- the checker against a memo-free reference -------------------------------


def _reference_findings(calc, pg: ProofGraph) -> list[Finding]:
    """Every proper node matched on its own, states root first, nodes in
    word order."""
    findings = []
    for state in root_first_order(pg.graph, pg.root):
        frag = pg.fragment(state)
        leaves = {w: pg.state_sequent(t) for w, t in pg.links(state).items()}
        for w in sorted(frag.proper_nodes):
            sequent, rule = frag.label(w)
            kids = [w + (i,) for i in range(frag.arity(w))]
            premises = tuple(leaves[c] if c in frag.nw_leaves else frag.label(c)[0] for c in kids)
            if not calc.is_instance(rule, premises, sequent):
                findings.append(Finding(state, w, "rule", f"not an instance of {rule}"))
                continue
            prog = calc.progress_set(rule, premises, sequent)
            for i, c in enumerate(kids):
                if (c in frag.nw_leaves) != (i in prog):
                    expect = "a glue point" if i in prog else "an ordinary premise"
                    findings.append(Finding(state, c, "progress", f"premise {i} must be {expect}"))
    return findings


def _mutated(rng: random.Random, pg: ProofGraph) -> ProofGraph:
    """``pg`` with one node's rule name, or its sequent, replaced by one
    used elsewhere in the graph."""
    dest = pg.graph.destructors()
    state = rng.choice(sorted(dest))
    frag, links = dest[state]
    labels = frag.labels()
    w = rng.choice(sorted(frag.proper_nodes))
    sequent, rule = labels[w]
    if rng.random() < 0.5:
        labels[w] = sequent, rng.choice([r for r in sorted(GRZ_CUT.rules) if r != rule])
    else:
        pool = {}
        for f, _ in dest.values():
            for v in sorted(f.proper_nodes):
                pool.setdefault(repr(f.label(v)[0]), f.label(v)[0])
        labels[w] = pool[rng.choice(sorted(pool))], rule
    dest[state] = TreeNW(labels), links
    return ProofGraph(Coalgebra(dest), pg.root)


def _golden_graphs() -> list[ProofGraph]:
    return [parse_proof_file(path.read_text())[1] for path in sorted(CORPUS.glob("*.proof"))]


def test_checker_findings_match_the_memo_free_reference():
    graphs = _golden_graphs()
    assert len(graphs) == 9
    rng = random.Random(7)
    cases = graphs + [_mutated(rng, pg) for pg in graphs for _ in range(20)]
    failing = 0
    for pg in cases:
        for calc in (GRZ, GRZ_CUT):
            findings = check_proof_graph(calc, pg).findings
            assert findings == _reference_findings(calc, pg)
            failing += bool(findings)
    assert failing > len(cases)


def test_a_repeated_non_instance_is_reported_in_every_state():
    # "|- p0 : ax" is no axiom; it labels a node of s0 and the root of s1
    bad = node(seq([], [P]), "ax")
    pg = graph("s0", s0=node(seq([], [Box(P)]), "box", bad, link("s1")), s1=bad)
    for calc in (GRZ, GRZ_CUT):
        findings = check_proof_graph(calc, pg).findings
        assert findings == _reference_findings(calc, pg)
        assert [(f.state, f.node, f.condition) for f in findings] == [
            ("s0", (0,), "rule"),
            ("s1", EPSILON, "rule"),
        ]


def test_a_truncation_mark_is_no_proof_node_however_the_graph_is_built():
    # a box whose premise 1 is an unfolding's truncation mark, not a glue point
    ok_refl = (seq([Box(P)], [P]), "refl")
    box = (seq([Box(P)], [Box(P)]), "box")
    ok_ax = (seq([P, Box(P)], [P]), "ax")
    holed = TreeNW({EPSILON: box, (0,): ok_refl, (0, 0): ok_ax, (1,): Truncation("s1", ok_refl)})
    for calc in (GRZ, GRZ_CUT):
        with pytest.raises(CalculusError, match="node 1 is not labelled"):
            check_proof_fragment(calc, holed, {})
    # a view is never label-checked on construction; the checker refuses it
    pg = ProofGraph._view(Coalgebra.view({"s0": (holed, ())}), "s0", None)
    for calc in (GRZ, GRZ_CUT):
        with pytest.raises(CalculusError, match="node 1 is not labelled"):
            check_proof_graph(calc, pg)

def test_checker_errors_name_the_label_the_walk_reads_first():
    ok_refl = (seq([Box(P)], [P]), "refl")
    ok_ax = (seq([P, Box(P)], [P]), "ax")
    box = (seq([Box(P)], [Box(P)]), "box")
    unlabelled = "node {} is not labelled with (sequent, rule)"
    glued = {EPSILON: box, (0,): ok_refl, (0, 0): ok_ax, (1,): STAR}
    cases = [
        ({EPSILON: None}, unlabelled.format(".")),
        ({EPSILON: ok_refl, (0,): ("p0",)}, unlabelled.format("0")),
        # a truncation mark is a foreign label, the root's is read first
        ({EPSILON: Truncation("s1", ok_refl), (0,): 3}, unlabelled.format(".")),
        # a bad child of the root is read before the bad node 0.0 that precedes it
        ({**glued, (0, 0): "ax", (1,): (ok_refl[0], 7)}, unlabelled.format("1")),
        (glued, "no sequent supplied for leaf 1"),
    ]
    for labels, message in cases:
        with pytest.raises(CalculusError) as err:
            check_proof_fragment(GRZ, TreeNW(labels), {})
        assert str(err.value) == message
    # a fragment that passed still raises when a leaf sequent is missing
    decided: dict = {}
    assert check_proof_fragment(GRZ, TreeNW(glued), {(1,): ok_refl[0]}, decided=decided).ok
    with pytest.raises(CalculusError, match="no sequent supplied for leaf 1"):
        check_proof_fragment(GRZ, TreeNW(glued), {}, decided=decided)
    # a star leaf is a glue point carrying the sequent supplied for it, by
    # word or in a tuple in leaf order, which must hold one per star leaf
    assert check_proof_fragment(GRZ, TreeNW(glued), {(1,): ok_refl[0]}).ok
    assert check_proof_fragment(GRZ, TreeNW(glued), (ok_refl[0],)).ok
    for leaves in [(), (ok_refl[0], ok_refl[0])]:
        with pytest.raises(CalculusError, match="one sequent per star leaf"):
            check_proof_fragment(GRZ, TreeNW(glued), leaves)
    findings = check_proof_fragment(GRZ, TreeNW(glued), {(1,): seq([Box(P)], [Q])}).findings
    assert [(f.node, f.condition) for f in findings] == [(EPSILON, "rule")]
