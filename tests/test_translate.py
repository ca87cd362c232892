from pathlib import Path

import pytest

from grzlib import (
    P,
    atomic_cut_graph,
    ax_graph,
    box_step_graph,
    boxed_context_cut_graph,
    cut_above_loop_graph,
    graph,
    node,
    self_loop_graph,
    seq,
    weakening_part_cut_graph,
)
from nwproofs.calculus import ProofGraph, check_proof_graph
from nwproofs.coalgebra import Coalgebra, UnfoldBudget, reachable
from nwproofs.fftree import Unfolding, compute_fragmentation, unfold
from nwproofs.graphfile import parse_proof_file
from nwproofs.grz import GRZ, GRZ_CUT, cut_elimination_step
from nwproofs.grz.rules import CALCULI
from nwproofs.store import canonical_form
from nwproofs.translate import (
    NotASourceProof,
    StepContractViolation,
    TranslationStep,
    extend,
    identity_step,
    validate_step,
)
from nwproofs.trees import EPSILON, TreeNW, Truncation

BUDGET = UnfoldBudget(max_depth=4)
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_identity_extension_is_bisimilar():
    for pg in (ax_graph(), box_step_graph(), self_loop_graph()):
        out = extend(identity_step(GRZ), pg, BUDGET)
        assert not isinstance(out, Unfolding)
        assert canonical_form(out.graph, out.root) == canonical_form(pg.graph, pg.root)
        assert out.root_sequent == pg.root_sequent


def test_identity_without_memo_unfolds():
    def strip(tree):
        return {
            w: (("trunc", lab.label) if isinstance(lab, Truncation) else lab)
            for w, lab in tree.labels().items()
        }

    cyclic = 0
    for path in sorted(CORPUS.glob("*.proof")):
        name, pg = parse_proof_file(path.read_text())
        if not any(s in reachable(pg.graph, t) for s in pg.states for t in pg.links(s).values()):
            continue
        cyclic += 1
        out = extend(identity_step(CALCULI[name]), pg, UnfoldBudget(max_depth=3), memo=False)
        assert isinstance(out, Unfolding)
        direct = unfold(pg.graph, pg.root, UnfoldBudget(max_depth=3))
        assert strip(out.tree) == strip(direct.tree), path.name
        assert out.tree.partition() == direct.tree.partition(), path.name
        assert set(out.truncations) == set(direct.truncations), path.name
    assert cyclic >= 4


def test_extension_rejects_non_proof_input():
    bad = graph("s0", s0=node(seq([P], []), "ax"))
    with pytest.raises(ValueError):
        extend(identity_step(GRZ), bad, BUDGET)


def test_cut_elimination_step_extension_produces_grz_proof():
    for pg in (atomic_cut_graph(), weakening_part_cut_graph(), cut_above_loop_graph()):
        out = extend(cut_elimination_step(), pg, BUDGET)
        assert not isinstance(out, Unfolding)
        assert check_proof_graph(GRZ, out).ok
        assert out.root_sequent == pg.root_sequent


def test_extension_unfolding_projects_to_proof_tree():
    # composing with the recomputed fragmentation yields a checkable tree
    pg = boxed_context_cut_graph()
    out = extend(cut_elimination_step(), pg, UnfoldBudget(max_depth=3), memo=False)
    assert isinstance(out, Unfolding)
    computed = compute_fragmentation(GRZ, out.tree.labels())
    assert computed == out.tree.root_map()


def test_step_contract_violation_condition_two():
    base = identity_step(GRZ_CUT)

    def bad_apply(pg):
        frag, parts = base.apply(pg)
        return frag, {
            w: graph("b0", b0=node(seq([P], []), "box"))  # structurally labelled junk
            for w in parts
        }

    bad = TranslationStep(GRZ_CUT, GRZ_CUT, bad_apply, name="bad2")
    with pytest.raises(StepContractViolation) as err:
        extend(bad, box_step_graph(), BUDGET)
    assert err.value.condition == 2


def test_step_contract_violation_condition_one():
    base = identity_step(GRZ_CUT)

    def bad_apply(pg):
        frag, parts = base.apply(pg)
        relabeled = {
            w: ((lab[0], "refl") if lab[1] == "ax" else lab) if isinstance(lab, tuple) else lab
            for w, lab in frag.labels().items()
        }
        from nwproofs.trees import TreeNW

        return TreeNW(relabeled), parts

    bad = TranslationStep(GRZ_CUT, GRZ_CUT, bad_apply, name="bad1")
    with pytest.raises(StepContractViolation) as err:
        extend(bad, ax_graph(), BUDGET)
    assert err.value.condition == 1


def test_step_contract_violation_truncation_in_place_of_a_link():
    # a truncation leaf emitted in place of a link would be a hole; the
    # target check refuses it as it refuses any label but a star or a
    # (sequent, rule) pair
    base = identity_step(GRZ)

    def holed_apply(pg):
        frag, parts = base.apply(pg)
        labels = frag.labels()
        for w in frag.nw_leaves:
            labels[w] = Truncation("hole", parts[w].fragment(parts[w].root).label(EPSILON))
        return TreeNW(labels), {}

    holed = TranslationStep(GRZ, GRZ, holed_apply, name="holed")
    for memo in (True, False):
        with pytest.raises(StepContractViolation) as err:
            extend(holed, box_step_graph(), BUDGET, memo=memo)
        assert err.value.condition == 1


def test_step_contract_violation_foreign_label_anywhere():
    # the target check admits (sequent, rule) labels and stars only: a
    # truncation mark or any other label at the root, an inner node or a
    # leaf breaks condition 1, with and without memoization
    base = identity_step(GRZ)
    marks = (lambda label: Truncation("t", label), lambda label: None)
    for at in (EPSILON, (0,), (0, 0)):
        for mark in marks:

            def apply(pg, at=at, mark=mark):
                frag, parts = base.apply(pg)
                labels = frag.labels()
                if at in labels:
                    labels[at] = mark(labels[at])
                return TreeNW(labels), parts

            step = TranslationStep(GRZ, GRZ, apply, name="foreign")
            for memo in (True, False):
                with pytest.raises(StepContractViolation) as err:
                    extend(step, box_step_graph(), BUDGET, memo=memo)
                assert err.value.condition == 1, (at, memo)

def test_a_truncation_mark_in_a_view_is_no_source_proof():
    # a view is never label-checked on construction; here the box's
    # premise 1 is a truncation mark, not a link
    pg = box_step_graph()
    frag = pg.fragment("s0")
    labels = frag.labels()
    labels[(1,)] = Truncation("t", pg.fragment("s1").label(EPSILON))
    holed = ProofGraph._view(Coalgebra.view({"s0": (TreeNW(labels), {})}), "s0", None)
    base = identity_step(GRZ)

    def apply(value):
        fragment, parts = base.apply(value)
        return fragment, {w: holed for w in parts}

    step = TranslationStep(GRZ, GRZ, apply, name="holed residual")
    for memo in (True, False):
        with pytest.raises(NotASourceProof, match="node 1 is not labelled"):
            extend(base, holed, BUDGET, memo=memo)
        with pytest.raises(StepContractViolation) as err:
            extend(step, box_step_graph(), BUDGET, memo=memo)
        assert err.value.condition == 2

def test_validate_step_identity_over_corpus():
    corpus = [ax_graph(), box_step_graph(), self_loop_graph()]
    report = validate_step(identity_step(GRZ), corpus)
    assert report.ok and report.checked == 3


def test_validate_step_cut_elimination_over_cut_corpus():
    corpus = [
        atomic_cut_graph(),
        weakening_part_cut_graph(),
        boxed_context_cut_graph(),
        cut_above_loop_graph(),
    ]
    report = validate_step(cut_elimination_step(), corpus)
    assert report.ok, [str(f) for f in report.findings]


def test_validate_step_reports_rule_relabeling():
    base = identity_step(GRZ)

    def bad_apply(pg):
        frag, parts = base.apply(pg)
        from nwproofs.trees import TreeNW

        relabeled = {
            w: ((lab[0], "bot") if isinstance(lab, tuple) and lab[1] == "ax" else lab)
            for w, lab in frag.labels().items()
        }
        return TreeNW(relabeled), parts

    report = validate_step(TranslationStep(GRZ, GRZ, bad_apply), [ax_graph()])
    assert not report.ok
    assert report.findings[0].condition == 1


def test_validate_step_reports_a_member_that_is_no_proof():
    bad = graph("s0", s0=node(seq([P], []), "ax"))
    report = validate_step(identity_step(GRZ), [ax_graph(), bad, box_step_graph()])
    assert report.checked == 3
    assert [(f.index, f.condition) for f in report.findings] == [(1, 0)]


def test_validate_step_reports_garbled_or_missing_residuals():
    base = identity_step(GRZ)

    def garbled(pg):
        frag, parts = base.apply(pg)
        return frag, {w: graph("b0", b0=node(seq([P], []), "box")) for w in parts}

    def missing(pg):
        frag, _ = base.apply(pg)
        return frag, {}

    for apply in (garbled, missing):
        report = validate_step(TranslationStep(GRZ, GRZ, apply), [ax_graph(), box_step_graph()])
        assert [(f.index, f.condition) for f in report.findings] == [(1, 2)], apply.__name__
