import hashlib
from pathlib import Path

import pytest

from grzlib import (
    P,
    atomic_cut_graph,
    ax_graph,
    box_chain,
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
from nwproofs.commands import _print_unfolding, print_proof_file
from nwproofs.coalgebra import Coalgebra, UnfoldBudget, reachable
from nwproofs.fftree import Unfolding, unfold
from nwproofs.graphfile import parse_proof_file
from nwproofs.grz import GRZ, GRZ_CUT, cut_elim, cut_elimination_step
from nwproofs.grz.rules import CALCULI
from nwproofs.search import SearchBudget, search
from nwproofs.store import Arena, canonical_form
from nwproofs.translate import (
    NotASourceProof,
    StepContractViolation,
    TranslationStep,
    extend,
    identity_step,
    validate_step,
)
from nwproofs.trees import EPSILON, TreeNW, Truncation
from paper_defs import compute_fragmentation, partition, root_map, truncations

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
        assert partition(out.tree) == partition(direct.tree), path.name
        assert set(truncations(out)) == set(truncations(direct)), path.name
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
    assert computed == root_map(out.tree)


def test_step_contract_violation_condition_two():
    base = identity_step(GRZ_CUT)

    def bad_apply(pg):
        frag, parts = base.apply(pg)
        junk = graph("b0", b0=node(seq([P], []), "box"))  # structurally labelled junk
        return frag, tuple(pg.store.include(junk) for _ in parts)

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
        for w, t in zip(frag.leaf_order, parts):
            labels[w] = Truncation("hole", pg.fragment(t).label(EPSILON))
        return TreeNW(labels), ()

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
    holed = ProofGraph._view(Coalgebra.view({"s0": (TreeNW(labels), ())}), "s0", None)
    base = identity_step(GRZ)

    def apply(value):
        fragment, parts = base.apply(value)
        return fragment, tuple(value.store.include(holed) for _ in parts)

    step = TranslationStep(GRZ, GRZ, apply, name="holed residual")
    for memo in (True, False):
        with pytest.raises(NotASourceProof, match="node 1 is not labelled"):
            extend(base, holed, BUDGET, memo=memo)
        with pytest.raises(StepContractViolation) as err:
            extend(step, box_step_graph(), BUDGET, memo=memo)
        assert err.value.condition == 2

# the message each bad residual tuple gets from the coalgebra's destructor check
PER_LEAF = "state 's0' needs a tuple of one target per star leaf"


@pytest.mark.parametrize("memo", [True, False])
def test_a_residual_that_is_no_stored_state_breaks_condition_two(memo):
    # a step gives each star leaf a state id of the store it was handed; a
    # message names the leaf of a residual that is there
    base = identity_step(GRZ)
    bad_targets = {
        "a view": (
            lambda pg, targets: tuple(pg.at(t) for t in targets),
            "state 's0' links 1 to unknown state ProofGraph(",
        ),
        "an id the store lacks": (
            lambda pg, targets: tuple("nowhere" for _ in targets),
            "state 's0' links 1 to unknown state 'nowhere'",
        ),
        "an omitted leaf": (lambda pg, targets: (), PER_LEAF),
    }
    for kind, (bad, message) in bad_targets.items():

        def apply(pg, bad=bad):
            fragment, targets = base.apply(pg)
            return fragment, bad(pg, targets)

        step = TranslationStep(GRZ, GRZ, apply, name=kind)
        with pytest.raises(StepContractViolation) as err:
            extend(step, box_step_graph(), BUDGET, memo=memo)
        assert err.value.condition == 2, kind
        assert str(err.value).startswith(f"condition 2: {message}"), kind


@pytest.mark.parametrize("memo", [True, False])
def test_more_residuals_than_star_leaves_break_condition_two(memo):
    # one stored residual per star leaf, and one more that no leaf reads
    base = identity_step(GRZ)

    def apply(pg):
        fragment, targets = base.apply(pg)
        return fragment, (*targets, pg.root)

    step = TranslationStep(GRZ, GRZ, apply, name="extra")
    with pytest.raises(StepContractViolation, match=PER_LEAF) as err:
        extend(step, box_step_graph(), BUDGET, memo=memo)
    assert err.value.condition == 2


@pytest.mark.parametrize("memo", [True, False])
def test_residuals_that_are_no_tuple_break_condition_two(memo):
    # even on a fragment with no star leaf, which no residual is read for
    base = identity_step(GRZ)

    def apply(pg):
        fragment, targets = base.apply(pg)
        return fragment, list(targets)

    step = TranslationStep(GRZ, GRZ, apply, name="a list")
    for pg in (box_step_graph(), ax_graph()):
        with pytest.raises(StepContractViolation, match=PER_LEAF) as err:
            extend(step, pg, BUDGET, memo=memo)
        assert err.value.condition == 2


def test_a_residual_is_any_stored_state_id():
    # a coalgebra takes any hashable state ids, so a residual need not be a string
    pg = box_step_graph()
    ids = {s: i for i, s in enumerate(sorted(pg.states))}
    dest = {ids[s]: (f, tuple(ids[t] for t in targets)) for s, (f, targets) in pg.graph._dest.items()}
    numbered = ProofGraph(Coalgebra(dest), ids[pg.root])
    for memo in (True, False):
        expected = extend(identity_step(GRZ), pg, BUDGET, memo=memo)
        assert extend(identity_step(GRZ), numbered, BUDGET, memo=memo) == expected, memo


@pytest.mark.parametrize("memo", [True, False])
def test_identity_extend_leaves_the_input_destructors_as_they_were(memo):
    # included states share their target tuples with the input, and the
    # identity step hands back the stored destructor itself
    for path in sorted(CORPUS.glob("*.proof")):
        name, pg = parse_proof_file(path.read_text())
        before = {s: (frag, links, tuple(links)) for s, (frag, links) in pg.graph._dest.items()}
        extend(identity_step(CALCULI[name]), pg, UnfoldBudget(3), memo=memo)
        assert pg.graph._dest.keys() == before.keys(), path.name
        for s, (frag, links, copy) in before.items():
            assert pg.graph._dest[s] == (frag, copy), (path.name, s)
            assert pg.graph._dest[s][1] is links, (path.name, s)
    arena = Arena()
    view = arena.view(arena.include(pg))
    assert identity_step(GRZ).apply(view) is view.graph._dest[view.root]
    assert view.graph._dest[view.root][1] is pg.graph._dest[pg.root][1]


@pytest.mark.parametrize("memo", [True, False])
def test_extend_applies_the_step_once_per_state(memo):
    # a memo-on extension that does not close lays out the states its first
    # pass stepped, without stepping them again
    cases = [
        (cut_elimination_step(), cut_above_loop_graph()),
        (identity_step(GRZ_CUT), boxed_context_cut_graph()),
        (identity_step(GRZ_CUT), weakening_part_cut_graph()),
        (identity_step(GRZ), self_loop_graph()),
    ]
    closed = set()
    for max_states in (1, 2, 512):
        for base, pg in cases:
            calls: dict = {}

            def apply(value, base=base, calls=calls):
                calls[value.root] = calls.get(value.root, 0) + 1
                return base.apply(value)

            step = TranslationStep(base.source, base.target, apply, name=base.name)
            out = extend(step, pg, UnfoldBudget(3), memo=memo, max_states=max_states)
            closed.add(isinstance(out, ProofGraph))
            assert set(calls.values()) == {1}, (base.name, max_states, calls)
    assert closed == ({True, False} if memo else {False})


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
        return frag, tuple(pg.store.include(graph("b0", b0=node(seq([P], []), "box"))) for _ in parts)

    def missing(pg):
        frag, _ = base.apply(pg)
        return frag, ()

    for apply in (garbled, missing):
        report = validate_step(TranslationStep(GRZ, GRZ, apply), [ax_graph(), box_step_graph()])
        assert [(f.index, f.condition) for f in report.findings] == [(1, 2)], apply.__name__


def _emitted(out, calculus_name: str) -> str:
    if isinstance(out, Unfolding):
        return _print_unfolding(out)
    return print_proof_file(out, calculus_name)


def engine_outputs() -> str:
    """SHA-256 over what the engine emits: every corpus file under the
    identity step with memo on, and with memo off at depth 3; the grz+cut
    files under memo-off cut elimination at depth 3; and the identity
    extension of the nested family, n = 4..16."""
    digest = hashlib.sha256()
    for path in sorted(CORPUS.glob("*.proof")):
        name, pg = parse_proof_file(path.read_text())
        step = identity_step(CALCULI[name])
        digest.update(_emitted(extend(step, pg, UnfoldBudget(3)), name).encode())
        digest.update(_emitted(extend(step, pg, UnfoldBudget(3), memo=False), name).encode())
        if name == GRZ_CUT.name:
            digest.update(_emitted(cut_elim(pg, UnfoldBudget(3), memo=False), GRZ.name).encode())
    for n in range(4, 17):
        pg = search(GRZ, box_chain(n), SearchBudget(n + 3, n + 3))
        digest.update(_emitted(extend(identity_step(GRZ), pg, UnfoldBudget(3)), GRZ.name).encode())
    return digest.hexdigest()


# A change to what any translation emits changes it, and must say so.
ENGINE_DIGEST = "0b1f940e3744b439ebc11bda0bda23ee9465cc8c66ec8f18dbe0a14abfab3d52"


def test_engine_outputs_are_pinned():
    assert engine_outputs() == ENGINE_DIGEST
