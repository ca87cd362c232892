import collections
import functools
import hashlib
import random
from pathlib import Path

import pytest

from grzlib import (
    P,
    Q,
    atomic_cut_graph,
    ax_graph,
    box_principal_cut_graph,
    box_step_graph,
    boxed_context_cut_graph,
    complete_blocks,
    cut_above_loop_graph,
    graph,
    node,
    self_loop_graph,
    seq,
    weakening_part_cut_graph,
)
from nwproofs.calculus import ProofGraph, check_proof_graph
from nwproofs.coalgebra import UnfoldBudget
from nwproofs.fftree import Unfolding, unfold
from nwproofs.grz import (
    GRZ,
    GRZ_CUT,
    Bot,
    Box,
    CutMeasure,
    Imp,
    NotAProof,
    cut_elim,
    cuts_up,
    reduce_cut,
)
from nwproofs.grz.rules import CUT
from nwproofs.store import canonical_form, subproof, to_nested
from nwproofs.trees import Truncation


def count_cuts(pg):
    return sum(
        to_nested(pg.fragment(s), pg.links(s).values()).count(CUT) for s in pg.states
    )


def main_fragment_cuts(pg):
    return to_nested(pg.fragment(pg.root), pg.links(pg.root).values()).count(CUT)


def test_golden_cut_graphs_are_valid():
    for pg in (
        atomic_cut_graph(),
        box_principal_cut_graph(),
        weakening_part_cut_graph(),
        boxed_context_cut_graph(),
        cut_above_loop_graph(),
    ):
        assert check_proof_graph(GRZ_CUT, pg).ok
        assert main_fragment_cuts(pg) == 1


def test_reduce_cut_atomic():
    pg = atomic_cut_graph()
    left = subproof(pg, (0,))
    right = subproof(pg, (1,))
    out = reduce_cut(left, right)
    assert out.root_sequent == seq([P], [P])
    assert check_proof_graph(GRZ, out).ok
    # the result is the plain axiom proof
    assert out.fragment(out.root).labels() == {(): (seq([P], [P]), "ax")}


def test_reduce_cut_box_principal():
    pg = box_principal_cut_graph()
    out = reduce_cut(subproof(pg, (0,)), subproof(pg, (1,)))
    assert out.root_sequent == seq([Box(P), Q], [Q])
    assert check_proof_graph(GRZ_CUT, out).ok
    assert main_fragment_cuts(out) == 0


def test_reduce_cut_weakening_part():
    pg = weakening_part_cut_graph()
    out = reduce_cut(subproof(pg, (0,)), subproof(pg, (1,)))
    assert out.root_sequent == seq([Box(P)], [Box(P)])
    assert check_proof_graph(GRZ_CUT, out).ok
    assert main_fragment_cuts(out) == 0


def test_reduce_cut_boxed_context_leaves_residual_behind_progress():
    pg = boxed_context_cut_graph()
    out = reduce_cut(subproof(pg, (0,)), subproof(pg, (1,)))
    assert out.root_sequent == seq([Box(P)], [Box(Imp(P, P))])
    assert check_proof_graph(GRZ_CUT, out).ok
    assert main_fragment_cuts(out) == 0
    assert count_cuts(out) >= 1  # the residual cut sits in a later fragment


def test_reduce_cut_measure_strictly_decreases():
    for pg in (
        atomic_cut_graph(),
        box_principal_cut_graph(),
        weakening_part_cut_graph(),
        boxed_context_cut_graph(),
        cut_above_loop_graph(),
    ):
        steps = []
        left = subproof(pg, (0,))
        right = subproof(pg, (1,))
        reduce_cut(left, right, on_step=lambda m, bound: steps.append((m, bound)))
        assert steps, "reduction must be instrumented"
        for measure, bound in steps:
            assert isinstance(measure, CutMeasure)
            if bound is not None:
                assert measure < bound


def test_reduce_cut_rejects_mismatched_pairs():
    with pytest.raises(NotAProof):
        reduce_cut(ax_graph(), ax_graph())


def test_reduce_cut_rejects_cutful_main_fragment():
    pg = cut_above_loop_graph()
    with pytest.raises(NotAProof):
        reduce_cut(pg, pg)


def test_cuts_up_identity_on_cut_free():
    pg = box_step_graph()
    out = cuts_up(pg)
    assert check_proof_graph(GRZ, out).ok
    assert canonical_form(out.graph, out.root) == canonical_form(pg.graph, pg.root)
    # handed back as the input state, not rebuilt
    assert out.root == pg.root and out.fragment(out.root) is pg.fragment(pg.root)


def test_cuts_up_single_cut():
    out = cuts_up(atomic_cut_graph())
    assert out.root_sequent == seq([P], [P])
    assert main_fragment_cuts(out) == 0
    assert check_proof_graph(GRZ, out).ok


def test_cuts_up_two_stacked_cuts():
    # cut over a cut: topmost (the inner one) goes first, result clean
    inner = node(
        seq([P], [P, P]),
        "cut",
        node(seq([P], [P, P, P]), "ax"),
        node(seq([P, P], [P, P]), "ax"),
    )
    pg = graph(
        "s0",
        s0=node(seq([P], [P]), "cut", inner, node(seq([P, P], [P]), "ax")),
    )
    assert check_proof_graph(GRZ_CUT, pg).ok
    out = cuts_up(pg)
    assert out.root_sequent == seq([P], [P])
    assert main_fragment_cuts(out) == 0
    assert check_proof_graph(GRZ, out).ok


def test_cuts_up_reduces_premises_before_conclusions_left_to_right():
    # the cut ranks tell the cuts apart: rank 3 is stacked on rank 1,
    # which stands beside rank 2, and both sit on the root cut of rank 0
    def cut(phi, ante, succ, left=None, right=None):
        return node(
            seq(ante, succ),
            "cut",
            left or node(seq(ante, [phi, *succ]), "ax"),
            right or node(seq([phi, *ante], succ), "ax"),
        )

    f0, f1, f2, f3 = Q, Box(Q), Box(Box(Q)), Imp(Q, Box(Box(Q)))
    left = cut(f1, [P], [f0, P], left=cut(f3, [P], [f1, f0, P]))
    right = cut(f2, [f0, P], [P])
    pg = graph("s0", s0=cut(f0, [P], [P], left, right))
    assert check_proof_graph(GRZ_CUT, pg).ok
    seen = []
    out = cuts_up(pg, on_step=lambda measure, bound: seen.append((measure, bound)))
    assert seen == [(CutMeasure(rank, 0), None) for rank in (3, 1, 2, 0)]
    assert main_fragment_cuts(out) == 0
    assert check_proof_graph(GRZ, out).ok


def test_cuts_up_keeps_conclusion_and_calculus():
    for pg in (
        box_principal_cut_graph(),
        weakening_part_cut_graph(),
        boxed_context_cut_graph(),
        cut_above_loop_graph(),
    ):
        out = cuts_up(pg)
        assert out.root_sequent == pg.root_sequent
        assert main_fragment_cuts(out) == 0
        assert check_proof_graph(GRZ_CUT, out).ok


def test_cut_elim_identity_on_cut_free_input():
    pg = self_loop_graph()
    out = cut_elim(pg)
    assert isinstance(out, type(pg))
    assert check_proof_graph(GRZ, out).ok
    assert canonical_form(out.graph, out.root) == canonical_form(pg.graph, pg.root)


def test_cut_elim_atomic_cut_gives_axiom_graph():
    out = cut_elim(atomic_cut_graph())
    assert check_proof_graph(GRZ, out).ok
    assert out.root_sequent == seq([P], [P])
    assert count_cuts(out) == 0
    assert len(out.states) == 1


def test_cut_elim_closes_and_clears_all_goldens():
    for pg in (
        box_principal_cut_graph(),
        weakening_part_cut_graph(),
        boxed_context_cut_graph(),
        cut_above_loop_graph(),
    ):
        out = cut_elim(pg)
        assert not isinstance(out, Unfolding), "expected closure"
        assert out.root_sequent == pg.root_sequent
        assert count_cuts(out) == 0
        assert check_proof_graph(GRZ, out).ok


def test_cut_elim_unfolding_mode_when_states_exhausted():
    pg = boxed_context_cut_graph()
    out = cut_elim(pg, budget=UnfoldBudget(max_depth=4), max_states=1)
    assert isinstance(out, Unfolding)
    # every complete fragment is cut free and checker-valid
    from nwproofs.calculus import check_proof_fragment

    for _, frag, leaf_sequents in complete_blocks(out.tree):
        assert all(
            lab[1] != CUT
            for lab in (frag.label(w) for w in frag.proper_nodes)
            if not isinstance(lab, Truncation)
        )
        assert check_proof_fragment(GRZ, frag, leaf_sequents).ok


def test_cuts_up_on_randomly_planted_multi_cut_fragments():
    import random

    from nwproofs.search import _plant_cut, generate_corpus

    rng = random.Random(91)
    for base in generate_corpus(91, 12, with_cuts=False):
        pg = base
        for _ in range(rng.randint(1, 3)):
            pg = _plant_cut(rng, pg)
        assert check_proof_graph(GRZ_CUT, pg).ok
        out = cuts_up(pg)
        assert out.root_sequent == pg.root_sequent
        assert main_fragment_cuts(out) == 0
        assert check_proof_graph(GRZ_CUT, out).ok


def test_cut_elim_memoized_and_unfolded_agree():
    pg = weakening_part_cut_graph()
    closed = cut_elim(pg, memo=True)
    unfolded = cut_elim(pg, budget=UnfoldBudget(max_depth=3), memo=False)
    assert isinstance(unfolded, Unfolding)
    direct = unfold(closed.graph, closed.root, UnfoldBudget(max_depth=3))

    def strip(tree):
        return {
            w: (("trunc", lab.label) if isinstance(lab, Truncation) else lab)
            for w, lab in tree.labels().items()
        }

    assert strip(direct.tree) == strip(unfolded.tree)
    assert direct.tree.partition() == unfolded.tree.partition()


# -- every cut reduction, pinned -----------------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@functools.lru_cache(maxsize=None)
def reduction_inputs() -> tuple[str, ...]:
    """The printed ``grz+cut`` corpus files, then 150 searched proof pairs
    joined under a cut on a pool formula (built like perfbench's cut
    pairs at seed 1), so that every reduction case fires."""
    from nwproofs.commands import print_proof_file
    from nwproofs.search import SearchBudget, _random_goal, search
    from nwproofs.store import Arena, PNode

    texts = [
        text
        for text in (path.read_text() for path in sorted(CORPUS.glob("*.proof")))
        if text.startswith(f"calculus {GRZ_CUT.name}\n")
    ]
    pool = [P, Box(P), Imp(P, Q), Imp(P, P), Box(Imp(P, P)), Box(Box(P)), Bot(), Imp(Box(P), Q)]
    budget = SearchBudget(8, 10)
    rng = random.Random("cut-pairs:1")
    for _ in range(150):
        while True:
            base = _random_goal(rng, 2, 3)
            phi = rng.choice(pool)
            left = search(GRZ, base.with_right(phi), budget)
            right = None if left is None else search(GRZ, base.with_left(phi), budget)
            if right is not None:
                break
        arena = Arena()
        la, lb = arena.include(left), arena.include(right)
        joined = arena.proof(PNode(base, CUT, (arena.materialize(la), arena.materialize(lb))))
        texts.append(print_proof_file(joined, GRZ_CUT.name))
    return tuple(texts)


def eliminate_all(texts) -> tuple[str, str]:
    """SHA-256s over every input and its cut-free output, in order, and
    over the outputs alone."""
    from nwproofs.commands import print_proof_file
    from nwproofs.graphfile import parse_proof_file

    digest, outputs = hashlib.sha256(), hashlib.sha256()
    for text in texts:
        _, pg = parse_proof_file(text)
        out = cut_elim(pg)
        assert isinstance(out, ProofGraph) and check_proof_graph(GRZ, out).ok
        printed = print_proof_file(out, GRZ.name).encode()
        digest.update(text.encode())
        digest.update(printed)
        outputs.update(printed)
    return digest.hexdigest(), outputs.hexdigest()


# A change to what any cut reduction produces changes both pins, and must
# say so. The first also hashes the joined inputs, whose state names come
# from the store that joins them; the second does not.
REDUCTION_DIGEST = "4473f266974e186cc5e2f11aa4dc8763b4dbc2b80adb95656186e41befb1b203"
REDUCTION_OUTPUTS_DIGEST = "667d2cd2eb58c4b442a3b70c8e90b448b950c9693fc1af4f69bafcb3abfdedec"


def test_cut_elim_outputs_are_pinned():
    assert eliminate_all(reduction_inputs())[0] == REDUCTION_DIGEST


def test_cut_elim_outputs_alone_are_pinned():
    assert eliminate_all(reduction_inputs())[1] == REDUCTION_OUTPUTS_DIGEST


def test_cut_elim_inputs_reach_every_reduction_case(monkeypatch):
    from nwproofs.grz import cutelim

    fired = collections.Counter()

    def counted(name, key):
        original = getattr(cutelim, name)

        def wrapper(*args, **kwargs):
            fired[key(*args, **kwargs)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cutelim, name, wrapper)

    counted("_principal_cut", lambda arena, pa, pb, phi, *rest: ("principal", type(phi).__name__))
    counted("_permute", lambda arena, node, *rest, left: ("left" if left else "right", node.rule))
    counted("_box_hard_case", lambda *args: ("box-hard",))
    eliminate_all(reduction_inputs())
    cases = {("principal", "Imp"), ("principal", "Box"), ("box-hard",)} | {
        (side, rule) for side in ("left", "right") for rule in ("impl", "impr", "refl", "box")
    }
    assert set(fired) == cases, fired
