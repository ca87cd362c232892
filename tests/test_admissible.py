import pytest

from grzlib import P, Q, ax_graph, box_step_graph, graph, node, self_loop_graph, seq
from nwproofs.calculus import check_proof_graph
from nwproofs.grz import (
    GRZ,
    Bot,
    Box,
    FormulaAbsent,
    Imp,
    NotAProof,
    Sequent,
    contr_atom_left,
    contr_atom_right,
    inv_bot_right,
    inv_box_right,
    inv_imp_right,
    linv_imp_left,
    local_height,
    rinv_imp_left,
    weakening,
)


def test_weakening_axiom():
    out = weakening(ax_graph(), Sequent.of([Q], []))
    assert out.root_sequent == seq([P, Q], [P])
    assert check_proof_graph(GRZ, out).ok


def test_weakening_empty_is_same_sequent():
    pg = ax_graph()
    out = weakening(pg, Sequent())
    assert out.root_sequent == pg.root_sequent
    assert check_proof_graph(GRZ, out).ok


def test_weakening_box_keeps_right_link():
    pg = box_step_graph()
    out = weakening(pg, Sequent.of([Q], []))
    assert out.root_sequent == seq([Box(P), Q], [Box(P)])
    assert check_proof_graph(GRZ, out).ok
    # the right premise still links to the original, untouched state
    links = out.links(out.root)
    assert links[(1,)] == "s1"
    assert out.fragment("s1") == pg.fragment("s1")
    assert local_height(out) <= local_height(pg)


def test_weakening_rejects_non_proof():
    bad = graph("s0", s0=node(seq([P], [Q]), "ax"))
    with pytest.raises(NotAProof):
        weakening(bad, Sequent.of([P], []))


def test_contraction_left():
    pg = graph("s0", s0=node(seq([P, P], [P]), "ax"))
    out = contr_atom_left(pg, P)
    assert out.root_sequent == seq([P], [P])
    assert check_proof_graph(GRZ, out).ok
    with pytest.raises(FormulaAbsent):
        contr_atom_left(out, P)


def test_contraction_right_through_steps():
    pg = graph(
        "s0",
        s0=node(
            seq([], [Imp(P, P), P, P]),
            "impr",
            node(seq([P], [P, P, P]), "ax"),
        ),
    )
    out = contr_atom_right(pg, P)
    assert out.root_sequent == seq([], [Imp(P, P), P])
    assert check_proof_graph(GRZ, out).ok
    assert local_height(out) == local_height(pg)


def test_contraction_through_box_weakening_part():
    pg = weakening(box_step_graph(), Sequent.of([Q, Q], []))
    out = contr_atom_left(pg, Q)
    assert out.root_sequent == seq([Box(P), Q], [Box(P)])
    assert check_proof_graph(GRZ, out).ok
    assert out.links(out.root)[(1,)] == "s1"


def test_inv_bot_right():
    pg = graph("s0", s0=node(seq([P], [P, Bot()]), "ax"))
    out = inv_bot_right(pg)
    assert out.root_sequent == seq([P], [P])
    assert check_proof_graph(GRZ, out).ok


def test_inv_imp_right_peels_rule():
    pg = graph(
        "s0",
        s0=node(seq([], [Imp(P, P)]), "impr", node(seq([P], [P]), "ax")),
    )
    out = inv_imp_right(pg, Imp(P, P))
    assert out.root_sequent == seq([P], [P])
    assert check_proof_graph(GRZ, out).ok
    assert local_height(out) < local_height(pg)


def test_inv_imp_right_context_case():
    pg = graph("s0", s0=node(seq([Q], [Q, Imp(P, P)]), "ax"))
    out = inv_imp_right(pg, Imp(P, P))
    assert out.root_sequent == seq([Q, P], [Q, P])
    assert check_proof_graph(GRZ, out).ok


def test_linv_rinv_imp_left():
    imp = Imp(P, Q)
    pg = graph(
        "s0",
        s0=node(
            seq([imp, P], [Q]),
            "impl",
            node(seq([P], [P, Q]), "ax"),
            node(seq([Q, P], [Q]), "ax"),
        ),
    )
    lout = linv_imp_left(pg, imp)
    assert lout.root_sequent == seq([P], [Q, P])
    assert check_proof_graph(GRZ, lout).ok
    rout = rinv_imp_left(pg, imp)
    assert rout.root_sequent == seq([Q, P], [Q])
    assert check_proof_graph(GRZ, rout).ok


def test_inv_box_right_principal_returns_left_premise():
    pg = box_step_graph()
    out = inv_box_right(pg, Box(P))
    assert out.root_sequent == seq([Box(P)], [P])
    assert check_proof_graph(GRZ, out).ok
    assert local_height(out) < local_height(pg)


def test_inv_box_right_context_case():
    # box q in the weakening part of a box step on box p
    pg = graph(
        "s0",
        s0=node(
            seq([Box(P)], [Box(Q), Box(P)]),
            "box",
            node(seq([Box(P)], [Box(Q), P]), "refl", node(seq([P, Box(P)], [Box(Q), P]), "ax")),
            node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
        ),
    )
    # right premise must be a link for a valid graph
    from grzlib import link

    pg = graph(
        "s0",
        s0=node(
            seq([Box(P)], [Box(Q), Box(P)]),
            "box",
            node(seq([Box(P)], [Box(Q), P]), "refl", node(seq([P, Box(P)], [Box(Q), P]), "ax")),
            link("s1"),
        ),
        s1=node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
    )
    out = inv_box_right(pg, Box(Q))
    assert out.root_sequent == seq([Box(P)], [Q, Box(P)])
    assert check_proof_graph(GRZ, out).ok
    assert out.links(out.root)[(1,)] == "s1"


def test_inversions_on_cyclic_proof_preserve_validity():
    pg = self_loop_graph()  # box A |- p
    out = weakening(pg, Sequent.of([], [Q]))
    assert check_proof_graph(GRZ, out).ok
    assert out.root_sequent == pg.root_sequent.with_right(Q)
    assert local_height(out) <= local_height(pg)


def test_formula_absent_errors():
    pg = ax_graph()
    with pytest.raises(FormulaAbsent):
        inv_bot_right(pg)
    with pytest.raises(FormulaAbsent):
        inv_box_right(pg, Box(P))
    with pytest.raises(FormulaAbsent):
        linv_imp_left(pg, Imp(P, Q))
    with pytest.raises(FormulaAbsent):
        contr_atom_right(pg, P)


def refl_chain(depth, succ=()):
    # box p0 |- p0 by a chain of `depth` nodes in one fragment: refl steps
    # that each add p0 on the left, then ax; `succ` rides along on the right
    top = node(seq([P] * (depth - 1) + [Box(P)], [P, *succ]), "ax")
    for d in reversed(range(depth - 1)):
        top = node(seq([P] * d + [Box(P)], [P, *succ]), "refl", top)
    return graph("s0", s0=top)


def test_moves_on_a_fragment_deeper_than_the_recursion_limit():
    out = weakening(refl_chain(1100), Sequent.of([Q], []))
    assert out.root_sequent == seq([Box(P), Q], [P])
    assert local_height(out) == 1099
    assert check_proof_graph(GRZ, out).ok
    out = inv_bot_right(refl_chain(1100, [Bot()]))
    assert out.root_sequent == seq([Box(P)], [P])
    assert local_height(out) == 1099
    assert check_proof_graph(GRZ, out).ok
