from grzlib import P, Q, seq
from nwproofs.grz import Bot, Box, Imp, rank
from nwproofs.grz.formulas import mdiff, mset, munion
from nwproofs.grz.rules import (
    GRZ,
    GRZ_CUT,
    match_ax,
    match_bot,
    match_box,
    match_cut,
    match_imp_left,
    match_imp_right,
    match_refl,
    refl_principal,
)


def test_ax_matches_any_shared_atom():
    assert match_ax((), seq([P], [P]))
    assert match_ax((), seq([P, Q, Box(P)], [Q, P]))
    assert not match_ax((), seq([P], [Q]))
    assert not match_ax((), seq([Box(P)], [Box(P)]))  # not an atom
    assert not match_ax((seq([P], [P]),), seq([P], [P]))  # no premises allowed


def test_bot_left():
    assert match_bot((), seq([Bot()], []))
    assert match_bot((), seq([Bot(), P], [Q]))
    assert not match_bot((), seq([], [Bot()]))


def test_imp_left_schema():
    imp = Imp(P, Q)
    concl = seq([imp, P], [])
    p0 = seq([P], [P])
    p1 = seq([Q, P], [])
    assert match_imp_left((p0, p1), concl)
    assert not match_imp_left((p1, p0), concl)  # premise order is fixed
    assert not match_imp_left((p0,), concl)


def test_imp_right_schema():
    imp = Imp(P, Q)
    assert match_imp_right((seq([P], [Q]),), seq([], [imp]))
    assert not match_imp_right((seq([Q], [P]),), seq([], [imp]))


def test_refl_schema():
    concl = seq([Box(P)], [P])
    assert match_refl((seq([P, Box(P)], [P]),), concl)
    assert not match_refl((seq([Q, Box(P)], [P]),), concl)
    assert not match_refl((seq([P], [P]),), seq([P], [P]))  # no box on the left


def test_refl_principal_reads_only_full_instances():
    concl = seq([Box(P)], [P])
    assert refl_principal((seq([P, Box(P)], [P]),), concl) == Box(P)
    assert refl_principal((seq([P, Box(P)], [Q]),), concl) is None  # succedent changed
    assert refl_principal((seq([P], [P]),), concl) is None  # box dropped


def test_box_schema_with_weakening_part():
    # premises (S,boxes,body | boxes,body) against conclusion (S,boxes,boxed)
    weakening = seq([Q], [P])
    boxes = [Box(P), Box(Q)]
    concl = weakening.union(seq(boxes, [Box(P)]))
    p0 = weakening.union(seq(boxes, [P]))
    p1 = seq(boxes, [P])
    assert match_box((p0, p1), concl)
    # the right premise may not carry the weakening part
    assert not match_box((p0, weakening.union(seq(boxes, [P]))), concl)
    # nor unboxed hypotheses
    assert not match_box((p0, seq([P], [P])), concl)


def test_cut_schema():
    context = seq([P], [Q])
    phi = Box(Imp(P, Q))
    p0 = context.with_right(phi)
    p1 = context.with_left(phi)
    assert match_cut((p0, p1), context)
    assert not match_cut((p1, p0), context)
    assert not match_cut((p0, context.with_left(Q)), context)


def test_progress_is_box_right_only():
    box_premises = (seq([Box(P)], [P]), seq([Box(P)], [P]))
    box_concl = seq([Box(P)], [Box(P)])
    assert GRZ.progress_set("box", box_premises, box_concl) == frozenset({1})
    assert GRZ.progress_set("impl", (), seq([], [])) == frozenset()
    assert GRZ.progress_set("refl", (), seq([], [])) == frozenset()
    assert GRZ_CUT.progress_set("cut", (), seq([], [])) == frozenset()


def test_calculi_rule_tables():
    assert set(GRZ.rules) == {"ax", "bot", "impl", "impr", "refl", "box"}
    assert set(GRZ_CUT.rules) == set(GRZ.rules) | {"cut"}


def test_rank_strictly_decreases_into_parts():
    f = Imp(Box(P), Imp(P, Q))
    assert rank(Box(f)) > rank(f)
    assert rank(f) > rank(f.left) and rank(f) > rank(f.right)
    assert rank(P) == rank(Bot()) == 0


def test_multiset_algebra():
    a = mset([P, P, Q])
    b = mset([P, Box(P)])
    assert munion(a, b) == mset([P, P, P, Q, Box(P)])
    assert mdiff(a, b) == mset([P, Q])
    # the weakening-part decomposition identity behind the residual cut
    big = munion(a, mdiff(b, a))
    assert big == munion(b, mdiff(a, b))
