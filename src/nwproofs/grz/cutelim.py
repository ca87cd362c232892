"""Pushing cuts out of the root fragment, and full cut elimination.

``reduce_cut`` removes one cut between two proofs whose root fragments
are cut free, by case analysis on their last rules; every recursive
call strictly decreases the (cut-formula rank, local-height sum) pair,
which is asserted at runtime.  ``cuts_up`` applies it to the cuts of
the root fragment in one post-order pass, premises before conclusions,
so each cut meets cut-free premises; ``cut_elim`` extends that
one-fragment move corecursively over the whole regular proof.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import NamedTuple

from ..calculus import Arena, PLink, PNode, ProofGraph
from ..coalgebra import UnfoldBudget, Unfolding
from ..trees import EPSILON, TreeNW, Word
from .admissible import (
    NotAProof,
    _require_proof,
    box_principal_body,
    contract_left_tree,
    contract_right_tree,
    drop_bot_tree,
    inv_box_right_tree,
    inv_imp_right_tree,
    linv_tree,
    rinv_tree,
    weaken_tree,
)
from .formulas import (
    Atom,
    Bot,
    Box,
    Formula,
    Imp,
    Sequent,
    mcount,
    mdiff,
    mset,
    munion,
    rank,
)
from .rules import (
    AX,
    BOT_LEFT,
    BOX,
    CUT,
    GRZ,
    GRZ_CUT,
    IMP_LEFT,
    IMP_RIGHT,
    REFL,
    imp_left_principal,
    imp_right_principal,
    is_axiom,
    is_bot_axiom,
    refl_principal,
)


class MeasureViolation(AssertionError):
    pass


class CutMeasure(NamedTuple):
    """Lexicographic (cut-formula rank, sum of the two local heights)."""

    rank: int
    height_sum: int


StepHook = Callable[[CutMeasure, "CutMeasure | None"], None]


def _measure(phi: Formula, pa: PNode, pb: PNode) -> CutMeasure:
    return CutMeasure(rank(phi), pa.height + pb.height)


def _derive_cut_formula(pa: Sequent, pb: Sequent) -> Formula:
    extra = mdiff(pa.succ, pb.succ)
    if len(extra) != 1 or extra[0][1] != 1:
        raise NotAProof("premises do not share a single cut formula")
    phi = extra[0][0]
    if pb != pa.drop_right(phi).with_left(phi):
        raise NotAProof("premise contexts do not match")
    return phi


_PRINCIPAL = {IMP_LEFT: imp_left_principal, IMP_RIGHT: imp_right_principal, REFL: refl_principal}


def _principal(node: PNode) -> Formula:
    """The formula a logical rule node introduces: on the right for
    ``impr`` and ``box``, on the left for ``impl`` and ``refl``."""
    if node.rule == BOX:
        return Box(box_principal_body(node))
    kids = tuple(c.sequent for c in node.children if isinstance(c, PNode))
    return _PRINCIPAL[node.rule](kids, node.sequent)


def _reduce(
    arena: Arena,
    pa: PNode,
    pb: PNode,
    phi: Formula,
    bound: CutMeasure | None,
    on_step: StepHook | None,
) -> PNode:
    """A proof of the shared context, cut free in its root fragment.

    ``pa`` proves the context with ``phi`` on the right, ``pb`` with
    ``phi`` on the left; both root fragments are cut free.
    """
    measure = _measure(phi, pa, pb)
    if bound is not None and not measure < bound:
        raise MeasureViolation(f"cut measure {measure} did not drop below {bound}")
    if on_step is not None:
        on_step(measure, bound)
    ctx = pa.sequent.drop_right(phi)

    # Initial-sequent cases: the context itself may already be initial;
    # otherwise the initial side forces the cut formula to be atomic (or
    # bottom) and a contraction or bottom deletion on the other side wins.
    if is_axiom(ctx):
        return PNode(ctx, AX, ())
    if is_bot_axiom(ctx):
        return PNode(ctx, BOT_LEFT, ())
    if not pa.children:
        assert pa.rule == AX and isinstance(phi, Atom)
        return contract_left_tree(pb, phi)
    if not pb.children:
        if pb.rule == BOT_LEFT:
            assert phi == Bot()
            return drop_bot_tree(pa)
        assert pb.rule == AX and isinstance(phi, Atom)
        return contract_right_tree(pa, phi)

    assert pa.rule != CUT and pb.rule != CUT, "root fragments must be cut free"

    pa_principal = pa.rule in (IMP_RIGHT, BOX) and _principal(pa) == phi
    pb_principal = pb.rule in (IMP_LEFT, REFL) and _principal(pb) == phi

    if pa_principal and pb_principal:
        return _principal_cut(arena, pa, pb, phi, measure, on_step)
    if not pa_principal:
        return _permute_left(arena, pa, pb, phi, measure, on_step)
    return _permute_right(arena, pa, pb, phi, measure, on_step)


def _principal_cut(arena, pa, pb, phi, measure, on_step) -> PNode:
    if isinstance(phi, Imp):
        # pa ends the right implication rule, pb the left one
        (a0,) = pa.children
        b0, b1 = pb.children
        assert isinstance(a0, PNode) and isinstance(b0, PNode) and isinstance(b1, PNode)
        half = _reduce(
            arena, a0, weaken_tree(b1, Sequent.of([phi.left], [])), phi.right, measure, on_step
        )
        return _reduce(arena, b0, half, phi.left, measure, on_step)
    assert isinstance(phi, Box)
    # pa ends the box rule on phi, pb the reflexivity rule on phi
    (b0,) = pb.children
    a0 = pa.children[0]
    assert isinstance(a0, PNode) and isinstance(b0, PNode)
    half = _reduce(
        arena, weaken_tree(pa, Sequent.of([phi.body], [])), b0, phi, measure, on_step
    )
    return _reduce(arena, a0, half, phi.body, measure, on_step)


def _permute_left(arena, pa, pb, phi, measure, on_step) -> PNode:
    """The cut formula is context in ``pa``: push the cut into its premises."""
    ctx = pa.sequent.drop_right(phi)
    if pa.rule == IMP_LEFT:
        imp = _principal(pa)
        a0, a1 = pa.children
        left = _reduce(arena, a0, linv_tree(pb, imp), phi, measure, on_step)
        right = _reduce(arena, a1, rinv_tree(pb, imp), phi, measure, on_step)
        return PNode(ctx, IMP_LEFT, (left, right))
    if pa.rule == IMP_RIGHT:
        imp = _principal(pa)
        (a0,) = pa.children
        inner = _reduce(arena, a0, inv_imp_right_tree(pb, imp), phi, measure, on_step)
        return PNode(ctx, IMP_RIGHT, (inner,))
    if pa.rule == REFL:
        boxed = _principal(pa)
        (a0,) = pa.children
        inner = _reduce(
            arena, a0, weaken_tree(pb, Sequent.of([boxed.body], [])), phi, measure, on_step
        )
        return PNode(ctx, REFL, (inner,))
    assert pa.rule == BOX, f"unexpected rule {pa.rule} while permuting"
    # the cut formula sits in the weakening part of pa's box
    body = box_principal_body(pa)
    a0, a_link = pa.children
    assert isinstance(a0, PNode) and isinstance(a_link, PLink)
    inverted = inv_box_right_tree(pb, Box(body))
    inner = _reduce(arena, a0, inverted, phi, measure, on_step)
    return PNode(ctx, BOX, (inner, a_link))


def _permute_right(arena, pa, pb, phi, measure, on_step) -> PNode:
    """The cut formula is context in ``pb``; ``pa`` is principal on it."""
    ctx = pa.sequent.drop_right(phi)
    if pb.rule == IMP_LEFT:
        imp = _principal(pb)
        b0, b1 = pb.children
        left = _reduce(arena, linv_tree(pa, imp), b0, phi, measure, on_step)
        right = _reduce(arena, rinv_tree(pa, imp), b1, phi, measure, on_step)
        return PNode(ctx, IMP_LEFT, (left, right))
    if pb.rule == IMP_RIGHT:
        imp = _principal(pb)
        (b0,) = pb.children
        inner = _reduce(arena, inv_imp_right_tree(pa, imp), b0, phi, measure, on_step)
        return PNode(ctx, IMP_RIGHT, (inner,))
    if pb.rule == REFL:
        boxed = _principal(pb)
        (b0,) = pb.children
        inner = _reduce(
            arena, weaken_tree(pa, Sequent.of([boxed.body], [])), b0, phi, measure, on_step
        )
        return PNode(ctx, REFL, (inner,))
    assert pb.rule == BOX, f"unexpected rule {pb.rule} while permuting"
    psi = box_principal_body(pb)
    b0, b_link = pb.children
    assert isinstance(b0, PNode) and isinstance(b_link, PLink)
    right_seq = _state_sequent(arena, b_link.target)
    in_weakening = mcount(pb.sequent.ante, phi) > mcount(right_seq.ante, phi)
    if in_weakening:
        inverted = inv_box_right_tree(pa, Box(psi))
        inner = _reduce(arena, inverted, b0, phi, measure, on_step)
        return PNode(ctx, BOX, (inner, b_link))
    # Hard case: the cut formula is one of the boxed hypotheses carried
    # by pb's box.  Both sides end a box; a residual cut on the same
    # formula is assembled behind the progress edge, outside the root
    # fragment, where it will be dealt with on a later corecursion step.
    assert pa.rule == BOX and Box(box_principal_body(pa)) == phi
    a0, a_link = pa.children
    assert isinstance(a0, PNode) and isinstance(a_link, PLink)
    boxes_a = _state_sequent(arena, a_link.target).ante          # boxed context of pa
    boxes_b = mdiff(right_seq.ante, mset([phi]))                 # pb's boxes minus the cut formula
    only_b = mdiff(boxes_b, boxes_a)
    only_a = mdiff(boxes_a, boxes_b)
    inverted = inv_box_right_tree(pa, Box(psi))
    main = _reduce(arena, inverted, b0, phi, measure, on_step)

    pa1 = arena.materialize(a_link.target)
    pb1 = arena.materialize(b_link.target)
    shared = munion(boxes_a, only_b)
    inner_left = weaken_tree(pa1, Sequent(only_b, mset([psi])))
    inner_box = PNode(
        Sequent(shared, mset([psi, phi])),
        BOX,
        (inner_left, PLink(a_link.target)),
    )
    residual_right = weaken_tree(pb1, Sequent(only_a, ()))
    residual = PNode(Sequent(shared, mset([psi])), CUT, (inner_box, residual_right))
    return PNode(ctx, BOX, (main, PLink(arena.intern(residual))))


def _state_sequent(arena: Arena, state: str) -> Sequent:
    return arena.state_fragment(state).label(EPSILON)[0]


def reduce_cut(
    left: ProofGraph, right: ProofGraph, on_step: StepHook | None = None
) -> ProofGraph:
    """Cut two proofs of a shared context against each other.

    ``left`` proves the context extended with the cut formula on the
    right, ``right`` with it on the left; neither may have a cut in its
    root fragment.  The result proves the bare context, again with a
    cut-free root fragment.
    """
    _require_proof(left)
    _require_proof(right)
    for pg, name in ((left, "left"), (right, "right")):
        if _has_cut(pg.fragment(pg.root)):
            raise NotAProof(f"{name} premise has a cut in its root fragment")
    phi = _derive_cut_formula(left.root_sequent, right.root_sequent)
    arena = Arena()
    la = arena.include(left)
    lb = arena.include(right)
    out = _reduce(arena, arena.materialize(la), arena.materialize(lb), phi, None, on_step)
    return arena.proof(out)


def _has_cut(fragment: TreeNW) -> bool:
    return any(fragment.label(w)[1] == CUT for w in fragment.proper_nodes)


def _cut_free(
    arena: Arena, fragment: TreeNW, links: Mapping[Word, str], w: Word, on_step: StepHook | None
) -> PNode | PLink:
    """The node at ``w`` with every cut at or above it reduced, premises
    before conclusions and left to right, so each cut meets cut-free
    premises."""
    if w in links:
        return PLink(links[w])
    sequent, rule = fragment.label(w)
    kids = tuple(_cut_free(arena, fragment, links, c, on_step) for c in fragment.children(w))
    if rule != CUT:
        return PNode(sequent, rule, kids)
    pa, pb = kids
    assert isinstance(pa, PNode) and isinstance(pb, PNode)
    return _reduce(arena, pa, pb, _derive_cut_formula(pa.sequent, pb.sequent), None, on_step)


def cuts_up(pg: ProofGraph, on_step: StepHook | None = None) -> ProofGraph:
    """Remove every cut from the root fragment in one post-order pass.

    Cuts are reduced premises before conclusions and left to right,
    which is the order of the least word among the cuts with no cut
    above them.  A view of an :class:`Arena` is rewritten in that store,
    anything else in a fresh one; the result is a view, and a root
    fragment with no cut is handed back as the input state.
    """
    _require_proof(pg)
    arena = pg.store if pg.store is not None else Arena()
    root = arena.include(pg)
    fragment = arena.state_fragment(root)
    if not _has_cut(fragment):
        return arena.view(root)
    top = _cut_free(arena, fragment, arena.graph.links(root), EPSILON, on_step)
    assert isinstance(top, PNode)
    clean = arena.intern(top)
    assert not _has_cut(arena.state_fragment(clean)), "root fragment must be cut free"
    return arena.view(clean)


def cut_elimination_step():
    """One corecursion step: clear the root fragment, hand back the rest."""
    from ..translate import TranslationStep

    def apply(pg: ProofGraph):
        clean = cuts_up(pg)
        fragment = clean.fragment(clean.root)
        links = clean.links(clean.root)
        return fragment, {w: clean.at(links[w]) for w in fragment.nw_leaves}

    return TranslationStep(GRZ_CUT, GRZ, apply, name="cut-elim")


def cut_elim(
    pg: ProofGraph,
    budget: UnfoldBudget | None = None,
    memo: bool = True,
    max_states: int = 256,
) -> ProofGraph | Unfolding:
    """Translate a proof with cuts into a cut-free one.

    With memoization on, bisimilar residual proofs are detected through
    their class ids in the translation's state store and become back
    links, so regular inputs usually close into a finite cut-free graph;
    otherwise the result is a budgeted unfolding whose complete
    fragments are all cut free and checker valid.
    """
    from ..translate import extend

    if budget is None:
        budget = UnfoldBudget(max_depth=6, max_nodes=200_000)
    return extend(cut_elimination_step(), pg, budget, memo=memo, max_states=max_states)
