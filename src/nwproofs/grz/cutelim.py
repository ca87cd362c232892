"""Pushing cuts out of the root fragment, and full cut elimination.

``reduce_cut`` removes one cut between two proofs whose root fragments
are cut free.  Past the initial sequents a reduction has one of three
shapes: a principal cut, where both premises introduce the cut formula
(:func:`~.admissible.principal`, the one reader of a nested node's
principal formula) and the cut moves to its parts; a permutation, where
the cut formula is context in one premise's last rule, so the other
premise is carried into each premise of that rule by the rule's
inversion and the rule is re-applied; and the box-hard case, where a box
carries the cut formula in its boxed context and a residual cut is left
behind the progress edge.  Every recursive call strictly decreases the
(cut-formula rank, local-height sum) pair, which is asserted at runtime.
``cuts_up`` applies it to the cuts of the root fragment in one post-order
pass, premises before conclusions, so each cut meets cut-free premises;
``cut_elim`` extends that one-fragment move corecursively over the whole
regular proof.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from contextlib import contextmanager
from typing import NamedTuple

from ..calculus import ProofGraph
from ..coalgebra import BudgetExceeded
from ..fftree import UnfoldBudget, Unfolding
from ..store import Arena, PLink, PNode, to_nested
from ..trees import EPSILON, STAR, TreeNW
from .admissible import (
    NotAProof,
    _require_proof,
    contract_left_tree,
    contract_right_tree,
    drop_bot_tree,
    inv_box_right_tree,
    inv_imp_right_tree,
    linv_tree,
    principal,
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
    is_axiom,
    is_bot_axiom,
)


class MeasureViolation(AssertionError):
    pass


def rank(f: Formula) -> int:
    """Connective count; strictly drops from a box or implication to its parts."""
    if isinstance(f, (Bot, Atom)):
        return 0
    if isinstance(f, Box):
        return 1 + rank(f.body)
    if isinstance(f, Imp):
        return 1 + rank(f.left) + rank(f.right)
    raise TypeError(f"not a formula: {f!r}")


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

    pa_principal = pa.rule in (IMP_RIGHT, BOX) and principal(pa) == phi
    pb_principal = pb.rule in (IMP_LEFT, REFL) and principal(pb) == phi

    if pa_principal and pb_principal:
        return _principal_cut(arena, pa, pb, phi, measure, on_step)
    if not pa_principal:
        return _permute(arena, pa, pb, phi, measure, on_step, left=True)
    # the box-hard case: pb's box carries phi in its boxed context
    if pb.rule == BOX and mcount(pb.sequent.ante, phi) <= mcount(
        _state_sequent(arena, pb.children[1].target).ante, phi
    ):
        return _box_hard_case(arena, pa, pb, phi, measure, on_step)
    return _permute(arena, pb, pa, phi, measure, on_step, left=False)


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


def _carried(rule: str, proof: PNode, f: Formula) -> tuple[PNode, ...]:
    """``proof``, the other cut premise, rewritten for each proper premise
    of a ``rule`` node with principal formula ``f``, by that rule's move."""
    if rule == IMP_LEFT:
        return linv_tree(proof, f), rinv_tree(proof, f)
    if rule == IMP_RIGHT:
        return (inv_imp_right_tree(proof, f),)
    if rule == REFL:
        return (weaken_tree(proof, Sequent.of([f.body], [])),)
    assert rule == BOX, f"unexpected rule {rule} while permuting"
    return (inv_box_right_tree(proof, f),)


def _permute(arena, node, other, phi, measure, on_step, left: bool) -> PNode:
    """The cut formula is context in ``node``'s last rule, and ``node`` is
    the left cut premise if ``left``: cut each premise of that rule
    against ``other`` carried into it, and re-apply the rule.  A box
    keeps its link, since the cut formula sits in its weakening part."""
    kids: list[PNode | PLink] = []
    for premise, carried in zip(node.children, _carried(node.rule, other, principal(node))):
        pair = (premise, carried) if left else (carried, premise)
        kids.append(_reduce(arena, *pair, phi, measure, on_step))
    kids.extend(node.children[len(kids) :])
    ctx = (node if left else other).sequent.drop_right(phi)
    return PNode(ctx, node.rule, tuple(kids))


def _box_hard_case(arena, pa, pb, phi, measure, on_step) -> PNode:
    """The cut formula is one of the boxed hypotheses carried by ``pb``'s
    box, and ``pa`` ends a box on it.  A residual cut on the same formula
    is assembled behind the progress edge, outside the root fragment,
    where it will be dealt with on a later corecursion step."""
    assert pa.rule == BOX and principal(pa) == phi
    boxed = principal(pb)
    psi = boxed.body
    b0, b_link = pb.children
    a_link = pa.children[1]
    assert isinstance(b0, PNode) and isinstance(b_link, PLink) and isinstance(a_link, PLink)
    boxes_a = _state_sequent(arena, a_link.target).ante  # boxed context of pa
    boxes_b = mdiff(_state_sequent(arena, b_link.target).ante, mset([phi]))  # pb's, but phi
    only_b = mdiff(boxes_b, boxes_a)
    only_a = mdiff(boxes_a, boxes_b)
    main = _reduce(arena, inv_box_right_tree(pa, boxed), b0, phi, measure, on_step)

    shared = munion(boxes_a, only_b)
    inner_left = weaken_tree(arena.materialize(a_link.target), Sequent(only_b, mset([psi])))
    inner_box = PNode(Sequent(shared, mset([psi, phi])), BOX, (inner_left, PLink(a_link.target)))
    residual_right = weaken_tree(arena.materialize(b_link.target), Sequent(only_a, ()))
    residual = PNode(Sequent(shared, mset([psi])), CUT, (inner_box, residual_right))
    return PNode(pa.sequent.drop_right(phi), BOX, (main, PLink(arena.intern(residual))))


def _state_sequent(arena: Arena, state: str) -> Sequent:
    return arena.state_fragment(state).label(EPSILON)[0]


def reduce_cut(
    left: ProofGraph, right: ProofGraph, on_step: StepHook | None = None
) -> ProofGraph:
    """Cut two proofs of a shared context against each other.

    ``left`` proves the context extended with the cut formula on the
    right, ``right`` with it on the left; neither may have a cut in its
    root fragment.  The result proves the bare context, again with a
    cut-free root fragment.  A reduction deeper than the interpreter's
    recursion limit raises ``BudgetExceeded``.
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
    with _recursion_budget():
        out = _reduce(arena, arena.materialize(la), arena.materialize(lb), phi, None, on_step)
    return arena.proof(out)


@contextmanager
def _recursion_budget():
    """Report a cut reduction that recurses past the interpreter's limit
    (``_reduce`` takes a frame pair per permuted level) as a budget."""
    try:
        yield
    except RecursionError:
        raise BudgetExceeded(f"cut reduction hits recursion limit {sys.getrecursionlimit()}") from None


def _has_cut(fragment: TreeNW) -> bool:
    return any(label is not STAR and label[1] == CUT for label in fragment.key[0])


def _cut_free(arena: Arena, state: str, on_step: StepHook | None) -> PNode:
    """The state's fragment with every cut reduced, premises before
    conclusions and left to right, so each cut meets cut-free premises;
    the walk keeps its own stack, so deep fragments do not recurse."""

    def node(sequent: Sequent, rule: str, kids: tuple) -> PNode:
        if rule != CUT:
            return PNode(sequent, rule, kids)
        pa, pb = kids
        assert isinstance(pa, PNode) and isinstance(pb, PNode)
        return _reduce(arena, pa, pb, _derive_cut_formula(pa.sequent, pb.sequent), None, on_step)

    return to_nested(*arena.graph._dest[state], node)


def cuts_up(pg: ProofGraph, on_step: StepHook | None = None) -> ProofGraph:
    """Remove every cut from the root fragment in one post-order pass.

    Cuts are reduced premises before conclusions and left to right,
    which is the order of the least word among the cuts with no cut
    above them.  A view of an :class:`Arena` is rewritten in that store,
    anything else in a fresh one; the result is a view, and a root
    fragment with no cut is handed back as the input state.  A reduction
    deeper than the interpreter's recursion limit raises
    ``BudgetExceeded``.
    """
    _require_proof(pg)
    arena = pg.store if pg.store is not None else Arena()
    root = arena.include(pg)
    fragment = arena.state_fragment(root)
    if not _has_cut(fragment):
        return arena.view(root)
    with _recursion_budget():
        reduced = _cut_free(arena, root, on_step)
    clean = arena.intern(reduced)
    assert not _has_cut(arena.state_fragment(clean)), "root fragment must be cut free"
    return arena.view(clean)


def cut_elimination_step():
    """One corecursion step: the stored destructor of ``cuts_up(pg)``."""
    from ..translate import TranslationStep, identity_step

    split = identity_step(GRZ).apply
    return TranslationStep(GRZ_CUT, GRZ, lambda pg: split(cuts_up(pg)), name="cut-elim")


def cut_elim(
    pg: ProofGraph,
    budget: UnfoldBudget | None = None,
    memo: bool = True,
    max_states: int = 256,
) -> ProofGraph | Unfolding:
    """Translate a proof with cuts into a cut-free one.

    With memoization on, bisimilar residual proofs are detected through
    their ids in the translation's state store and become back
    links, so regular inputs usually close into a finite cut-free graph;
    otherwise the result is a budgeted unfolding whose complete
    fragments are all cut free and checker valid.
    """
    from ..translate import extend

    if budget is None:
        budget = UnfoldBudget(max_depth=6, max_nodes=200_000)
    return extend(cut_elimination_step(), pg, budget, memo=memo, max_states=max_states)
