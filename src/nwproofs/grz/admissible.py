"""Admissible transformations of proofs: weakening, atomic contraction,
and the inversions of the logical rules.

Each one rewrites only the root state's fragment, on an explicit stack:
in every rule the surrounding context passes through unchanged, and the
right premise of a box node is a link whose subproof is reused as is.
An inversion takes the premise of each node whose principal formula is
the inverted one; :func:`principal` is the one reader of a nested node's
principal formula.  Of the three shapes of a cut reduction (principal
cut, permutation by the context rule's inversion, box-hard case; see
:mod:`.cutelim`), the permutation carries a cut premise through these
moves.  All of them keep the local height (:func:`local_height`) from
growing and never insert a cut, so a cut-free root fragment stays
cut-free.
"""

from __future__ import annotations

from typing import Callable

from ..calculus import CheckReport, ProofGraph
from ..store import Arena, PLink, PNode, check
from .formulas import Atom, Bot, Box, Formula, Imp, Sequent, mdiff
from .rules import (
    BOX,
    GRZ_CUT,
    IMP_LEFT,
    IMP_RIGHT,
    REFL,
    imp_left_principal,
    imp_right_principal,
    refl_principal,
)


class NotAProof(ValueError):
    def __init__(self, message: str, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


class FormulaAbsent(ValueError):
    pass


def local_height(pg: ProofGraph) -> int:
    """Height of the root state's fragment, star leaves included."""
    return pg.fragment(pg.root).height


def _require_proof(pg: ProofGraph) -> None:
    report = check(GRZ_CUT, pg)
    if not report.ok:
        raise NotAProof(f"input fails the proof check:\n{report}", report)


def _rebuild(pg: ProofGraph, move: Callable[..., PNode], *args) -> ProofGraph:
    """The proof whose root fragment is ``move`` applied to ``pg``'s, in a
    fresh store; the root is read from the store's copy of ``pg``, so
    every link it names is a stored state."""
    arena = Arena()
    return arena.proof(move(arena.materialize(arena.include(pg)), *args))


_PRINCIPAL = {IMP_LEFT: imp_left_principal, IMP_RIGHT: imp_right_principal, REFL: refl_principal}


def principal(node: PNode) -> Formula:
    """The formula a logical rule node introduces: on the right for
    ``impr`` and ``box`` (read off the conclusion and the left premise),
    on the left for ``impl`` and ``refl``."""
    if node.rule == BOX:
        extra = mdiff(node.children[0].sequent.succ, node.sequent.succ)
        assert len(extra) == 1 and extra[0][1] == 1
        return Box(extra[0][0])
    kids = tuple(c.sequent for c in node.children if isinstance(c, PNode))
    return _PRINCIPAL[node.rule](kids, node.sequent)


def _invert(
    node: PNode,
    hit: Callable[[PNode], PNode | None],
    edit: Callable[[Sequent], Sequent],
) -> PNode:
    """Apply ``edit`` to every sequent of the subtree at ``node``, but
    replace a node by the proof that ``hit`` returns for it, if any.

    The walk keeps its own stack, premises before conclusions and left
    to right: ``hit`` sees a node before its premises, ``edit`` its
    sequent after them."""
    done: list[PNode | PLink] = []  # the finished subtrees, in that order
    stack: list[tuple[PNode | PLink, bool]] = [(node, False)]  # True once the premises are pushed
    while stack:
        n, built = stack.pop()
        if built:
            k = len(n.children)
            kids = tuple(done[len(done) - k :])
            del done[len(done) - k :]
            done.append(PNode(edit(n.sequent), n.rule, kids))
        elif isinstance(n, PLink):
            done.append(n)
        else:
            taken = hit(n)
            if taken is not None:
                done.append(taken)
            elif not n.children:
                done.append(PNode(edit(n.sequent), n.rule, ()))
            else:
                stack.append((n, True))
                stack.extend([(c, False) for c in reversed(n.children)])
    (top,) = done
    return top


def _no_hit(node: PNode) -> None:
    return None


# -- uniform context edits ---------------------------------------------


def weakening(pg: ProofGraph, extra: Sequent) -> ProofGraph:
    """Add ``extra`` to every sequent of the root fragment.

    At a box node the addition lands in the weakening part, so the right
    link is reused unchanged.
    """
    _require_proof(pg)
    return _rebuild(pg, weaken_tree, extra)


def weaken_tree(node: PNode, extra: Sequent) -> PNode:
    if extra == Sequent():
        return node
    return _invert(node, _no_hit, lambda s: s.union(extra))


def contr_atom_left(pg: ProofGraph, p: Formula) -> ProofGraph:
    """Merge two antecedent copies of the atom ``p`` into one."""
    if not isinstance(p, Atom):
        raise FormulaAbsent(f"contraction wants an atom, got {p!r}")
    _require_proof(pg)
    if pg.root_sequent.left_count(p) < 2:
        raise FormulaAbsent(f"{p!r} does not occur twice on the left")
    return _rebuild(pg, contract_left_tree, p)


def contract_left_tree(node: PNode, p: Formula) -> PNode:
    return _invert(node, _no_hit, lambda s: s.drop_left(p))


def contr_atom_right(pg: ProofGraph, p: Formula) -> ProofGraph:
    if not isinstance(p, Atom):
        raise FormulaAbsent(f"contraction wants an atom, got {p!r}")
    _require_proof(pg)
    if pg.root_sequent.right_count(p) < 2:
        raise FormulaAbsent(f"{p!r} does not occur twice on the right")
    return _rebuild(pg, contract_right_tree, p)


def contract_right_tree(node: PNode, p: Formula) -> PNode:
    return _invert(node, _no_hit, lambda s: s.drop_right(p))


def inv_bot_right(pg: ProofGraph) -> ProofGraph:
    """Delete one succedent bottom everywhere in the root fragment."""
    _require_proof(pg)
    if pg.root_sequent.right_count(Bot()) < 1:
        raise FormulaAbsent("no bottom on the right")
    return _rebuild(pg, drop_bot_tree)


def drop_bot_tree(node: PNode) -> PNode:
    return _invert(node, _no_hit, lambda s: s.drop_right(Bot()))


# -- inversions with a principal short-circuit --------------------------


def linv_imp_left(pg: ProofGraph, imp: Formula) -> ProofGraph:
    """From a proof of S with ``imp`` on the left, a proof of S plus the
    implication's antecedent on the right."""
    _require_proof(pg)
    return _rebuild(pg, linv_tree, _as_imp(pg, imp, left=True))


def rinv_imp_left(pg: ProofGraph, imp: Formula) -> ProofGraph:
    _require_proof(pg)
    return _rebuild(pg, rinv_tree, _as_imp(pg, imp, left=True))


def inv_imp_right(pg: ProofGraph, imp: Formula) -> ProofGraph:
    _require_proof(pg)
    return _rebuild(pg, inv_imp_right_tree, _as_imp(pg, imp, left=False))


def inv_box_right(pg: ProofGraph, boxed: Formula) -> ProofGraph:
    """From a proof of S with a boxed formula on the right, a proof with
    its body instead; the principal case returns the left premise."""
    _require_proof(pg)
    if not isinstance(boxed, Box):
        raise FormulaAbsent(f"expected a boxed formula, got {boxed!r}")
    if pg.root_sequent.right_count(boxed) < 1:
        raise FormulaAbsent(f"{boxed!r} does not occur on the right")
    return _rebuild(pg, inv_box_right_tree, boxed)


def _as_imp(pg: ProofGraph, imp: Formula, left: bool) -> Imp:
    if not isinstance(imp, Imp):
        raise FormulaAbsent(f"expected an implication, got {imp!r}")
    count = pg.root_sequent.left_count(imp) if left else pg.root_sequent.right_count(imp)
    if count < 1:
        side = "left" if left else "right"
        raise FormulaAbsent(f"{imp!r} does not occur on the {side}")
    return imp


def _inversion(
    node: PNode, rule: str, premise: int, f: Formula, edit: Callable[[Sequent], Sequent]
) -> PNode:
    """Invert ``rule`` on ``f``: a ``rule`` node whose principal formula
    is ``f`` gives its premise ``premise``; elsewhere ``f`` is context,
    and ``edit`` rewrites the sequent."""

    def hit(n: PNode) -> PNode | None:
        if n.rule == rule and principal(n) == f:
            return n.children[premise]
        return None

    return _invert(node, hit, edit)


def linv_tree(node: PNode, imp: Imp) -> PNode:
    return _inversion(node, IMP_LEFT, 0, imp, lambda s: s.drop_left(imp).with_right(imp.left))


def rinv_tree(node: PNode, imp: Imp) -> PNode:
    return _inversion(node, IMP_LEFT, 1, imp, lambda s: s.drop_left(imp).with_left(imp.right))


def inv_imp_right_tree(node: PNode, imp: Imp) -> PNode:
    return _inversion(
        node, IMP_RIGHT, 0, imp, lambda s: s.drop_right(imp).with_left(imp.left).with_right(imp.right)
    )


def inv_box_right_tree(node: PNode, boxed: Box) -> PNode:
    return _inversion(node, BOX, 0, boxed, lambda s: s.drop_right(boxed).with_right(boxed.body))
