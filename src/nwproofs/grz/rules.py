"""The sequent rules of the box-modal calculus, with and without cut.

Rules are schema matchers over candidate instances: each takes the
premise sequents and the conclusion and decides membership, treating
the non-displayed part of the conclusion as an arbitrary context.
Progress happens only at the right premise of the box rule.
"""

from __future__ import annotations

from ..calculus import LocalProgressCalculus, ProofGraph
from .formulas import (
    BOT,
    Atom,
    Box,
    Formula,
    Imp,
    Mset,
    Sequent,
    mdiff,
    mformulas,
)

AX = "ax"
BOT_LEFT = "bot"
IMP_LEFT = "impl"
IMP_RIGHT = "impr"
REFL = "refl"
BOX = "box"
CUT = "cut"


def _single(m: Mset) -> Formula | None:
    """The unique formula of a one-element multiset, if it is one."""
    if len(m) == 1 and m[0][1] == 1:
        return m[0][0]
    return None


def is_axiom(s: Sequent) -> bool:
    return any(
        isinstance(f, Atom) and s.right_count(f) > 0 for f in mformulas(s.ante)
    )


def is_bot_axiom(s: Sequent) -> bool:
    return s.left_count(BOT) > 0


def match_ax(premises: tuple, concl: Sequent) -> bool:
    return not premises and is_axiom(concl)


def match_bot(premises: tuple, concl: Sequent) -> bool:
    return not premises and is_bot_axiom(concl)


def match_imp_left(premises: tuple, concl: Sequent) -> bool:
    return len(premises) == 2 and imp_left_principal(premises, concl) is not None


def match_imp_right(premises: tuple, concl: Sequent) -> bool:
    return len(premises) == 1 and imp_right_principal(premises, concl) is not None


def match_refl(premises: tuple, concl: Sequent) -> bool:
    return len(premises) == 1 and refl_principal(premises, concl) is not None


def match_box(premises: tuple, concl: Sequent) -> bool:
    if len(premises) != 2:
        return False
    p0, p1 = premises
    f = _single(p1.succ)
    if f is None:
        return False
    if not all(isinstance(g, Box) for g in mformulas(p1.ante)):
        return False
    boxed = Box(f)
    if concl.right_count(boxed) == 0:
        return False
    if not concl.contains(Sequent(p1.ante, ())):
        return False
    return p0 == concl.drop_right(boxed).with_right(f)


def match_cut(premises: tuple, concl: Sequent) -> bool:
    if len(premises) != 2:
        return False
    p0, p1 = premises
    if p0.ante != concl.ante or p1.succ != concl.succ:
        return False
    f = _single(mdiff(p0.succ, concl.succ))
    return f is not None and p0 == concl.with_right(f) and p1 == concl.with_left(f)


def _progress(rule: str, premises: tuple, concl: Sequent) -> frozenset[int]:
    return frozenset({1}) if rule == BOX else frozenset()


_BASE_RULES = {
    AX: match_ax,
    BOT_LEFT: match_bot,
    IMP_LEFT: match_imp_left,
    IMP_RIGHT: match_imp_right,
    REFL: match_refl,
    BOX: match_box,
}

GRZ = LocalProgressCalculus("grz", dict(_BASE_RULES), _progress)
GRZ_CUT = LocalProgressCalculus("grz+cut", {**_BASE_RULES, CUT: match_cut}, _progress)

CALCULI = {GRZ.name: GRZ, GRZ_CUT.name: GRZ_CUT}


def local_height(pg: ProofGraph) -> int:
    """Height of the root state's fragment, star leaves included."""
    return pg.fragment(pg.root).height


# -- instance decomposition: each rule instance read through its principal
#    formula, for the matchers above, the admissible moves and the cut
#    pushing machinery ---------------------------------------------------


def imp_left_principal(premises: tuple, concl: Sequent) -> Imp | None:
    for f in mformulas(concl.ante):
        if isinstance(f, Imp):
            rest = concl.drop_left(f)
            if premises[0] == rest.with_right(f.left) and premises[1] == rest.with_left(f.right):
                return f
    return None


def imp_right_principal(premises: tuple, concl: Sequent) -> Imp | None:
    for f in mformulas(concl.succ):
        if isinstance(f, Imp):
            if premises[0] == concl.drop_right(f).with_left(f.left).with_right(f.right):
                return f
    return None


def refl_principal(premises: tuple, concl: Sequent) -> Box | None:
    (p,) = premises
    if p.succ != concl.succ:
        return None
    f = _single(mdiff(p.ante, concl.ante))
    if f is not None and p == concl.with_left(f) and concl.left_count(Box(f)) > 0:
        return Box(f)
    return None
