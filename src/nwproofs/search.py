"""Bounded backward proof search, used as an independent oracle.

Fragments are grown by saturating the non-progress rules up to a height
bound; each box opens a new goal behind its right premise, and goals
are memoized by sequent so a repeated goal becomes a back link.  Every
cycle created this way crosses a progress edge, which is exactly when
back links are sound, so outputs always pass the graph checker, and
``search`` checks each one before it returns it.  The search is
deliberately incomplete: it is a budgeted oracle, not a decision
procedure.

A failed goal is remembered under its sequent and the number of goals
already open or finished, together with the answers to the "is this
goal already in the table?" tests that the failed attempt made.  A
later attempt at the same goal, over a table of the same size that
answers those tests the same way, fails without being explored again.

An ``impl`` or ``cut`` node enumerates its right premise once, when its
left premise yields a first candidate, and pairs that list with every
left candidate in the order of a nested loop; a node whose right
premise has no candidate yields nothing and is left at once.

A fragment enumeration that runs to its end is stored under its
arguments, and every later enumeration of them in the same search
replays it; one abandoned part-way, by an attempt that succeeded, is not.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Iterator

from .calculus import LocalProgressCalculus, ProofGraph, check_proof_graph
from .coalgebra import BudgetError, BudgetExceeded, Coalgebra, reachable, restrict
from .grz.formulas import (
    Atom,
    Bot,
    Box,
    Formula,
    Imp,
    Sequent,
    formula_key,
)
from .grz.rules import (
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
from .grz.admissible import weaken_tree
from .store import PLink, PNode, flatten, replace_subtree, subtree_at, to_nested


@dataclass(frozen=True)
class SearchBudget:
    """Fragment height bound, state-count bound, and optional cut pool."""

    max_fragment_height: int
    max_states: int
    cut_formulas: frozenset[Formula] | None = None

    def __post_init__(self) -> None:
        if self.max_fragment_height < 1 or self.max_states < 1:
            raise BudgetError("budget bounds must be at least 1")


@dataclass(frozen=True)
class _Pending:
    """Placeholder leaf for a goal opened behind a box right premise."""

    sequent: Sequent


class _Tables:
    """Goal bookkeeping, copied on entry so failed attempts roll back."""

    __slots__ = ("ids", "frags")

    def __init__(self, ids=None, frags=None):
        self.ids: dict[Sequent, str] = dict(ids or {})
        self.frags: dict[str, PNode | None] = dict(frags or {})

    def copy(self) -> "_Tables":
        return _Tables(self.ids, self.frags)


class _Search:
    """Backward search with the invertible rules applied eagerly.

    Implication rules and reflexivity are invertible (their inversions
    are admissible without height loss), so they are applied
    deterministically; genuine choice points are only which succedent
    box to open and which cut formula to try, tried in that order.
    """

    def __init__(self, budget: SearchBudget, cuts: bool, rng: random.Random | None):
        self.budget = budget
        self.cuts = cuts and budget.cut_formulas
        self.rng = rng
        self._fail: dict[tuple[Sequent, int], list[tuple[tuple[Sequent, bool], ...]]] = {}
        self._done: dict[tuple, list[tuple[PNode, tuple[Sequent, ...]]]] = {}

    def _order(self, items: list) -> list:
        if self.rng is not None:
            items = list(items)
            self.rng.shuffle(items)
        return items

    def run(self, goal: Sequent) -> ProofGraph | None:
        tables = self._prove_state(goal, _Tables(), set())
        if tables is None:
            return None
        dest = {}
        for sequent, sid in tables.ids.items():
            nested = tables.frags[sid]
            assert nested is not None
            resolved = self._resolve(nested, tables)
            frag, links = flatten(resolved)
            dest[sid] = (frag, links)
        return ProofGraph(Coalgebra(dest), tables.ids[goal])

    def _resolve(self, node: PNode, tables: _Tables) -> PNode:
        kids = []
        for c in node.children:
            if isinstance(c, _Pending):
                kids.append(PLink(tables.ids[c.sequent]))
            elif isinstance(c, PNode):
                kids.append(self._resolve(c, tables))
            else:
                kids.append(c)
        return PNode(node.sequent, node.rule, tuple(kids))

    def _prove_state(self, goal: Sequent, tables: _Tables, reads: set[Sequent]) -> _Tables | None:
        """Prove ``goal`` as a state on top of ``tables``, or fail.

        Adds to ``reads`` every goal whose presence in the table the
        attempt tested, its sub-attempts included.  Without an ``rng``
        the attempt is a function of the table's size and those answers:
        ids only grow, and each goal it adds follows from what it read
        before.  So a failure is remembered under (goal, size) with the
        answers it read, and recurs wherever they all read the same.
        With an ``rng`` a recurring failure is taken as such too, though
        other shuffles might have succeeded.
        """
        reads.add(goal)
        if goal in tables.ids:
            return tables  # open or finished goal: back link
        size = len(tables.ids)
        if size >= self.budget.max_states:
            return None
        for answers in self._fail.get((goal, size), ()):
            if all((g in tables.ids) == known for g, known in answers):
                reads.update(g for g, _ in answers)
                return None
        mine = {goal}
        opened = tables.copy()
        sid = f"s{size}"
        opened.ids[goal] = sid
        opened.frags[sid] = None
        for candidate, pendings in self._fragments(
            goal, self.budget.max_fragment_height, frozenset(), frozenset()
        ):
            trial = opened.copy()
            ok = True
            for pending in pendings:
                nxt = self._prove_state(pending, trial, mine)
                if nxt is None:
                    ok = False
                    break
                trial = nxt
            if ok:
                trial.frags[sid] = candidate
                reads |= mine
                return trial
        answers = tuple((g, g in tables.ids) for g in mine)
        self._fail.setdefault((goal, size), []).append(answers)
        reads |= mine
        return None

    def _fragments(
        self,
        goal: Sequent,
        height: int,
        reflected: frozenset[Formula],
        cut_used: frozenset[Formula],
    ) -> Iterator[tuple[PNode, tuple[Sequent, ...]]]:
        """Candidate fragments for a goal, leaves possibly pending goals,
        each with its pending goals in left-to-right order.

        Termination: every deterministic step strictly shrinks the pair
        (implication nodes, unreflected antecedent boxes), box steps
        strip a box, and each cut formula is used once per branch; the
        height bound caps everything anyway.

        The right premise of an ``impl`` or ``cut`` node is listed once
        and paired with every left candidate, in the order of a nested
        loop; an empty list ends the node (for a cut, that cut formula)
        before more left candidates are built.  The pairing stays
        inline: a helper generator would add a frame per level and so
        lower the depth the search reaches before ``RecursionError``.

        A finished enumeration is stored where the body ends, inline for
        the same reason, and replayed; an abandoned one is not stored.
        With an ``rng``, a replay repeats the shuffle of the stored run.
        """
        if is_axiom(goal):
            yield PNode(goal, AX, ()), ()
            return
        if is_bot_axiom(goal):
            yield PNode(goal, BOT_LEFT, ()), ()
            return
        if height == 0:
            return
        key = (goal, height, reflected, cut_used)
        if key in self._done:
            yield from self._done[key]
            return
        out: list[tuple[PNode, tuple[Sequent, ...]]] = []

        succ_imp = next((g for g, _ in goal.succ if isinstance(g, Imp)), None)
        if succ_imp is not None:
            premise = goal.drop_right(succ_imp).with_left(succ_imp.left).with_right(succ_imp.right)
            for sub, pendings in self._fragments(premise, height - 1, reflected, cut_used):
                out.append((PNode(goal, IMP_RIGHT, (sub,)), pendings))
                yield out[-1]
            self._done[key] = out
            return

        ante_imp = next((g for g, _ in goal.ante if isinstance(g, Imp)), None)
        if ante_imp is not None:
            rest = goal.drop_left(ante_imp)
            left, right = rest.with_right(ante_imp.left), rest.with_left(ante_imp.right)
            rights = None
            for sub_l, pend_l in self._fragments(left, height - 1, reflected, cut_used):
                if rights is None:
                    rights = list(self._fragments(right, height - 1, reflected, cut_used))
                    if not rights:
                        break
                for sub_r, pend_r in rights:
                    out.append((PNode(goal, IMP_LEFT, (sub_l, sub_r)), pend_l + pend_r))
                    yield out[-1]
            self._done[key] = out
            return

        fresh_box = next(
            (g for g, _ in goal.ante if isinstance(g, Box) and g not in reflected),
            None,
        )
        if fresh_box is not None:
            premise = goal.with_left(fresh_box.body)
            reflected = reflected | {fresh_box}
            for sub, pendings in self._fragments(premise, height - 1, reflected, cut_used):
                out.append((PNode(goal, REFL, (sub,)), pendings))
                yield out[-1]
            self._done[key] = out
            return

        boxes = [f for f, n in goal.ante for _ in range(n) if isinstance(f, Box)]
        for f in self._order([g for g, _ in goal.succ if isinstance(g, Box)]):
            left = goal.drop_right(f).with_right(f.body)
            pending = Sequent.of(boxes, [f.body])
            for sub, pendings in self._fragments(left, height - 1, reflected, cut_used):
                out.append((PNode(goal, BOX, (sub, _Pending(pending))), pendings + (pending,)))
                yield out[-1]

        # One cut per branch: its premises are searched cut free, which
        # keeps exhaustion of the cut space affordable while still
        # finding genuinely cut-carrying proofs.
        if self.cuts and not cut_used:
            for f in self._order(sorted(self.budget.cut_formulas, key=formula_key)):
                left, right = goal.with_right(f), goal.with_left(f)
                used = cut_used | {f}
                rights = None
                for sub_l, pend_l in self._fragments(left, height - 1, reflected, used):
                    if rights is None:
                        rights = list(self._fragments(right, height - 1, reflected, used))
                        if not rights:
                            break
                    for sub_r, pend_r in rights:
                        out.append((PNode(goal, CUT, (sub_l, sub_r)), pend_l + pend_r))
                        yield out[-1]
        self._done[key] = out


def search(
    calc: LocalProgressCalculus,
    goal: Sequent,
    budget: SearchBudget,
    rng: random.Random | None = None,
) -> ProofGraph | None:
    """Search for a proof graph of ``goal``.

    None means that this incomplete search found no proof within the
    bounds it explores, not that some budget ran out: the goal may be
    provable with larger bounds or with rule choices the search never
    tries.  Cut is attempted (last) only when the calculus carries it
    and the budget supplies a pool of cut formulas.  Failed goals and
    finished enumerations are remembered, for this search only, as the
    module docstring says.  Every proof found is checked before it is
    returned, under any interpreter flags; an invalid one raises
    ``AssertionError``.  Too deep a search raises ``BudgetExceeded``.
    """
    cuts = calc.name == GRZ_CUT.name
    try:
        out = _Search(budget, cuts, rng).run(goal)
    except RecursionError:
        msg = f"search to fragment height {budget.max_fragment_height} hits recursion limit"
        raise BudgetExceeded(f"{msg} {sys.getrecursionlimit()}") from None
    if out is not None and not check_proof_graph(calc, out).ok:
        raise AssertionError("oracle produced an invalid proof")
    return out


def _random_formula(rng: random.Random, size: int, atoms: int) -> Formula:
    if size <= 1:
        roll = rng.random()
        if roll < 0.15:
            return Bot()
        return Atom(rng.randrange(atoms))
    if rng.random() < 0.45:
        return Box(_random_formula(rng, size - 1, atoms))
    cut = rng.randint(1, size - 2) if size > 2 else 1
    return Imp(
        _random_formula(rng, cut, atoms),
        _random_formula(rng, size - 1 - cut, atoms),
    )


def _random_goal(rng: random.Random, atoms: int, formula_size: int) -> Sequent:
    ante = [_random_formula(rng, rng.randint(1, formula_size), atoms) for _ in range(rng.randint(0, 2))]
    succ = [_random_formula(rng, rng.randint(1, formula_size), atoms) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.6:
        # bias towards provable goals: either an axiom pair or a tautology
        if rng.random() < 0.5:
            p = Atom(rng.randrange(atoms))
            ante.append(p)
            succ.append(p)
        else:
            f = _random_formula(rng, rng.randint(1, formula_size - 1), atoms)
            succ.append(Imp(f, f))
    return Sequent.of(ante, succ)


def _plant_cut(rng: random.Random, pg: ProofGraph) -> ProofGraph:
    """Insert a cut on a trivially provable implication at a random node.

    The left premise closes in two steps; the right premise is the
    original subproof weakened by the cut formula, so validity is kept
    while the cut lands at a randomly deep fragment.
    """
    p = Atom(0)
    pp = Imp(p, p)
    state = rng.choice(sorted(pg.states))
    fragment = pg.fragment(state)
    links = pg.links(state)
    nested = to_nested(fragment, links)
    spots = [w for w in sorted(fragment.proper_nodes)]
    at = rng.choice(spots)
    target = subtree_at(nested, at)
    assert isinstance(target, PNode)
    goal = target.sequent
    left = PNode(
        goal.with_right(pp),
        IMP_RIGHT,
        (PNode(goal.with_left(p).with_right(p), AX, ()),),
    )
    right = weaken_tree(target, Sequent.of([pp], []))
    planted = replace_subtree(nested, at, PNode(goal, CUT, (left, right)))
    assert isinstance(planted, PNode)
    dest = pg.graph.destructors()
    dest[state] = flatten(planted)
    graph = Coalgebra(dest)
    return ProofGraph(restrict(graph, reachable(graph, pg.root)), pg.root)


def generate_corpus(
    seed: int,
    count: int,
    *,
    atoms: int = 2,
    formula_size: int = 4,
    with_cuts: bool = True,
    budget: SearchBudget | None = None,
) -> list[ProofGraph]:
    """A deterministic mix of searched proofs, half of them with a cut
    planted at a random node when cuts are enabled; all outputs are
    re-checked before being returned."""
    rng = random.Random(seed)
    if budget is None:
        budget = SearchBudget(max_fragment_height=6, max_states=12)
    out: list[ProofGraph] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * max(count, 1):
            raise RuntimeError("corpus generation is not converging")
        goal = _random_goal(rng, atoms, formula_size)
        if goal.total > 2 * formula_size:
            continue
        pg = search(GRZ, goal, budget)
        if pg is None:
            continue
        if with_cuts and len(out) % 2 == 1:
            pg = _plant_cut(rng, pg)
        calc = GRZ_CUT if with_cuts else GRZ
        if not check_proof_graph(calc, pg).ok:
            raise AssertionError("generated proof failed the checker")
        out.append(pg)
    return out
