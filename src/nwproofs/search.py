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

An attempt proves each candidate's pending goals left to right, each
over the table its predecessors left.  When one fails, the pending
goals up to it form a failed prefix, and the attempt skips every later
candidate whose pending goals begin with a failed prefix.  Without an
``rng`` that is exact: the prefix would be proved again from the same
table, and the memos only shortcut identical results, so it would fail
again in the same place.  With an ``rng`` a failed prefix is taken to
fail again, as a remembered failure is, though another shuffle might
have proved it.

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
from .coalgebra import BudgetError, BudgetExceeded, Coalgebra, root_first_order
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


class _Search:
    """Backward search with the invertible rules applied eagerly.

    Implication rules and reflexivity are invertible (their inversions
    are admissible without height loss), so they are applied
    deterministically; genuine choice points are only which succedent
    box to open and which cut formula to try, tried in that order.
    """

    def __init__(self, budget: SearchBudget, cuts: bool, rng: random.Random | None):
        self.budget = budget
        self.cuts = sorted(budget.cut_formulas or (), key=formula_key) if cuts else []
        self.rng = rng
        self._fail: dict[tuple[Sequent, int], list[tuple[tuple[Sequent, bool], ...]]] = {}
        self._done: dict[tuple, list[tuple[PNode, tuple[Sequent, ...]]]] = {}

    def _order(self, items: list) -> list:
        if self.rng is not None:
            items = list(items)
            self.rng.shuffle(items)
        return items

    def run(self, goal: Sequent) -> ProofGraph | None:
        table = self._prove_state(goal, {}, set())
        if table is None:
            return None
        sid = {g: f"s{i}" for i, g in enumerate(table)}
        dest = {}
        for g, nested in table.items():
            frag, pending = flatten(nested)
            dest[sid[g]] = (frag, tuple([sid[p] for p in pending]))
        return ProofGraph(Coalgebra(dest), sid[goal])

    def _prove_state(
        self, goal: Sequent, table: dict[Sequent, PNode | None], reads: set[Sequent]
    ) -> dict[Sequent, PNode | None] | None:
        """Prove ``goal`` as a state on top of ``table``, or fail.

        The table maps each goal opened so far to its fragment, or to
        None while it is open, in the order the goals were opened: the
        i-th goal becomes state ``s<i>``.  An attempt adds to a copy, so
        a failed one leaves ``table`` as it was.

        Adds to ``reads`` every goal whose presence in the table the
        attempt tested, its sub-attempts included.  Without an ``rng``
        the attempt is a function of the table's size and those answers:
        tables only grow, and each goal it adds follows from what it read
        before.  So a failure is remembered under (goal, size) with the
        answers it read, and recurs wherever they all read the same.
        With an ``rng`` a recurring failure is taken as such too, though
        other shuffles might have succeeded.

        Within the attempt, once ``pendings[i]`` fails over the table that
        ``pendings[:i]`` built, the prefix ``pendings[:i + 1]`` is dead, and
        every later candidate that begins with a dead prefix is skipped:
        without an ``rng`` it would rebuild that table and fail at the
        same goal again, and with one the skip takes the failure to recur,
        as the failure memo does.
        """
        reads.add(goal)
        if goal in table:
            return table  # open or finished goal: back link
        size = len(table)
        if size >= self.budget.max_states:
            return None
        for answers in self._fail.get((goal, size), ()):
            if all((g in table) == known for g, known in answers):
                reads.update(g for g, _ in answers)
                return None
        mine = {goal}
        opened = dict(table)
        opened[goal] = None
        dead: set[tuple[Sequent, ...]] = set()
        for candidate, pendings in self._fragments(
            goal, self.budget.max_fragment_height, frozenset(), False
        ):
            if dead and any(pendings[:i] in dead for i in range(1, len(pendings) + 1)):
                continue
            trial = dict(opened)
            for i, pending in enumerate(pendings):
                nxt = self._prove_state(pending, trial, mine)
                if nxt is None:
                    dead.add(pendings[: i + 1])
                    break
                trial = nxt
            else:
                trial[goal] = candidate
                reads |= mine
                return trial
        answers = tuple((g, g in table) for g in mine)
        self._fail.setdefault((goal, size), []).append(answers)
        reads |= mine
        return None

    def _fragments(
        self,
        goal: Sequent,
        height: int,
        reflected: frozenset[Formula],
        below_cut: bool,
    ) -> Iterator[tuple[PNode, tuple[Sequent, ...]]]:
        """Candidate fragments for a goal, each with its pending goals in
        left-to-right order; a pending goal is a leaf ``PLink(goal)``,
        which :meth:`run` points at the goal's state.

        Termination: every deterministic step strictly shrinks the pair
        (implication nodes, unreflected antecedent boxes), box steps
        strip a box, and a branch holds at most one cut; the height bound
        caps everything anyway.

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
        key = (goal, height, reflected, below_cut)
        if key in self._done:
            yield from self._done[key]
            return
        out: list[tuple[PNode, tuple[Sequent, ...]]] = []

        succ_imp = next((g for g, _ in goal.succ if isinstance(g, Imp)), None)
        if succ_imp is not None:
            premise = goal.drop_right(succ_imp).with_left(succ_imp.left).with_right(succ_imp.right)
            for sub, pendings in self._fragments(premise, height - 1, reflected, below_cut):
                out.append((PNode(goal, IMP_RIGHT, (sub,)), pendings))
                yield out[-1]
            self._done[key] = out
            return

        ante_imp = next((g for g, _ in goal.ante if isinstance(g, Imp)), None)
        if ante_imp is not None:
            rest = goal.drop_left(ante_imp)
            left, right = rest.with_right(ante_imp.left), rest.with_left(ante_imp.right)
            rights = None
            for sub_l, pend_l in self._fragments(left, height - 1, reflected, below_cut):
                if rights is None:
                    rights = list(self._fragments(right, height - 1, reflected, below_cut))
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
            for sub, pendings in self._fragments(premise, height - 1, reflected, below_cut):
                out.append((PNode(goal, REFL, (sub,)), pendings))
                yield out[-1]
            self._done[key] = out
            return

        boxes = [f for f, n in goal.ante for _ in range(n) if isinstance(f, Box)]
        for f in self._order([g for g, _ in goal.succ if isinstance(g, Box)]):
            left = goal.drop_right(f).with_right(f.body)
            pending = Sequent.of(boxes, [f.body])
            for sub, pendings in self._fragments(left, height - 1, reflected, below_cut):
                out.append((PNode(goal, BOX, (sub, PLink(pending))), pendings + (pending,)))
                yield out[-1]

        # One cut per branch: its premises are searched cut free, which
        # keeps exhaustion of the cut space affordable while still
        # finding genuinely cut-carrying proofs.
        if self.cuts and not below_cut:
            for f in self._order(self.cuts):
                left, right = goal.with_right(f), goal.with_left(f)
                rights = None
                for sub_l, pend_l in self._fragments(left, height - 1, reflected, True):
                    if rights is None:
                        rights = list(self._fragments(right, height - 1, reflected, True))
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
    fragment, targets = pg.graph._dest[state]
    nested = to_nested(fragment, targets)
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
    # the cut keeps every link of the subtree it replaces, so the
    # planted proof reaches exactly the states that ``pg`` reaches
    dest = {s: pg.graph._dest[s] for s in root_first_order(pg.graph, pg.root)}
    dest[state] = flatten(planted)
    return ProofGraph(Coalgebra(dest), pg.root)


def generate_corpus(seed: int, count: int, *, with_cuts: bool = True) -> list[ProofGraph]:
    """A deterministic mix of proofs searched for random goals over two
    atoms, half of them with a cut planted at a random node when cuts are
    enabled; all outputs are re-checked before being returned."""
    rng = random.Random(seed)
    budget = SearchBudget(max_fragment_height=6, max_states=12)
    out: list[ProofGraph] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * max(count, 1):
            raise RuntimeError("corpus generation is not converging")
        goal = _random_goal(rng, 2, 4)  # two atoms, formulas of size at most 4
        if goal.total > 8:
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
