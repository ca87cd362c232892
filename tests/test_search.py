import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

from grzlib import P, Q, criterion_8_goals, seq
from nwproofs.calculus import check_proof_graph
from nwproofs.coalgebra import reachable
from nwproofs.graphfile import print_proof_file
from nwproofs.grz import GRZ, GRZ_CUT, Atom, Bot, Box, Imp, Sequent
from nwproofs.grz.formulas import formula_key, subformulas
from nwproofs.grz.rules import AX, BOT_LEFT, BOX, CUT, IMP_LEFT, IMP_RIGHT, REFL, is_axiom, is_bot_axiom
from nwproofs.search import SearchBudget, _Pending, _Search, generate_corpus, search
from nwproofs.store import PNode, to_nested

SRC = Path(__file__).resolve().parent.parent / "src"

GRZ_AXIOM = Imp(Box(Imp(Box(Imp(P, Box(P))), P)), P)
# the Grz axiom box(box(A -> box A) -> A) -> A with A = box p0 -> p1
_A = Imp(Box(P), Q)
GRZ_AXIOM_BOXED = Sequent.of([], [Imp(Box(Imp(Box(Imp(_A, Box(_A))), _A)), _A)])


def is_cyclic(pg):
    for s in pg.states:
        for t in reachable(pg.graph, s):
            if s in pg.links(t).values():
                return True
    return False


def has_cut(pg):
    return any(
        to_nested(pg.fragment(s), pg.links(s)).count(CUT) for s in pg.states
    )


def test_search_axiom_sequent():
    pg = search(GRZ, seq([P], [P]), SearchBudget(4, 4))
    assert pg is not None
    assert len(pg.states) == 1
    assert pg.fragment(pg.root).labels() == {(): (seq([P], [P]), "ax")}


def test_search_finds_characteristic_axiom_cyclically():
    pg = search(GRZ, Sequent.of([], [GRZ_AXIOM]), SearchBudget(8, 4))
    assert pg is not None
    assert check_proof_graph(GRZ, pg).ok
    assert len(pg.states) <= 4
    assert is_cyclic(pg)


def test_search_unprovable_atom():
    for budget in (SearchBudget(2, 2), SearchBudget(8, 8), SearchBudget(12, 16)):
        assert search(GRZ, Sequent.of([], [P]), budget) is None


def test_search_monotone_in_budget():
    rng = random.Random(5)
    goals = [
        Sequent.of([], [Imp(P, P)]),
        Sequent.of([Box(P)], [Box(P)]),
        Sequent.of([], [GRZ_AXIOM]),
        Sequent.of([Box(Imp(P, Q)), Box(P)], [Box(Q)]),
        Sequent.of([P], [Q]),
    ]
    for goal in goals:
        for h in (3, 5, 8):
            for n in (2, 6):
                if search(GRZ, goal, SearchBudget(h, n)) is not None:
                    assert search(GRZ, goal, SearchBudget(h + 2, n + 4)) is not None


def test_search_outputs_always_pass_checker():
    rng = random.Random(6)
    from nwproofs.search import _random_goal

    for _ in range(120):
        goal = _random_goal(rng, 2, 4)
        pg = search(GRZ, goal, SearchBudget(6, 8))
        if pg is not None:
            assert check_proof_graph(GRZ, pg).ok
            assert pg.root_sequent == goal


def test_search_with_cut_pool_finds_cut_free_things_too():
    pool = frozenset({P, Imp(P, P)})
    pg = search(GRZ_CUT, seq([P], [P]), SearchBudget(6, 6, cut_formulas=pool))
    assert pg is not None
    assert check_proof_graph(GRZ_CUT, pg).ok


def test_corpus_deterministic_and_valid():
    a = generate_corpus(1, 10)
    b = generate_corpus(1, 10)
    assert len(a) == len(b) == 10
    for x, y in zip(a, b):
        assert x.graph.destructors() == y.graph.destructors()
        assert x.root == y.root
    for pg in a:
        assert check_proof_graph(GRZ_CUT, pg).ok
    assert sum(1 for pg in a if has_cut(pg)) >= 3


def test_corpus_empty():
    assert generate_corpus(3, 0) == []


def test_corpus_without_cuts_passes_plain_checker():
    for pg in generate_corpus(7, 6, with_cuts=False):
        assert check_proof_graph(GRZ, pg).ok


def _restarting_fragments(self, goal, height, reflected, cut_used):
    """Reference enumeration: ``_Search._fragments`` as it was when an
    ``impl`` or ``cut`` node enumerated its right premise afresh for
    every left candidate."""
    if is_axiom(goal):
        yield PNode(goal, AX, ()), ()
        return
    if is_bot_axiom(goal):
        yield PNode(goal, BOT_LEFT, ()), ()
        return
    if height == 0:
        return

    succ_imp = next((g for g, _ in goal.succ if isinstance(g, Imp)), None)
    if succ_imp is not None:
        premise = goal.drop_right(succ_imp).with_left(succ_imp.left).with_right(succ_imp.right)
        for sub, pendings in _restarting_fragments(self, premise, height - 1, reflected, cut_used):
            yield PNode(goal, IMP_RIGHT, (sub,)), pendings
        return

    ante_imp = next((g for g, _ in goal.ante if isinstance(g, Imp)), None)
    if ante_imp is not None:
        rest = goal.drop_left(ante_imp)
        left, right = rest.with_right(ante_imp.left), rest.with_left(ante_imp.right)
        for sub_l, pend_l in _restarting_fragments(self, left, height - 1, reflected, cut_used):
            for sub_r, pend_r in _restarting_fragments(self, right, height - 1, reflected, cut_used):
                yield PNode(goal, IMP_LEFT, (sub_l, sub_r)), pend_l + pend_r
        return

    fresh_box = next(
        (g for g, _ in goal.ante if isinstance(g, Box) and g not in reflected),
        None,
    )
    if fresh_box is not None:
        premise = goal.with_left(fresh_box.body)
        reflected = reflected | {fresh_box}
        for sub, pendings in _restarting_fragments(self, premise, height - 1, reflected, cut_used):
            yield PNode(goal, REFL, (sub,)), pendings
        return

    boxes = [f for f, n in goal.ante for _ in range(n) if isinstance(f, Box)]
    for f in self._order([g for g, _ in goal.succ if isinstance(g, Box)]):
        left = goal.drop_right(f).with_right(f.body)
        pending = Sequent.of(boxes, [f.body])
        for sub, pendings in _restarting_fragments(self, left, height - 1, reflected, cut_used):
            yield PNode(goal, BOX, (sub, _Pending(pending))), pendings + (pending,)

    if self.cuts and not cut_used:
        for f in self._order(sorted(self.budget.cut_formulas, key=formula_key)):
            left, right = goal.with_right(f), goal.with_left(f)
            used = cut_used | {f}
            for sub_l, pend_l in _restarting_fragments(self, left, height - 1, reflected, used):
                for sub_r, pend_r in _restarting_fragments(self, right, height - 1, reflected, used):
                    yield PNode(goal, CUT, (sub_l, sub_r)), pend_l + pend_r


def _subformula_pool(goal):
    return frozenset().union(*(subformulas(f) for f, _ in goal.ante + goal.succ))


def _cut_probe():
    """A goal and cut pool whose first cut formula has a left candidate
    and no right one, while the second has both: at height 4,
    p0 |- box (p1 -> p0) cut on box (p0 -> p0) has a right premise
    that needs four more levels, and the cut on p0 -> false closes
    both premises within three."""
    return seq([P], [Box(Imp(Q, P))]), frozenset({Box(Imp(P, P)), Imp(P, Bot())}), 4


def _assert_enumerates_as(got, want, context):
    seen = 0
    for mine, theirs in itertools.zip_longest(got, want):
        assert mine == theirs, (*context, seen)
        seen += 1
    return seen


def test_fragments_enumerate_as_the_restarting_enumeration():
    """Enumerating each right premise once per node, and replaying each
    finished enumeration, yields the same candidates, in the same order,
    as enumerating it afresh every time: structural equality compares
    each candidate's tree, pending leaves included, and its pending
    goals.  Each case is enumerated a second time in the same search,
    served from the memo if the first run finished, and, in a new
    search, after an enumeration abandoned part-way."""
    cases = []
    for goal in criterion_8_goals()[::16]:
        for height in range(1, 9):
            cases.append((goal, SearchBudget(height, 8), None))
            cases.append((goal, SearchBudget(height, 8, cut_formulas=_subformula_pool(goal)), None))
    # the axiom has no candidate below height 9; with its subformulas as
    # the cut pool it has 637 at height 12
    pool = _subformula_pool(GRZ_AXIOM_BOXED)
    for height in range(1, 13):
        cases.append((GRZ_AXIOM_BOXED, SearchBudget(height, 8), 500))
        cases.append((GRZ_AXIOM_BOXED, SearchBudget(height, 8, cut_formulas=pool), 500))
    probe, pool, height = _cut_probe()
    cases.append((probe, SearchBudget(height, 8, cut_formulas=pool), None))
    nonempty = replayed = 0
    for goal, budget, cap in cases:
        srch = _Search(budget, True, None)  # cuts only where the budget has a pool
        start = (goal, budget.max_fragment_height, frozenset(), frozenset())
        want = list(itertools.islice(_restarting_fragments(srch, *start), cap))
        seen = _assert_enumerates_as(itertools.islice(srch._fragments(*start), cap), want, (goal, budget))
        nonempty += seen > 0
        # the same key again in the same search: a replay, if it finished
        if start in srch._done:
            assert cap is None or seen < cap, (goal, budget)
            replayed += seen > 0
        _assert_enumerates_as(itertools.islice(srch._fragments(*start), cap), want, (goal, budget, "again"))
        # abandoned part-way, then run again
        srch = _Search(budget, True, None)
        list(itertools.islice(srch._fragments(*start), seen // 2))
        _assert_enumerates_as(itertools.islice(srch._fragments(*start), cap), want, (goal, budget, "after"))
    assert 0 < nonempty < len(cases)
    assert replayed > 0
    # the probe's last candidate cuts on p0 -> false, after the cut on
    # box (p0 -> p0) found no right premise
    probe_srch = _Search(SearchBudget(height, 8, cut_formulas=pool), True, None)
    candidates = list(probe_srch._fragments(probe, height, frozenset(), frozenset()))
    assert [c.rule for c, _ in candidates] == [BOX, CUT]
    assert candidates[-1][0].children[0].sequent == probe.with_right(Imp(P, Bot()))


class _WholeTableSearch(_Search):
    """Reference search: a failure is remembered under the goal and the
    whole set of goals in the table, pending goals are found by walking
    each candidate, and an ``impl`` or ``cut`` node enumerates its right
    premise afresh for every left candidate."""

    _fragments = _restarting_fragments

    def __init__(self, budget, cuts, rng):
        super().__init__(budget, cuts, rng)
        self._whole_table_fail = set()

    def _prove_state(self, goal, tables, reads=None):
        if goal in tables.ids:
            return tables
        if len(tables.ids) >= self.budget.max_states:
            return None
        key = (goal, frozenset(tables.ids))
        if key in self._whole_table_fail:
            return None
        opened = tables.copy()
        sid = f"s{len(opened.ids)}"
        opened.ids[goal] = sid
        opened.frags[sid] = None
        for candidate, _ in self._fragments(
            goal, self.budget.max_fragment_height, frozenset(), frozenset()
        ):
            trial = opened.copy()
            for pending in _pending_leaves(candidate):
                trial = self._prove_state(pending, trial)
                if trial is None:
                    break
            else:
                trial.frags[sid] = candidate
                return trial
        self._whole_table_fail.add(key)
        return None


def _pending_leaves(node):
    if isinstance(node, _Pending):
        return [node.sequent]
    if isinstance(node, PNode):
        return [p for c in node.children for p in _pending_leaves(c)]
    return []


def _printed(search_cls, calc, goal, budget):
    out = search_cls(budget, calc is GRZ_CUT, None).run(goal)
    return None if out is None else print_proof_file(out, calc.name)


def _memo_probe() -> Sequent:
    """A goal whose search meets one goal twice at the same table size,
    over tables that differ in one goal.

    The root's candidates, in the order the search tries them, start
    with pending X and then with G; each goes on with [Z, C, ...],
    [Z, D, ...], [D, ...] or [D], where Z links back to X and D needs
    C.  At budget (12, 6):

    - after X: C opens E, E opens G, and F finds no state left, so C
      fails over {root, X, Z}.  D then meets C over {root, X, D}, which
      answers every look-up of that failure alike: a memo hit, and D
      fails;
    - after G: Z must open X and runs out of states, but [G, D] is a
      proof: D opens C, E links back to the open G, and F fits.

    A memo that drops a look-up made under C or D repeats D's failure
    over {root, G} and finds no proof.  Each goal is |- (its name in
    lower case), the body of the box whose right premise opens it.
    """
    r = Atom(2)
    g = Imp(P, P)
    x = Imp(Bot(), P)
    e = Imp(r, Box(g))
    f = Imp(r, Imp(Q, r))
    c = Imp(Q, Imp(P, Imp(Imp(Box(e), Imp(Box(f), r)), r)))
    z = Imp(Q, Imp(P, Box(x)))
    d = Imp(Q, Imp(Imp(Box(c), P), P))
    first = Imp(Imp(Box(x), Bot()), Box(g))
    second = Imp(Imp(Box(Imp(P, Imp(Imp(Box(z), Imp(Box(c), Q)), Q))), Bot()), Box(d))
    return Sequent.of([], [Imp(Imp(first, Imp(second, Q)), Q)])


def test_failure_memo_agrees_with_whole_table_memo():
    """Remembering a failure by the table tests it made finds exactly
    what remembering it by the whole table finds."""
    cases = []
    for goal in criterion_8_goals()[::16]:
        cases.append((GRZ, goal, SearchBudget(10, 12)))
        cases.append((GRZ_CUT, goal, SearchBudget(10, 12, cut_formulas=_subformula_pool(goal))))
    for states in (12, 16):
        cases.append((GRZ, GRZ_AXIOM_BOXED, SearchBudget(10, states)))
    for states in (5, 6, 7):
        cases.append((GRZ, _memo_probe(), SearchBudget(12, states)))
    found = 0
    for calc, goal, budget in cases:
        got = _printed(_Search, calc, goal, budget)
        assert got == _printed(_WholeTableSearch, calc, goal, budget), (calc.name, goal, budget)
        found += got is not None
    assert 0 < found < len(cases)


def test_grz_axiom_search_ends_within_a_call_bound(monkeypatch):
    # 18,659 state calls and 10,160 fragment calls; keyed by the whole
    # table, the memo let this search run for more than 300 s, restarting
    # each right premise made 76,691 fragment calls, and building every
    # enumeration afresh 13,402
    calls = {"_prove_state": 0, "_fragments": 0}

    def counting(name):
        method = getattr(_Search, name)

        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(_Search, name, counted)

    counting("_prove_state")
    counting("_fragments")
    assert search(GRZ, GRZ_AXIOM_BOXED, SearchBudget(12, 20)) is None
    assert 0 < calls["_prove_state"] <= 20_000
    assert 0 < calls["_fragments"] <= 12_000


def test_search_reaches_an_implication_chain_600_levels_deep():
    # one generator frame per fragment level: a second frame per level,
    # such as a helper generator pairing the premises, ends this search
    # in RecursionError
    n = 600
    atoms = [Atom(i) for i in range(n + 1)]
    goal = Sequent.of([atoms[0]] + [Imp(a, b) for a, b in zip(atoms, atoms[1:])], [atoms[n]])
    pg = search(GRZ, goal, SearchBudget(n + 5, 4))
    assert pg is not None
    assert pg.root_sequent == goal


def test_invalid_oracle_output_raises_under_python_optimize():
    script = """
import importlib, sys
srch = importlib.import_module("nwproofs.search")
from nwproofs.graphfile import parse_proof_file
from nwproofs.grz import GRZ
from nwproofs.syntax import parse_sequent

_, invalid = parse_proof_file("calculus grz\\nroot s0\\n\\nstate s0\\n  p0 |- p1 : ax\\n")
srch._Search.run = lambda self, goal: invalid
print("optimize", sys.flags.optimize, flush=True)
srch.search(GRZ, parse_sequent("p0 |- p1"), srch.SearchBudget(2, 2))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "optimize 1\n"
    assert proc.returncode == 1
    assert "AssertionError: oracle produced an invalid proof" in proc.stderr
