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
from nwproofs.grz.formulas import subformulas
from nwproofs.grz.rules import CUT
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


class _WholeTableSearch(_Search):
    """Reference search: a failure is remembered under the goal and the
    whole set of goals in the table, and pending goals are found by
    walking each candidate."""

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
        pool = frozenset().union(*(subformulas(f) for f, _ in goal.ante + goal.succ))
        cases.append((GRZ, goal, SearchBudget(10, 12)))
        cases.append((GRZ_CUT, goal, SearchBudget(10, 12, cut_formulas=pool)))
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
    # 18,659 calls; keyed by the whole table, the memo let this search
    # run for more than 300 s
    calls = 0
    prove_state = _Search._prove_state

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return prove_state(self, *args)

    monkeypatch.setattr(_Search, "_prove_state", counted)
    assert search(GRZ, GRZ_AXIOM_BOXED, SearchBudget(12, 20)) is None
    assert 0 < calls <= 20_000


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
