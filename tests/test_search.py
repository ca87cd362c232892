import random

from grzlib import P, Q, seq
from nwproofs.calculus import check_proof_graph
from nwproofs.coalgebra import reachable
from nwproofs.grz import GRZ, GRZ_CUT, Box, Imp, Sequent
from nwproofs.grz.rules import CUT
from nwproofs.search import SearchBudget, generate_corpus, search
from nwproofs.store import to_nested

GRZ_AXIOM = Imp(Box(Imp(Box(Imp(P, Box(P))), P)), P)


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
