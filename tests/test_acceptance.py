"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Scales and tolerances are pinned here and are not
meant to be loosened.
"""

import random
import time
from pathlib import Path

from conftest import random_coalgebra, random_fftree, random_root_path, unfold_by_gluing
from grzlib import (
    P,
    Q,
    atomic_cut_graph,
    box_principal_cut_graph,
    boxed_context_cut_graph,
    complete_blocks,
    criterion_8_goals,
    cut_above_loop_graph,
    weakening_part_cut_graph,
)
from nwproofs.calculus import ProofGraph, check_proof_fragment, check_proof_graph
from nwproofs.store import (
    PLink,
    PNode,
    bisim_minimize,
    flatten,
    replace_subtree,
    subtree_at,
    to_nested,
)
from nwproofs.coalgebra import Coalgebra, UnfoldBudget
from nwproofs.fftree import FFTree, Unfolding, unfold
from nwproofs.grz import (
    GRZ,
    GRZ_CUT,
    Atom,
    Bot,
    Box,
    CutMeasure,
    Imp,
    Sequent,
    contr_atom_left,
    contr_atom_right,
    cut_elim,
    inv_bot_right,
    inv_box_right,
    inv_imp_right,
    linv_imp_left,
    local_height,
    reduce_cut,
    rinv_imp_left,
    weakening,
)
from nwproofs.grz.formulas import subformulas
from nwproofs.grz.rules import CUT
from nwproofs.search import SearchBudget, generate_corpus, search
from nwproofs.trees import EPSILON, Truncation, Word
from paper_defs import (
    NotAPreProof,
    compute_fragmentation,
    construct,
    destruct,
    disjoint,
    ff_fragment,
    ff_is_root_path,
    ff_root_paths,
    ff_subelement,
    fragment_at,
    is_root_path,
    prefix_le,
    root_path_of,
    subelement,
    subproof,
    subtree,
    word_of,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def report(number: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


# -- criterion 1 ---------------------------------------------------------


def test_criterion_1_finality_laws():
    started = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        coalg = random_coalgebra(rng, max_states=8, max_frag_nodes=7)
        state = sorted(coalg.states)[rng.randrange(len(coalg.states))]
        sample = unfold(coalg, state, UnfoldBudget(max_depth=3)).tree
        frag, parts = destruct(sample)
        ok = ok and construct(frag, parts) == sample
        rebuilt_frag, rebuilt_parts = destruct(construct(frag, parts))
        ok = ok and rebuilt_frag == frag and rebuilt_parts == parts
        for depth in range(1, 6):
            direct = unfold(coalg, state, UnfoldBudget(max_depth=depth)).tree
            ok = ok and direct == unfold_by_gluing(coalg, state, depth)
        # destructing an unfolding matches the machine's own destructor
        got_frag, got_parts = destruct(unfold(coalg, state, UnfoldBudget(max_depth=3)).tree)
        ok = ok and got_frag == coalg.fragment(state)
        links = coalg.links(state)
        for w, sub in got_parts.items():
            ok = ok and sub == unfold(coalg, links[w], UnfoldBudget(max_depth=2)).tree
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(1, f"finality laws ({elapsed:.1f}s)", ok)


# -- criterion 2 ---------------------------------------------------------


def test_criterion_2_correspondence_suite():
    rng = random.Random(202)
    failures = 0
    for _ in range(500):
        tree = random_fftree(rng, max_nodes=40)
        for r in ff_root_paths(tree):
            w = word_of(r)
            if not (
                w in tree.roots()
                and root_path_of(tree, w) == r
                and ff_fragment(tree, r) == tree.tree_fragment(w)
                and ff_subelement(tree, r) == subtree(tree, w)
            ):
                failures += 1
        for w in tree.roots():
            r = root_path_of(tree, w)
            if not (
                ff_is_root_path(tree, r)
                and word_of(r) == w
                and tree.tree_fragment(w) == ff_fragment(tree, r)
                and subtree(tree, w) == ff_subelement(tree, r)
            ):
                failures += 1
    report(2, "correspondence suite", failures == 0)


# -- criterion 3 ---------------------------------------------------------


def test_criterion_3_fundamental_properties():
    rng = random.Random(303)
    failures = 0
    for _ in range(500):
        coalg = random_coalgebra(rng, max_states=6, max_frag_nodes=6)
        state = sorted(coalg.states)[rng.randrange(len(coalg.states))]
        r = random_root_path(rng, coalg, state)
        s = random_root_path(rng, coalg, subelement(coalg, state, r))
        try:
            # composition
            assert is_root_path(coalg, state, r + s)
            assert fragment_at(coalg, state, r + s) == fragment_at(
                coalg, subelement(coalg, state, r), s
            )
            assert subelement(coalg, state, r + s) == subelement(
                coalg, subelement(coalg, state, r), s
            )
            # extension
            frag = fragment_at(coalg, state, r)
            for w in sorted(frag.nw_leaves):
                assert is_root_path(coalg, state, r + (w,))
            assert not is_root_path(coalg, state, r + ((997,),))
            # prefix closure
            for i in range(len(r) + 1):
                assert is_root_path(coalg, state, r[:i])
            # navigation survives bisimulation quotient
            small, ren = bisim_minimize(coalg)
            assert is_root_path(small, ren[state], r)
            assert fragment_at(coalg, state, r) == fragment_at(small, ren[state], r)
            assert ren[subelement(coalg, state, r)] == subelement(small, ren[state], r)
            # word order versus path order, and disjoint fragment regions
            paths = _paths_to_depth(coalg, state, 3)
            regions = {}
            for a in paths:
                wa = word_of(a)
                regions[a] = {
                    wa + u for u in fragment_at(coalg, state, a).proper_nodes
                }
                for b in paths:
                    if len(a) == len(b) and a != b:
                        assert disjoint(word_of(a), word_of(b))
                    if prefix_le(word_of(a), word_of(b)):
                        assert b[: len(a)] == a
            flat = sorted(regions)
            for i, a in enumerate(flat):
                for b in flat[i + 1 :]:
                    assert not (regions[a] & regions[b])
        except AssertionError:
            failures += 1
    report(3, "fundamental properties", failures == 0)


def _paths_to_depth(coalg, state, depth):
    if depth == 0:
        return [()]
    out = [()]
    frag = coalg.fragment(state)
    links = coalg.links(state)
    for w in sorted(frag.nw_leaves):
        out.extend((w,) + rest for rest in _paths_to_depth(coalg, links[w], depth - 1))
    return out


# -- criterion 4 ---------------------------------------------------------


def _unfolded_check(pg: ProofGraph, depth: int = 4) -> bool:
    res = unfold(pg.graph, pg.root, UnfoldBudget(max_depth=depth))
    tree = res.tree
    try:
        roots = compute_fragmentation(GRZ, tree.labels())
    except NotAPreProof:
        return False
    rebuilt = FFTree(tree.labels(), roots)
    return all(
        check_proof_fragment(GRZ, frag, leaf_sequents).ok
        for _, frag, leaf_sequents in complete_blocks(rebuilt)
    )


def _mutate(rng: random.Random, pg: ProofGraph) -> ProofGraph | None:
    """One random corruption of the root fragment; None if it kept validity."""
    nested = to_nested(pg.fragment(pg.root), pg.links(pg.root).values())
    spots = _node_words(nested)
    at = rng.choice(spots)
    target = subtree_at(nested, at)
    assert isinstance(target, PNode)
    kind = rng.randrange(4)
    if kind == 0:  # relabel the rule
        rules = ["ax", "bot", "impl", "impr", "refl", "box"]
        rules.remove(target.rule) if target.rule in rules else None
        mutated = PNode(target.sequent, rng.choice(rules), target.children)
    elif kind == 1:  # corrupt the sequent
        extra = Atom(7)
        mutated = PNode(target.sequent.with_left(extra), target.rule, target.children)
    elif kind == 2 and target.rule == "box":  # swap the box premises
        mutated = PNode(target.sequent, target.rule, (target.children[1], target.children[0]))
    elif kind == 3 and any(isinstance(c, PLink) for c in target.children):
        # relink a glue point to a state with a different root sequent
        others = sorted(pg.states)
        kids = list(target.children)
        for i, c in enumerate(kids):
            if isinstance(c, PLink):
                kids[i] = PLink(rng.choice(others))
                break
        mutated = PNode(target.sequent, target.rule, tuple(kids))
    else:
        return None
    new_nested = replace_subtree(nested, at, mutated)
    frag, links = flatten(new_nested)
    dest = pg.graph.destructors()
    dest[pg.root] = (frag, links)
    try:
        out = ProofGraph(Coalgebra(dest), pg.root)
    except ValueError:
        return None
    return out if not check_proof_graph(GRZ, out).ok else None


def _node_words(node: PNode) -> list[Word]:
    out = []

    def walk(n, at):
        if isinstance(n, PNode):
            out.append(at)
            for i, c in enumerate(n.children):
                walk(c, at + (i,))

    walk(node, EPSILON)
    return out


def test_criterion_4_checker_equivalence():
    rng = random.Random(404)
    valid = generate_corpus(404, 100, with_cuts=False)
    disagreements = 0
    for pg in valid:
        graph_ok = check_proof_graph(GRZ, pg).ok
        unfolded_ok = _unfolded_check(pg)
        if not (graph_ok and unfolded_ok):
            disagreements += 1
    mutants = []
    i = 0
    while len(mutants) < 100:
        base = valid[i % len(valid)]
        i += 1
        mutant = _mutate(rng, base)
        if mutant is not None:
            mutants.append(mutant)
    for pg in mutants:
        graph_ok = check_proof_graph(GRZ, pg).ok
        unfolded_ok = _unfolded_check(pg)
        if graph_ok or unfolded_ok:
            disagreements += 1
    report(4, "checker equivalence", disagreements == 0)


# -- criterion 5 ---------------------------------------------------------


def _main_fragment_cut_free(pg: ProofGraph) -> bool:
    return to_nested(pg.fragment(pg.root), pg.links(pg.root).values()).count(CUT) == 0


def _aux_cases(pg: ProofGraph):
    """The eight moves, each made applicable by one preliminary weakening."""
    root = pg.root_sequent
    imp = Imp(P, Q)
    yield weakening, (Sequent.of([Q], []),), root.with_left(Q), pg
    doubled = weakening(pg, Sequent.of([P, P], []))
    yield contr_atom_left, (P,), doubled.root_sequent.drop_left(P), doubled
    doubled_r = weakening(pg, Sequent.of([], [P, P]))
    yield contr_atom_right, (P,), doubled_r.root_sequent.drop_right(P), doubled_r
    with_bot = weakening(pg, Sequent.of([], [Bot()]))
    yield inv_bot_right, (), root, with_bot
    with_imp = weakening(pg, Sequent.of([imp], []))
    yield linv_imp_left, (imp,), root.with_right(P), with_imp
    yield rinv_imp_left, (imp,), root.with_left(Q), with_imp
    with_imp_r = weakening(pg, Sequent.of([], [imp]))
    yield inv_imp_right, (imp,), root.with_left(P).with_right(Q), with_imp_r
    with_box = weakening(pg, Sequent.of([], [Box(P)]))
    yield inv_box_right, (Box(P),), root.with_right(P), with_box


def test_criterion_5_auxiliary_function_contracts():
    corpus = generate_corpus(505, 200, with_cuts=True)
    failures = 0
    for pg in corpus:
        for fn, args, expected, source in _aux_cases(pg):
            out = fn(source, *args)
            if out.root_sequent != expected:
                failures += 1
                continue
            if not check_proof_graph(GRZ_CUT, out).ok:
                failures += 1
                continue
            if local_height(out) > local_height(source):
                failures += 1
                continue
            if _main_fragment_cut_free(source) and not _main_fragment_cut_free(out):
                failures += 1
    report(5, "auxiliary function contracts", failures == 0)


# -- criterion 6 ---------------------------------------------------------


def _cut_pairs(count: int):
    """Searched proof pairs (context + formula right, context + formula left)."""
    rng = random.Random(606)
    pool = [P, Box(P), Imp(P, Q), Imp(P, P), Box(Imp(P, P)), Box(Box(P))]
    budget = SearchBudget(8, 10)
    pairs = [
        (subproof(g, (0,)), subproof(g, (1,)))
        for g in (
            atomic_cut_graph(),
            box_principal_cut_graph(),
            weakening_part_cut_graph(),
            boxed_context_cut_graph(),
            cut_above_loop_graph(),
        )
    ]
    from nwproofs.search import _random_goal

    while len(pairs) < count:
        base = _random_goal(rng, 2, 3)
        phi = rng.choice(pool)
        left = search(GRZ, base.with_right(phi), budget)
        if left is None:
            continue
        right = search(GRZ, base.with_left(phi), budget)
        if right is None:
            continue
        pairs.append((left, right))
    return pairs


def test_criterion_6_cut_measure_descent():
    failures = 0
    for left, right in _cut_pairs(100):
        steps: list[tuple[CutMeasure, CutMeasure | None]] = []
        out = reduce_cut(left, right, on_step=lambda m, b: steps.append((m, b)))
        for measure, bound in steps:
            if bound is not None and not measure < bound:
                failures += 1
        if not check_proof_graph(GRZ_CUT, out).ok:
            failures += 1
        if not _main_fragment_cut_free(out):
            failures += 1
        expected = left.root_sequent.diff(right.root_sequent).succ
        if out.root_sequent != left.root_sequent.drop_right(expected[0][0]):
            failures += 1
    report(6, "cut measure descent", failures == 0)


# -- criterion 7 ---------------------------------------------------------


def test_criterion_7_end_to_end_cut_elimination():
    started = time.perf_counter()
    from nwproofs.graphfile import parse_proof_file

    corpus: list[ProofGraph] = []
    for path in sorted(CORPUS_DIR.glob("*.proof")):
        name, pg = parse_proof_file(path.read_text())
        if name == GRZ_CUT.name:
            corpus.append(pg)
    corpus.extend(generate_corpus(707, 50 - len(corpus), with_cuts=True))
    assert len(corpus) >= 50

    failures = 0
    for pg in corpus:
        out = cut_elim(pg, budget=UnfoldBudget(max_depth=6), max_states=200)
        if isinstance(out, Unfolding):
            for _, frag, leaf_sequents in complete_blocks(out.tree):
                if any(
                    not isinstance(frag.label(w), Truncation) and frag.label(w)[1] == CUT
                    for w in frag.proper_nodes
                ):
                    failures += 1
                if not check_proof_fragment(GRZ, frag, leaf_sequents).ok:
                    failures += 1
        else:
            if out.root_sequent != pg.root_sequent:
                failures += 1
            if not check_proof_graph(GRZ, out).ok:
                failures += 1
            if any(
                to_nested(out.fragment(s), out.links(s).values()).count(CUT) for s in out.states
            ):
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 60.0
    report(7, f"end-to-end cut elimination ({len(corpus)} proofs, {elapsed:.1f}s)", ok)


# -- criterion 8 ---------------------------------------------------------


def test_criterion_8_derivability_cross_check():
    goals = criterion_8_goals()

    budget = SearchBudget(10, 12)
    counterexamples = 0
    for goal in goals:
        plain = search(GRZ, goal, budget) is not None
        members = [f for f, _ in goal.ante] + [f for f, _ in goal.succ]
        pool = frozenset().union(*[subformulas(f) for f in members]) if members else frozenset()
        with_cut = (
            search(GRZ_CUT, goal, SearchBudget(10, 12, cut_formulas=pool)) is not None
        )
        if plain != with_cut:
            counterexamples += 1

    axiom = Imp(Box(Imp(Box(Imp(P, Box(P))), P)), P)
    found = search(GRZ, Sequent.of([], [axiom]), SearchBudget(8, 8))
    cyclic = False
    if found is not None:
        from nwproofs.coalgebra import reachable

        cyclic = any(
            s in found.links(t).values()
            for s in found.states
            for t in reachable(found.graph, s)
        )
    ok = counterexamples == 0 and found is not None and cyclic
    report(8, f"derivability cross-check ({len(goals)} goals)", ok)
