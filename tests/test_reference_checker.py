"""The kernel's checker against the independent reference checker.

Every input is checked under Grz and Grz+cut by both, and their
findings must be equal, in order: the golden corpus files, generated
proofs, random mutants of both (not filtered by either checker), the
outputs of cut elimination, of identity extensions and of proof search,
the fragments of unfoldings, fragments cut off to a star leaf at any
node, and fragments with a truncation mark or another foreign label.
The nested family of ``box^n (p0 -> p0)`` proofs is checked at scale,
with fresh and with shared ``decided`` tables and with a copy of each
proof glued at an ordinary premise, and a box whose premise 1 keeps an
unboxed formula must be rejected by both.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from grzlib import box_chain, complete_blocks
from reference_checker import GRZ_CUT_RULES, GRZ_RULES, Unlabelled, fragment_findings, proof_findings

from nwproofs.calculus import CalculusError, ProofGraph, check_proof_fragment, check_proof_graph
from nwproofs.coalgebra import Coalgebra, UnfoldBudget, root_first_order
from nwproofs.fftree import Unfolding
from nwproofs.graphfile import parse_proof_file
from nwproofs.grz import GRZ, GRZ_CUT, Atom, Box, Imp, Sequent, cut_elim
from nwproofs.search import SearchBudget, _plant_cut, generate_corpus, search
from nwproofs.store import Arena, PLink, PNode, check, flatten, replace_subtree, subtree_at, to_nested
from nwproofs.translate import extend, identity_step
from nwproofs.trees import EPSILON, STAR, TreeNW, Truncation

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CALCULI = ((GRZ, GRZ_RULES), (GRZ_CUT, GRZ_CUT_RULES))


def _as_tuples(findings) -> list[tuple]:
    return [(f.state, f.node, f.condition, f.message) for f in findings]


def _disagreements(pg: ProofGraph, tables: dict | None = None) -> list[str]:
    """Where the two checkers differ on ``pg``.  The kernel decides afresh
    and, if ``tables`` is given, also with the table it keeps per calculus."""
    out = []
    for calc, rules in CALCULI:
        reference = proof_findings(pg, rules)
        reports = [check_proof_graph(calc, pg)]
        if tables is not None:
            reports.append(check_proof_graph(calc, pg, decided=tables.setdefault(calc.name, {})))
        for report in reports:
            kernel = _as_tuples(report.findings)
            if kernel != reference:
                out.append(f"{calc.name} on {pg!r}: {kernel} != {reference}")
    return out


def _fragment_disagreements(frag: TreeNW, leaves: dict) -> list[str]:
    out = []
    for calc, rules in CALCULI:
        try:
            reference = fragment_findings(frag, leaves, rules)
        except Unlabelled:
            # the kernel must raise too, naming one of the unlabelled nodes
            with pytest.raises(CalculusError, match="is not labelled"):
                check_proof_fragment(calc, frag, leaves)
            continue
        kernel = _as_tuples(check_proof_fragment(calc, frag, leaves).findings)
        if kernel != reference:
            out.append(f"{calc.name} on {frag!r}: {kernel} != {reference}")
    return out


def _mutant(rng: random.Random, pg: ProofGraph) -> ProofGraph | None:
    """One random corruption of one state's fragment, whatever either
    checker makes of it; None if the corruption is no coalgebra."""
    state = rng.choice(sorted(pg.states))
    nested = to_nested(pg.fragment(state), pg.links(state).values())
    spots = []
    stack = [(nested, EPSILON)]
    while stack:
        n, at = stack.pop()
        if isinstance(n, PNode):
            spots.append(at)
            stack.extend((c, at + (i,)) for i, c in enumerate(n.children))
    at = rng.choice(sorted(spots))
    target = subtree_at(nested, at)
    kids = list(target.children)
    kind = rng.randrange(5)
    if kind == 0:  # another rule name
        new = PNode(target.sequent, rng.choice(GRZ_CUT_RULES + ("nope",)), target.children)
    elif kind == 1:  # another sequent
        new = PNode(target.sequent.with_left(Atom(7)), target.rule, target.children)
    elif kind == 2 and len(kids) == 2:  # swapped premises
        new = PNode(target.sequent, target.rule, (kids[1], kids[0]))
    elif kind == 3 and kids:  # a premise becomes a glue point, or a glue point a premise
        i = rng.randrange(len(kids))
        if isinstance(kids[i], PLink):
            kids[i] = PNode(pg.state_sequent(kids[i].target), "ax")
        else:
            kids[i] = PLink(rng.choice(sorted(pg.states)))
        new = PNode(target.sequent, target.rule, tuple(kids))
    elif kind == 4 and any(isinstance(c, PLink) for c in kids):  # relinked
        i = next(i for i, c in enumerate(kids) if isinstance(c, PLink))
        kids[i] = PLink(rng.choice(sorted(pg.states)))
        new = PNode(target.sequent, target.rule, tuple(kids))
    else:
        return None
    dest = pg.graph.destructors()
    dest[state] = flatten(replace_subtree(nested, at, new))
    return ProofGraph(Coalgebra(dest), pg.root)


def _glued(rng: random.Random, pg: ProofGraph) -> ProofGraph:
    """A copy in which an ordinary premise of an ``impr`` or ``refl`` node
    becomes a star leaf linked to a new state holding that premise's
    subtree: a glue point where the rule has none, which both checkers
    must reject."""
    spots = []
    for state in sorted(pg.states):
        stack = [(to_nested(pg.fragment(state), pg.links(state).values()), EPSILON)]
        while stack:
            n, at = stack.pop()
            for i, c in enumerate(n.children):
                if isinstance(c, PNode):
                    stack.append((c, at + (i,)))
                    if n.rule in ("impr", "refl"):
                        spots.append((state, at + (i,)))
    state, at = rng.choice(sorted(spots))
    nested = to_nested(pg.fragment(state), pg.links(state).values())
    dest = pg.graph.destructors()
    new = f"glued_{len(dest)}"
    dest[new] = flatten(subtree_at(nested, at))
    dest[state] = flatten(replace_subtree(nested, at, PLink(new)))
    return ProofGraph(Coalgebra(dest), pg.root)


def _cut_short(rng: random.Random, frag: TreeNW) -> list[tuple[TreeNW, dict]]:
    """Copies of a fragment in which one proper node below the root, inner
    or leaf, is cut off to a star leaf, a glue point wherever it sits,
    with its own sequent supplied; and copies in which one proper node,
    the root included, carries a foreign label: a truncation mark or a
    pair whose rule is no name.  Star leaves keep one supplied sequent."""
    labels = frag.labels()
    leaves = {w: Sequent.of([Box(Atom(0))], [Atom(0)]) for w in frag.nw_leaves}
    out = []
    for w in sorted(frag.proper_nodes):
        if rng.random() < 0.5:
            continue
        if w != EPSILON:
            cut_off = {v: label for v, label in labels.items() if v[: len(w)] != w}
            cut_off[w] = STAR
            out.append((TreeNW(cut_off), {**leaves, w: labels[w][0]}))
        foreign = dict(labels)
        foreign[w] = Truncation("t", labels[w]) if rng.random() < 0.5 else (labels[w][0], 7)
        out.append((TreeNW(foreign), leaves))
    return out


def _inputs() -> list[ProofGraph]:
    golden = [parse_proof_file(p.read_text())[1] for p in sorted(CORPUS.glob("*.proof"))]
    generated = generate_corpus(5, 24)
    return golden + generated


def _nested(n: int) -> ProofGraph:
    pg = search(GRZ, box_chain(n), SearchBudget(n + 3, n + 3))
    assert pg is not None
    return pg


def test_reference_checker_agrees_with_the_kernel():
    rng = random.Random(18)
    base = _inputs()
    cases = list(base)
    # unfiltered mutants
    for pg in base:
        for _ in range(6):
            mutant = _mutant(rng, pg)
            if mutant is not None:
                cases.append(mutant)
    # translation and search outputs
    unfoldings: list[Unfolding] = []
    for pg in base:
        if check_proof_graph(GRZ_CUT, pg).ok:
            for out in (cut_elim(pg), cut_elim(pg, UnfoldBudget(2), memo=False)):
                (unfoldings if isinstance(out, Unfolding) else cases).append(out)
            calc = GRZ if check_proof_graph(GRZ, pg).ok else GRZ_CUT
            cases.append(extend(identity_step(calc), pg, UnfoldBudget(3)))
    p, q = Atom(0), Atom(1)
    goals = [
        Sequent.of([Box(Imp(Box(Imp(p, Box(p))), p))], [p]),
        Sequent.of([Box(q), Imp(q, Box(p))], [Box(Imp(q, p))]),
        Sequent.of([], [Imp(Box(p), Box(Box(p)))]),
    ]
    for goal in goals:
        found = search(GRZ, goal, SearchBudget(8, 12))
        assert found is not None
        cases.append(found)
    cut_pool = SearchBudget(8, 12, cut_formulas=frozenset({q, Box(q), Imp(q, p)}))
    cases.append(search(GRZ_CUT, goals[1], cut_pool))
    disagreements = []
    failing = 0
    for pg in cases:
        disagreements += _disagreements(pg)
        failing += not check_proof_graph(GRZ_CUT, pg).ok
    # fragments of unfoldings, and hand-made cut-off and foreign-labelled ones
    fragments = 0
    for res in unfoldings:
        for _, frag, leaves in complete_blocks(res.tree):
            disagreements += _fragment_disagreements(frag, leaves)
            fragments += 1
    for pg in base[:12]:
        for state in sorted(pg.states):
            for frag, leaves in _cut_short(rng, pg.fragment(state)):
                disagreements += _fragment_disagreements(frag, leaves)
                fragments += 1
    assert disagreements == []
    # the inputs reach both verdicts and every kind of fragment
    assert len(cases) > 200 and 50 < failing < len(cases) - 50
    assert unfoldings and fragments > 100



def test_reference_checker_agrees_on_the_nested_family():
    """The searched proofs of ``box^n (p0 -> p0)`` for n = 4..16, their
    planted cuts, the identity extensions and cut eliminations of those,
    random mutants of each, and a copy of each with a glue point at an
    ordinary premise of a non-box node: once with a fresh ``decided`` table per
    check, once with one table per calculus kept across all of them, so
    that recorded passes and instances decided for another graph are
    read back."""
    rng, glue_rng = random.Random(21), random.Random(22)
    cases, glued = [], []
    for n in range(4, 17):
        pg = _nested(n)
        cut = _plant_cut(random.Random(n), pg)
        outputs = [extend(identity_step(GRZ), pg, UnfoldBudget(4), max_states=10_000), cut_elim(cut)]
        assert all(isinstance(out, ProofGraph) for out in outputs)
        for base in [pg, cut, *outputs]:
            cases.append(base)
            for _ in range(3):
                mutant = _mutant(rng, base)
                if mutant is not None:
                    cases.append(mutant)
            glued.append(_glued(glue_rng, base))
    tables: dict = {}
    disagreements = []
    for pg in cases + glued:
        disagreements += _disagreements(pg, tables)
    assert disagreements == []
    for pg in glued:
        assert not check_proof_graph(GRZ_CUT, pg).ok and proof_findings(pg, GRZ_CUT_RULES)
    failing = sum(not check_proof_graph(GRZ_CUT, pg).ok for pg in cases)
    assert len(cases) > 150 and 30 < failing < len(cases) - 50


def test_a_subtree_that_nearly_equals_a_passed_fragment_is_walked():
    """Near misses for the skip of a subtree equal to a fragment that
    passed.  In a nested proof the premise-0 subtree of a state has the
    arrays and leaf sequents of the fragment its premise 1 links to,
    which is checked first.  Relinking a star leaf of that subtree to a
    state with another root sequent, or moving a premise from the
    innermost box to the ``impr`` node above it so that only the arities
    differ, leaves a subtree that must be walked; both checkers report
    the same findings, at that state, with fresh and with shared tables."""
    pg = _nested(6)
    order = root_first_order(pg.graph, pg.root)
    dest = pg.graph.destructors()
    state = order[4]
    tree, targets = dest[state]
    inner, inner_targets = dest[targets[-1]]
    end = tree._ends[1]
    assert (tree._labels[1:end], tree._arities[1:end]) == inner.key
    assert targets[:-1] == inner_targets and order.index(targets[-1]) < order.index(state)
    assert pg.state_sequent(targets[1]) != pg.state_sequent(targets[0])
    q = [label[1] for label in tree._labels if label is not STAR].index("impr")
    assert tree._arities[q - 1 : q + 1] == (2, 1)
    arities = list(tree._arities)
    arities[q - 1 : q + 1] = [1, 2]
    near = [
        (tree, (targets[1],) + targets[1:]),  # other leaf sequents
        (TreeNW(tree._labels, arities), targets),  # other arities
    ]
    tables: dict = {}
    assert _disagreements(pg, tables) == []
    for destructor in near:
        mutant = ProofGraph(Coalgebra({**dest, state: destructor}), pg.root)
        assert _disagreements(mutant, tables) == []
        assert {f[0] for f in proof_findings(mutant, GRZ_RULES)} == {state}


def _cut_at_every_axiom(pg: ProofGraph) -> ProofGraph:
    """A copy with each axiom ``p0 |- p0`` proved by a cut on ``p0``."""
    p = Atom(0)

    def node(sequent, rule, kids):
        if rule != "ax":
            return PNode(sequent, rule, kids)
        left, right = PNode(sequent.with_right(p), "ax"), PNode(sequent.with_left(p), "ax")
        return PNode(sequent, "cut", (left, right))

    dest = {s: flatten(to_nested(*pg.graph._dest[s], node)) for s in pg.states}
    return ProofGraph(Coalgebra(dest), pg.root)


def test_a_subtree_that_passed_with_a_cut_is_no_grz_subtree():
    """Each state of the nested proof holds the fragment of the state
    before it, cut included, as a subtree over the same leaf sequents.
    It passes under Grz+cut, and checked under Grz through the same
    store, every state must still report its cut, as the reference does."""
    arena = Arena()
    view = arena.view(arena.include(_cut_at_every_axiom(_nested(8))))
    assert check(GRZ_CUT, view).ok
    findings = _as_tuples(check(GRZ, view).findings)
    assert findings == proof_findings(view, GRZ_RULES)
    assert [f[0] for f in findings] == root_first_order(view.graph, view.root)
    assert {f[3] for f in findings} == {"not an instance of cut"}


def test_findings_on_the_nested_family_and_its_mutants_keep_the_reference_order():
    """Each nested proof for n = 4..12 is checked before its random
    mutants, with one table per calculus kept across all of them, so the
    unchanged subtrees of a mutant are skipped against its proof's passes."""
    rng = random.Random(30)
    tables: dict = {}
    disagreements, failing = [], 0
    for n in range(4, 13):
        pg = _nested(n)
        mutants = [m for m in (_mutant(rng, pg) for _ in range(8)) if m is not None]
        for case in [pg, *mutants]:
            disagreements += _disagreements(case, tables)
        failing += sum(bool(proof_findings(m, GRZ_CUT_RULES)) for m in mutants)
    assert disagreements == []
    assert failing > 20


def test_a_box_whose_premise_1_keeps_an_unboxed_formula_is_no_instance():
    """``p0 |- box p0`` by box over ``p0 |- p0`` twice, the second a glue
    point: premise 1 keeps the unboxed ``p0``, and a two-world model
    refutes the end sequent, so both checkers must reject the box."""
    p = Atom(0)
    axiom = (Sequent.of([p], [p]), "ax")
    box = (Sequent.of([p], [Box(p)]), "box")
    pg = ProofGraph(
        Coalgebra(
            {
                "s0": (TreeNW({EPSILON: box, (0,): axiom, (1,): STAR}), ("s1",)),
                "s1": (TreeNW({EPSILON: axiom}), ()),
            }
        ),
        "s0",
    )
    expected = [("s0", EPSILON, "rule", "not an instance of box")]
    for calc, rules in CALCULI:
        assert _as_tuples(check_proof_graph(calc, pg).findings) == expected
        assert proof_findings(pg, rules) == expected
