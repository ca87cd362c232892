"""Inputs, timed calls and output checks for the three benchmark workloads.

Every workload is a list of :class:`Item`s driven by one closed-loop
client: the runner calls ``item.run()`` (the only timed part), then
``item.check(result)`` outside the timing.  The kernel sees only the
inputs generated here from the seed.

``nwproofs`` is imported inside :func:`build`, never at module level,
so that the runner can time the import as part of set-up.  Timed calls
look the kernel function up on its module when they run (``translate.
extend``, not a name bound at set-up), so that the tracer's rebinding
reaches them.
"""

from __future__ import annotations

import importlib
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# -- nested: large regular proofs, heavy on translation -----------------
NESTED_N = (16, 20, 24, 28, 32)
NESTED_IDENTITY_BUDGET = 4  # UnfoldBudget depth for the identity extend
NESTED_MAX_STATES = 10_000

# -- corpus: many small cut proofs through the CLI pipeline -------------
CORPUS_GENERATED = 1600
CORPUS_CUT_PAIRS = 400
CORPUS_PAIR_BUDGET = (8, 10)
CORPUS_THEOREM_BUDGET = (8, 8)
CUTELIM_DEPTH = 6  # the CLI defaults of `nwproofs cutelim`
CUTELIM_MAX_NODES = 200_000
CUTELIM_MAX_STATES = 256
MEMO_OFF_DEPTH = 5

# -- search: the bounded proof-search oracle ---------------------------
SEARCH_FORMULA_SIZE = 4
SEARCH_ATOMS = 2
SEARCH_BUDGET = (10, 12)
GRZ_AXIOM_BUDGETS = ((10, 12), (12, 20))
# Wall-clock cap per search item.  Every item that returns today takes
# at most about 0.8 s (the Grz axiom at (10, 12)); the one at (12, 20)
# had not returned after 300 s.  Both are far from the cap, so the
# capped set, and with it the failure count, is the same on every run.
SEARCH_CAP_S = 4.0

WORKLOADS = ("nested", "corpus", "search")


@dataclass(frozen=True)
class Outcome:
    """What the benchmark learned from one output.

    ``closed`` is set for memoized translations (did the output close
    into a finite graph within ``max_states``) and for searches (did
    the search return a proof graph); it is None for unfoldings asked
    for on purpose.  ``states`` counts states of closed outputs,
    ``nodes`` proper nodes of every output.  ``text`` is the rendered
    output (``Item.render``), compared byte for byte across passes and
    runs.
    """

    problem: str | None = None
    closed: bool | None = None
    states: int = 0
    nodes: int = 0
    text: str = ""


@dataclass
class Item:
    """``run`` is timed; ``check`` verifies its result in full, and
    ``render`` prints it so that a later pass whose output is byte for
    byte the same needs no second check."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    render: Callable[[Any], str]
    cap_s: float | None = None
    #: a search for a known theorem: found if it closes without failing
    known_theorem: bool = False


@dataclass
class Workload:
    items: list[Item]
    #: known theorems searched while building the inputs: found or not
    setup_theorems: list[bool] = field(default_factory=list)
    input_states: int = 0
    input_nodes: int = 0


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "nested":
        return _nested(seed)
    if name == "corpus":
        return _corpus(seed, root / "corpus")
    if name == "search":
        return _search(seed)
    raise ValueError(f"unknown workload {name!r}")


# -- shared output checks ------------------------------------------------


def _proper_nodes(pg) -> int:
    return sum(len(pg.fragment(s).proper_nodes) for s in pg.states)


def _has_cut(pg) -> bool:
    from nwproofs.grz.rules import CUT

    return any(
        pg.fragment(s).label(w)[1] == CUT for s in pg.states for w in pg.fragment(s).proper_nodes
    )


def _check_closed(out, calc, root_sequent, cut_free: bool) -> Outcome:
    """A closed translation output: checker-valid in ``calc``, same end
    sequent as the input, and (for cut elimination) no cut anywhere."""
    from nwproofs.calculus import check_proof_graph

    states, nodes = len(out.states), _proper_nodes(out)
    problem = None
    if out.root_sequent != root_sequent:
        problem = "end sequent changed"
    elif not check_proof_graph(calc, out).ok:
        problem = f"output is not a {calc.name} proof"
    elif cut_free and _has_cut(out):
        problem = "output still has a cut"
    return Outcome(problem, True, states, nodes)


def render_output(out) -> str:
    """A translation output: closed graphs are printed as .proof files
    (all closed outputs here are Grz proofs), unfoldings node by node."""
    from nwproofs.calculus import ProofGraph
    from nwproofs.graphfile import print_proof_file

    if isinstance(out, ProofGraph):
        return print_proof_file(out, "grz")
    return _render_unfolding(out)


def _render_unfolding(res) -> str:
    from nwproofs.syntax import print_sequent
    from nwproofs.trees import Truncation, format_word

    tree = res.tree
    lines = []
    for w in sorted(tree.nodes):
        label = tree.label(w)
        root = "*" if tree.frag_root(w) == w else ""
        if isinstance(label, Truncation):
            lines.append(f"{format_word(w)}{root} ... {print_sequent(label.label[0])}")
        else:
            lines.append(f"{format_word(w)}{root} {print_sequent(label[0])} : {label[1]}")
    return "\n".join(lines) + "\n"


def _check_unfolding(res, calc, cut_free: bool, closed: bool | None) -> Outcome:
    """Every complete fragment of an unfolding passes the fragment check
    of ``calc`` and, for cut elimination, is cut free."""
    from nwproofs.calculus import check_proof_fragment
    from nwproofs.coalgebra import Unfolding
    from nwproofs.grz.rules import CUT
    from nwproofs.trees import Truncation

    if not isinstance(res, Unfolding):
        return Outcome(f"expected an unfolding, got {type(res).__name__}")
    tree = res.tree
    nodes = sum(1 for w in tree.nodes if not isinstance(tree.label(w), Truncation))
    problem = None
    for root in sorted(tree.roots()):
        if isinstance(tree.label(root), Truncation):
            continue
        frag = tree.tree_fragment(root)
        if cut_free and any(frag.label(w)[1] == CUT for w in frag.proper_nodes):
            problem = f"fragment at {root} still has a cut"
            break
        leaves = {}
        for w in frag.nw_leaves:
            child = tree.label(root + w)
            leaves[w] = child.label[0] if isinstance(child, Truncation) else child[0]
        if not check_proof_fragment(calc, frag, leaves).ok:
            problem = f"fragment at {root} is not a {calc.name} fragment"
            break
    return Outcome(problem, closed, 0, nodes)


def _check_translation(out, calc, root_sequent, cut_free: bool) -> Outcome:
    """A memoized translation: a closed graph, or an unfolding when it
    did not close within ``max_states`` (then ``closed`` is False)."""
    from nwproofs.calculus import ProofGraph

    if isinstance(out, ProofGraph):
        return _check_closed(out, calc, root_sequent, cut_free)
    return _check_unfolding(out, calc, cut_free, closed=False)


def _box_chain(n: int):
    from nwproofs.grz.formulas import Atom, Box, Imp, Sequent

    f = Imp(Atom(0), Atom(0))
    for _ in range(n):
        f = Box(f)
    return Sequent.of([], [f])


# -- nested ----------------------------------------------------------------


def _nested(seed: int) -> Workload:
    import nwproofs.grz.cutelim as cutelim
    import nwproofs.translate as translate
    from nwproofs.coalgebra import UnfoldBudget
    from nwproofs.grz import GRZ
    from nwproofs.search import SearchBudget, _plant_cut, search

    rng = random.Random(seed)
    step = translate.identity_step(GRZ)
    budget = UnfoldBudget(NESTED_IDENTITY_BUDGET)
    wl = Workload([])
    for n in NESTED_N:
        pg = search(GRZ, _box_chain(n), SearchBudget(n + 3, n + 3))
        wl.setup_theorems.append(pg is not None)
        if pg is None:  # shows in solved_frac; this n has no items
            continue
        cut = _plant_cut(rng, pg)
        for g in (pg, cut):
            wl.input_states += len(g.states)
            wl.input_nodes += _proper_nodes(g)
        wl.items.append(
            Item(
                f"extend n={n}",
                lambda pg=pg: translate.extend(step, pg, budget, max_states=NESTED_MAX_STATES),
                lambda out, pg=pg: _check_translation(out, GRZ, pg.root_sequent, False),
                render_output,
            )
        )
        wl.items.append(
            Item(
                f"cut_elim n={n}",
                lambda cut=cut: cutelim.cut_elim(cut),
                lambda out, cut=cut: _check_translation(out, GRZ, cut.root_sequent, True),
                render_output,
            )
        )
    return wl


# -- corpus ----------------------------------------------------------------


def _pipeline(text: str):
    """What `nwproofs cutelim` does with a file, plus checking the result."""
    from nwproofs.calculus import ProofGraph, check_proof_graph
    from nwproofs.coalgebra import UnfoldBudget
    from nwproofs.graphfile import parse_proof_file, print_proof_file
    from nwproofs.grz import GRZ, GRZ_CUT, cut_elim

    _, pg = parse_proof_file(text)
    source_ok = check_proof_graph(GRZ_CUT, pg).ok
    out = cut_elim(
        pg,
        budget=UnfoldBudget(CUTELIM_DEPTH, CUTELIM_MAX_NODES),
        max_states=CUTELIM_MAX_STATES,
    )
    if isinstance(out, ProofGraph):
        target_ok = check_proof_graph(GRZ, out).ok
        printed = print_proof_file(out, GRZ.name)
    else:
        target_ok, printed = None, None
    return pg, source_ok, out, target_ok, printed


def _check_pipeline(result) -> Outcome:
    from nwproofs.calculus import ProofGraph
    from nwproofs.graphfile import parse_proof_file, print_proof_file
    from nwproofs.grz import GRZ

    pg, source_ok, out, target_ok, printed = result
    if not source_ok:
        return Outcome("input is not a grz+cut proof")
    got = _check_translation(out, GRZ, pg.root_sequent, cut_free=True)
    if got.problem is None and isinstance(out, ProofGraph):
        if not target_ok:
            return Outcome("pipeline check rejected the output")
        if printed != print_proof_file(out, GRZ.name):
            return Outcome("pipeline printed a different text")
        name, back = parse_proof_file(printed)
        if print_proof_file(back, name) != printed:
            return Outcome("printed output does not round-trip")
    return got


def _render_pipeline(result) -> str:
    _, source_ok, out, target_ok, printed = result
    return f"{source_ok} {target_ok}\n{printed if printed is not None else render_output(out)}"


def _is_cyclic(pg) -> bool:
    from nwproofs.coalgebra import reachable

    return any(
        s in reachable(pg.graph, t) for s in pg.states for t in pg.links(s).values()
    )


def _cut_pairs(seed: int, count: int) -> list[str]:
    """Searched proof pairs joined under a cut on a random pool formula.

    The pool holds boxed and implicational formulas (and bottom), so
    cuts reach the principal, permutation and boxed-context reduction
    cases rather than only ``p0 -> p0``.
    """
    from nwproofs.calculus import Arena, PNode, check_proof_graph
    from nwproofs.graphfile import print_proof_file
    from nwproofs.grz import GRZ, GRZ_CUT
    from nwproofs.grz.formulas import Atom, Bot, Box, Imp
    from nwproofs.grz.rules import CUT
    from nwproofs.search import SearchBudget, _random_goal, search

    p, q = Atom(0), Atom(1)
    pool = [p, Box(p), Imp(p, q), Imp(p, p), Box(Imp(p, p)), Box(Box(p)), Bot(), Imp(Box(p), q)]
    budget = SearchBudget(*CORPUS_PAIR_BUDGET)
    rng = random.Random(f"cut-pairs:{seed}")
    texts: list[str] = []
    while len(texts) < count:
        base = _random_goal(rng, 2, 3)
        phi = rng.choice(pool)
        left = search(GRZ, base.with_right(phi), budget)
        if left is None:
            continue
        right = search(GRZ, base.with_left(phi), budget)
        if right is None:
            continue
        arena = Arena()
        la, lb = arena.include(left), arena.include(right)
        joined = arena.proof(PNode(base, CUT, (arena.materialize(la), arena.materialize(lb))))
        if not check_proof_graph(GRZ_CUT, joined).ok:
            raise RuntimeError("joined cut pair failed the checker")
        texts.append(print_proof_file(joined, GRZ_CUT.name))
    return texts


def _corpus(seed: int, corpus_dir: Path) -> Workload:
    import nwproofs.coalgebra as coalgebra
    import nwproofs.grz.cutelim as cutelim
    import nwproofs.translate as translate
    from nwproofs.calculus import check_proof_graph
    from nwproofs.graphfile import parse_proof_file, print_proof_file
    from nwproofs.grz import GRZ, GRZ_CUT
    from nwproofs.search import SearchBudget, generate_corpus, search

    golden = [path.read_text() for path in sorted(corpus_dir.glob("*.proof"))]
    if not golden:
        raise RuntimeError(f"no golden .proof files in {corpus_dir}")
    texts = list(golden)
    texts.extend(
        print_proof_file(pg, GRZ_CUT.name)
        for pg in generate_corpus(seed, CORPUS_GENERATED, with_cuts=True)
    )
    texts.extend(_cut_pairs(seed, CORPUS_CUT_PAIRS))

    wl = Workload([])
    for i, text in enumerate(texts):
        _, pg = parse_proof_file(text)
        wl.input_states += len(pg.states)
        wl.input_nodes += _proper_nodes(pg)
        wl.items.append(
            Item(f"pipeline #{i}", lambda text=text: _pipeline(text), _check_pipeline, _render_pipeline)
        )

    # Every golden file proves its end sequent, so each is a known theorem.
    theorem_budget = SearchBudget(*CORPUS_THEOREM_BUDGET)
    budget = coalgebra.UnfoldBudget(MEMO_OFF_DEPTH, CUTELIM_MAX_NODES)
    for i, text in enumerate(golden):
        name, pg = parse_proof_file(text)
        found = search(GRZ, pg.root_sequent, theorem_budget)
        wl.setup_theorems.append(found is not None and check_proof_graph(GRZ, found).ok)
        if not _is_cyclic(pg):
            continue
        calc = GRZ_CUT if name == GRZ_CUT.name else GRZ
        step = translate.identity_step(calc)
        wl.items.append(
            Item(
                f"unfold golden #{i}",
                lambda pg=pg: coalgebra.unfold(pg.graph, pg.root, budget),
                lambda res, calc=calc: _check_unfolding(res, calc, False, None),
                render_output,
            )
        )
        wl.items.append(
            Item(
                f"extend memo-off golden #{i}",
                lambda pg=pg, step=step: translate.extend(step, pg, budget, memo=False),
                lambda res, calc=calc: _check_unfolding(res, calc, False, None),
                render_output,
            )
        )
        if calc is GRZ_CUT:
            wl.items.append(
                Item(
                    f"cut_elim memo-off golden #{i}",
                    lambda pg=pg: cutelim.cut_elim(pg, budget=budget, memo=False),
                    lambda res: _check_unfolding(res, GRZ, True, None),
                    render_output,
                )
            )
    return wl


# -- search ----------------------------------------------------------------


def _formulas_up_to(size: int, atoms: int) -> list:
    from nwproofs.grz.formulas import Atom, Bot, Box, Imp

    by_size = {1: [Bot()] + [Atom(i) for i in range(atoms)]}
    for s in range(2, size + 1):
        out = [Box(f) for f in by_size[s - 1]]
        for left in range(1, s - 1):
            out.extend(Imp(a, b) for a in by_size[left] for b in by_size[s - 1 - left])
        by_size[s] = out
    return [f for group in by_size.values() for f in group]


def _classical(f, valuation) -> bool:
    """Truth with boxes erased.  A Grz theorem holds on the one-point
    reflexive frame, where ``box A`` means ``A``, so a sequent that is
    not a tautology once boxes are erased is a known non-theorem."""
    from nwproofs.grz.formulas import Atom, Bot, Box, Imp

    if isinstance(f, Bot):
        return False
    if isinstance(f, Atom):
        return valuation[f.index]
    if isinstance(f, Box):
        return _classical(f.body, valuation)
    assert isinstance(f, Imp)
    return not _classical(f.left, valuation) or _classical(f.right, valuation)


def _status(goal) -> bool | None:
    """True for a known theorem, False for a known non-theorem, None if
    neither is known.  Known theorems: box-free tautologies (Grz is
    conservative over classical logic), identities ``A |- A`` and goals
    with ``false`` on the left."""
    from nwproofs.grz.formulas import Bot, Box, subformulas

    ante = [f for f, n in goal.ante for _ in range(n)]
    succ = [f for f, n in goal.succ for _ in range(n)]
    valid = all(
        not all(_classical(f, v) for f in ante) or any(_classical(f, v) for f in succ)
        for v in itertools.product((False, True), repeat=SEARCH_ATOMS)
    )
    if not valid:
        return False
    boxed = any(isinstance(g, Box) for f in ante + succ for g in subformulas(f))
    if not boxed or Bot() in ante or (len(ante) == 1 and ante == succ):
        return True
    return None


def _check_found(out, calc, goal) -> str | None:
    from nwproofs.calculus import check_proof_graph

    if out.root_sequent != goal:
        return "found proof has another end sequent"
    if not check_proof_graph(calc, out).ok:
        return f"found proof is not a {calc.name} proof"
    return None


def _search_counts(outs) -> tuple[int, int]:
    found = [o for o, _ in outs if o is not None]
    return sum(len(o.states) for o in found), sum(_proper_nodes(o) for o in found)


def _render_search(outs) -> str:
    from nwproofs.graphfile import print_proof_file

    return "".join(print_proof_file(o, c.name) if o is not None else "none\n" for o, c in outs)


def _check_goal(outs, goal, status) -> Outcome:
    """Plain search and cut-pool search must agree, found proofs must be
    valid proofs of the goal, and no known non-theorem may be found."""
    (plain, grz), (with_cut, grz_cut) = outs
    states, nodes = _search_counts(outs)
    found = plain is not None
    problem = None
    if found != (with_cut is not None):
        problem = "plain and cut-pool verdicts differ"
    elif found and status is False:
        problem = "proved a known non-theorem"
    else:
        problem = next(
            (p for o, c in outs if o is not None and (p := _check_found(o, c, goal))), None
        )
    return Outcome(problem, found, states, nodes)


def _check_axiom(outs, goal) -> Outcome:
    ((out, calc),) = outs
    states, nodes = _search_counts(outs)
    problem = _check_found(out, calc, goal) if out is not None else None
    return Outcome(problem, out is not None, states, nodes)


def _search(seed: int) -> Workload:
    from nwproofs.grz import GRZ, GRZ_CUT
    from nwproofs.grz.formulas import Atom, Box, Imp, Sequent, subformulas
    from nwproofs.search import SearchBudget

    srch = importlib.import_module("nwproofs.search")  # the package's `search` is the function
    formulas = _formulas_up_to(SEARCH_FORMULA_SIZE, SEARCH_ATOMS)
    goals = [Sequent.of([], [g]) for g in formulas]
    goals += [Sequent.of([f], []) for f in formulas]
    goals += [Sequent.of([f], [g]) for f in formulas for g in formulas]
    goals.append(Sequent.of([], []))
    plain = SearchBudget(*SEARCH_BUDGET)

    wl = Workload([])
    for goal in goals:
        members = [f for f, _ in goal.ante] + [f for f, _ in goal.succ]
        pool = frozenset().union(*(subformulas(f) for f in members))
        with_cut = SearchBudget(*SEARCH_BUDGET, cut_formulas=pool)
        status = _status(goal)
        wl.items.append(
            Item(
                f"goal {goal!r}",
                lambda goal=goal, with_cut=with_cut: (
                    (srch.search(GRZ, goal, plain), GRZ),
                    (srch.search(GRZ_CUT, goal, with_cut), GRZ_CUT),
                ),
                lambda outs, goal=goal, status=status: _check_goal(outs, goal, status),
                _render_search,
                SEARCH_CAP_S,
                known_theorem=status is True,
            )
        )
    # The Grz axiom box(box(A -> box A) -> A) -> A with A = box p0 -> p1.
    a = Imp(Box(Atom(0)), Atom(1))
    axiom = Sequent.of([], [Imp(Box(Imp(Box(Imp(a, Box(a))), a)), a)])
    for height, states in GRZ_AXIOM_BUDGETS:
        budget = SearchBudget(height, states)
        wl.items.append(
            Item(
                f"grz axiom at ({height},{states})",
                lambda budget=budget: ((srch.search(GRZ, axiom, budget), GRZ),),
                lambda outs: _check_axiom(outs, axiom),
                _render_search,
                SEARCH_CAP_S,
                known_theorem=True,
            )
        )
    random.Random(seed).shuffle(wl.items)
    return wl
