"""The hash-consed state store behind ``extend``: ids as classes, the check
cache, and how much work one translation does per state."""

from __future__ import annotations

import ast
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coalgebra, random_tree_nw
from grzlib import P, Q, atomic_cut_graph, box_chain, box_step_graph, complete_blocks, node, seq
from nwproofs import calculus, coalgebra, store, translate
from nwproofs.calculus import LocalProgressCalculus, ProofGraph, check_proof_fragment, check_proof_graph
from nwproofs.coalgebra import Coalgebra, StateId, UnfoldBudget, root_first_order
from nwproofs.commands import _print_unfolding, print_proof_file
from nwproofs.fftree import Unfolding
from nwproofs.graphfile import parse_proof_file
from nwproofs.grz import GRZ, GRZ_CUT, cut_elim, weakening
from nwproofs.grz.cutelim import _require_proof, cut_elimination_step, cuts_up, reduce_cut
from nwproofs.grz.formulas import Box
from nwproofs.grz.rules import BOX, CUT
from nwproofs.search import SearchBudget, _plant_cut, search
from nwproofs.store import Arena, PNode, canonical_form, check, subproof
from nwproofs.translate import (
    NotASourceProof,
    StepContractViolation,
    TranslationStep,
    extend,
    identity_step,
)
from nwproofs.trees import EPSILON, STAR, TreeNW

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# Few labels and small fragments, so that many states are bisimilar.
LABELS = [("a", "r"), ("b", "r")]


def _random_states(rng, names, targets, count):
    dest = {}
    for name in names[:count]:
        frag = random_tree_nw(rng, max_nodes=3, star_prob=0.5, labels=LABELS)
        links = {w: rng.choice(targets) for w in frag.nw_leaves}
        dest[name] = (frag, tuple(links[w] for w in frag.leaf_order))
    return dest


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_store_classes_agree_with_canonical_form(rng):
    # a store id is a bisimulation class: stored states have pairwise
    # distinct canonical forms, and each id that include or add returns
    # has the canonical form of what went in
    names = [f"s{i}" for i in range(rng.randint(1, 6))]
    base = Coalgebra(_random_states(rng, names, names, len(names)))
    arena = Arena()
    # a random cyclic coalgebra, copied in state by state
    for s in names:
        included = arena.include(ProofGraph(base, s))
        assert canonical_form(arena.graph, included) == canonical_form(base, s)
    # batches of states on top, linking back into everything stored so far
    for _ in range(rng.randint(1, 3)):
        stored = sorted(arena.graph.states)
        for _ in range(rng.randint(1, 4)):
            frag = random_tree_nw(rng, max_nodes=3, star_prob=0.5, labels=LABELS)
            links = {w: rng.choice(stored) for w in frag.nw_leaves}
            targets = tuple(links[w] for w in frag.leaf_order)
            went_in = Coalgebra({**arena.graph._dest, "new": (frag, targets)})
            added = arena.add(frag, targets)
            assert canonical_form(arena.graph, added) == canonical_form(went_in, "new")
    # one foreign import: a renamed copy of the base, plus cyclic states
    # whose names collide with stored ones
    copy = {f"c{s}": (base.fragment(s), tuple(f"c{t}" for t in base.links(s).values())) for s in names}
    extra = [f"s{i}" for i in range(rng.randint(1, 4))]
    copy.update(_random_states(rng, extra, extra + sorted(copy), len(extra)))
    foreign = Coalgebra(copy)
    root = rng.choice(sorted(foreign.states))
    included = arena.include(ProofGraph(foreign, root))
    assert canonical_form(arena.graph, included) == canonical_form(foreign, root)

    g = arena.graph
    keys = [canonical_form(g, s) for s in g.states]
    assert len(set(keys)) == len(keys)


def test_a_bisimilar_state_is_the_stored_one():
    arena = Arena()
    root = arena.include(box_step_graph())
    frag, links = arena.graph._dest[root]
    size = len(arena._states)
    assert arena.add(frag, tuple(links)) == root
    # a renamed copy, included into a store that holds the original
    renamed = {
        f"r{s}": (f, tuple(f"r{t}" for t in ts)) for s, (f, ts) in arena.graph._dest.items()
    }
    assert arena.include(ProofGraph(Coalgebra(renamed), f"r{root}")) == root
    assert len(arena._states) == size
    # the hit used up no fresh name
    assert arena.add(TreeNW([(seq([P], [P]), "ax")], [0]), ()) == "t0"


def _reference_partition(coalg: Coalgebra) -> set[frozenset[StateId]]:
    """The coarsest bisimulation by a refinement seeded by fragment
    equality whose signatures keep each leaf's word beside its block."""
    block = {s: coalg.fragment(s) for s in coalg.states}
    while True:
        sig = {
            s: (block[s], tuple((w, block[t]) for w, t in sorted(coalg.links(s).items())))
            for s in coalg.states
        }
        if len(set(sig.values())) == len(set(block.values())):
            break
        block = sig
    members: dict = {}
    for s in coalg.states:
        members.setdefault(block[s], set()).add(s)
    return {frozenset(ms) for ms in members.values()}


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_minimization_needs_no_leaf_words(rng):
    names = [f"s{i}" for i in range(rng.randint(1, 6))]
    for coalg in (Coalgebra(_random_states(rng, names, names, len(names))), random_coalgebra(rng)):
        _, renaming = store.bisim_minimize(coalg)
        members: dict = {}
        for s, rep in renaming.items():
            members.setdefault(rep, set()).add(s)
        assert {frozenset(ms) for ms in members.values()} == _reference_partition(coalg)


# -- inputs that are not minimal ------------------------------------------
#
# b1 and b2 are bisimilar states under two names: every store entry point
# must treat the input as the same proof with b2 replaced by b1.

DUPLICATED = {
    "grz": """calculus grz
root s0

state s0
  box p0 |- box p0, box p0 : box
    box p0 |- box p0, p0 : box
      box p0 |- p0, p0 : refl
        p0, box p0 |- p0, p0 : ax
      link b1
    link b2
""",
    # a root cut on p0 whose premises end in the two names
    "grz+cut": """calculus grz+cut
root s0

state s0
  box p0 |- box p0 : cut
    box p0 |- box p0, p0 : box
      box p0 |- p0, p0 : refl
        p0, box p0 |- p0, p0 : ax
      link b1
    p0, box p0 |- box p0 : box
      p0, box p0 |- p0 : ax
      link b2
""",
}
REFL_STATES = """
state b1
  box p0 |- p0 : refl
    p0, box p0 |- p0 : ax

state b2
  box p0 |- p0 : refl
    p0, box p0 |- p0 : ax
"""
# the right premise of a cut on box p0 against the grz file; its state
# names collide with that file's, one with the same content, one without
CUT_PARTNER = """calculus grz
root s0

state s0
  box p0, box p0 |- box p0 : box
    box p0, box p0 |- p0 : refl
      p0, box p0, box p0 |- p0 : ax
    link b1

state b1
  box p0 |- p0 : refl
    p0, box p0 |- p0 : ax
"""


def _duplicated(variant: str, merged: bool) -> ProofGraph:
    text = DUPLICATED[variant] + REFL_STATES
    if merged:
        text = text.replace("link b2", "link b1").split("\nstate b2")[0]
    return parse_proof_file(text)[1]


def _reduce_cut_on(pg: ProofGraph) -> ProofGraph:
    if pg.fragment(pg.root).label(EPSILON)[1] == CUT:
        return reduce_cut(subproof(pg, (0,)), subproof(pg, (1,)))
    return reduce_cut(pg, parse_proof_file(CUT_PARTNER)[1])


def _end(pg: ProofGraph):
    return pg.root_sequent


# each entry point: its output on a proof, the calculus the output is
# checked in, and the end sequent it must have
ENTRY_POINTS = {
    "weakening": (lambda pg: weakening(pg, seq([Q])), GRZ_CUT, lambda pg: _end(pg).with_left(Q)),
    "subproof root": (lambda pg: subproof(pg, EPSILON), GRZ_CUT, _end),
    "subproof premise": (
        lambda pg: subproof(pg, (0,)),
        GRZ_CUT,
        lambda pg: pg.fragment(pg.root).label((0,))[0],
    ),
    "cuts_up": (cuts_up, GRZ_CUT, _end),
    "reduce_cut": (_reduce_cut_on, GRZ_CUT, lambda pg: seq([Box(P)], [Box(P)])),
    "cut_elim": (cut_elim, GRZ, _end),
    "cut_elim no memo": (lambda pg: cut_elim(pg, UnfoldBudget(3), memo=False), GRZ, _end),
    "identity": (lambda pg: extend(identity_step(GRZ_CUT), pg, UnfoldBudget(3)), GRZ_CUT, _end),
    "identity no memo": (
        lambda pg: extend(identity_step(GRZ_CUT), pg, UnfoldBudget(3), memo=False),
        GRZ_CUT,
        _end,
    ),
}


def _printed(out: ProofGraph | Unfolding) -> str:
    """An output as printed, a graph first quotiented by bisimilarity and
    its states renamed in root-first order, so that state names do not show."""
    if isinstance(out, Unfolding):
        return _print_unfolding(out)
    part = Coalgebra({s: out.graph._dest[s] for s in root_first_order(out.graph, out.root)})
    small, renaming = store.bisim_minimize(part)
    name = {s: f"s{i}" for i, s in enumerate(root_first_order(small, renaming[out.root]))}
    dest = {name[s]: (small.fragment(s), tuple(name[t] for t in small.links(s).values())) for s in name}
    return print_proof_file(ProofGraph(Coalgebra(dest), "s0"), GRZ_CUT.name)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("variant", sorted(DUPLICATED))
def test_an_input_with_bisimilar_states_is_the_proof_with_them_merged(variant, entry):
    apply, calc, end = ENTRY_POINTS[entry]
    pg = _duplicated(variant, merged=False)
    assert check_proof_graph(GRZ_CUT, pg).ok and len(pg.states) == 3
    out = apply(pg)
    if isinstance(out, Unfolding):
        blocks = list(complete_blocks(out.tree))
        assert blocks and all(check_proof_fragment(calc, f, leaves).ok for _, f, leaves in blocks)
        root_sequent = out.tree.label(EPSILON)[0]
    else:
        assert check_proof_graph(calc, out).ok
        root_sequent = out.root_sequent
    assert root_sequent == end(pg)
    assert _printed(out) == _printed(apply(_duplicated(variant, merged=True)))


def test_bisimilar_failing_states_are_one_finding_to_extend_and_each_one_to_check():
    refl = "box p0 |- p0 : refl\n    p0, box p0 |- p0 : ax"
    pg = parse_proof_file(DUPLICATED["grz"] + REFL_STATES.replace(refl, "box p0 |- p0 : ax"))[1]
    assert [f.state for f in check_proof_graph(GRZ_CUT, pg).findings] == ["b1", "b2"]
    with pytest.raises(NotASourceProof) as err:
        extend(identity_step(GRZ_CUT), pg, UnfoldBudget(3))
    assert str(err.value).count("not an instance of ax") == 1


# -- the check cache -------------------------------------------------------


def test_certification_does_not_leak_between_calculi():
    arena = Arena()
    view = arena.view(arena.include(atomic_cut_graph()))
    assert check(GRZ_CUT, view).ok
    assert view.root in arena.certified(GRZ_CUT)
    assert not check(GRZ, view).ok
    # the cache is keyed by the calculus object, not by its name
    impostor = LocalProgressCalculus(GRZ_CUT.name, GRZ.rules, GRZ.progress)
    assert not check(impostor, view).ok
    assert view.root not in arena.certified(GRZ)


def _star_tree(sequent, rule: str, leaves: int) -> TreeNW:
    return TreeNW({EPSILON: (sequent, rule), **{(i,): STAR for i in range(leaves)}})


def test_failing_report_matches_the_uncached_checker():
    arena = Arena()
    good = arena.view(arena.include(box_step_graph()))
    assert check(GRZ, good).ok
    s0, s1 = good.root, good.links(good.root)[(1,)]
    j1 = arena.add(_star_tree(seq([P], []), "box", 2), (s1, s0))
    j2 = arena.add(_star_tree(seq([Q], []), "impr", 2), (j1, s1))
    top = arena.add(_star_tree(seq([], [P]), "refl", 3), (j2, s0, j1))
    view = arena.view(top)
    cached = check(GRZ, view)
    uncached = check_proof_graph(GRZ, view.pruned())
    assert len(cached.findings) == 3
    assert cached.findings == uncached.findings
    assert str(cached) == str(uncached)
    assert not {top, j1, j2} & arena.certified(GRZ)


def _cache(arena: Arena) -> dict:
    return {calc.name: set(arena.certified(calc)) for calc in (GRZ, GRZ_CUT)}


def test_the_checker_neither_reads_nor_fills_the_store_cache():
    arena = Arena()
    good = arena.view(arena.include(box_step_graph()))
    assert check(GRZ, good).ok
    s0, s1 = good.root, good.links(good.root)[(1,)]
    bad = arena.view(arena.add(_star_tree(seq([P], []), "box", 2), (s1, s0)))
    # a certified mark the checker must not trust
    arena.certified(GRZ).add(bad.root)
    before = _cache(arena)
    assert check_proof_graph(GRZ, good).ok
    assert check_proof_graph(GRZ_CUT, good).ok
    failing = check_proof_graph(GRZ, bad)
    assert failing.findings == check_proof_graph(GRZ, bad.pruned()).findings
    assert not failing.ok
    assert _cache(arena) == before


def test_calculus_forwards_the_store_names_the_benchmark_imports():
    from nwproofs.calculus import Arena as ForwardedArena, PNode as ForwardedPNode

    assert ForwardedArena is Arena and ForwardedPNode is PNode
    assert Arena.__module__ == PNode.__module__ == store.__name__
    with pytest.raises(ImportError):
        from nwproofs.calculus import flatten  # noqa: F401


def test_coalgebra_forwards_only_the_names_the_benchmark_reads():
    from nwproofs import fftree

    forwarded = {
        "Unfolding": fftree,
        "UnfoldBudget": fftree,
        "unfold": fftree,
        "bisim_minimize": store,
        "canonical_form": store,
    }
    for name, home in forwarded.items():
        assert getattr(coalgebra, name) is getattr(home, name)
    with pytest.raises(ImportError):
        from nwproofs.coalgebra import restrict  # noqa: F401
    # the kernel imports these names from their homes, never through the forwarder
    for path in Path(store.__file__).parent.rglob("*.py"):
        for imp in ast.walk(ast.parse(path.read_text())):
            if isinstance(imp, ast.ImportFrom) and (imp.module or "").endswith("coalgebra"):
                assert not {alias.name for alias in imp.names} & set(forwarded), path


def test_graphfile_forwards_only_the_printer_the_benchmark_reads():
    from nwproofs import commands, graphfile

    assert graphfile.print_proof_file is commands.print_proof_file
    with pytest.raises(ImportError):
        from nwproofs.graphfile import to_dot  # noqa: F401
    # the kernel imports the printer from its home, never through the forwarder
    for path in Path(store.__file__).parent.rglob("*.py"):
        for imp in ast.walk(ast.parse(path.read_text())):
            if isinstance(imp, ast.ImportFrom) and (imp.module or "").endswith("graphfile"):
                assert "print_proof_file" not in {alias.name for alias in imp.names}, path


def test_syntax_forwards_only_the_printers_the_benchmark_reads():
    from nwproofs import commands, syntax

    forwarded = ("print_formula", "print_sequent")
    for name in forwarded:
        assert getattr(syntax, name) is getattr(commands, name)
    with pytest.raises(ImportError):
        from nwproofs.syntax import print_proof_file  # noqa: F401
    # the kernel imports the printers from their home, never through the forwarder
    for path in Path(store.__file__).parent.rglob("*.py"):
        for imp in ast.walk(ast.parse(path.read_text())):
            if isinstance(imp, ast.ImportFrom) and (imp.module or "").endswith("syntax"):
                assert not {alias.name for alias in imp.names} & set(forwarded), path



def _nested(n: int) -> ProofGraph:
    pg = search(GRZ, box_chain(n), SearchBudget(n + 3, n + 3))
    assert pg is not None
    return pg


def test_bad_later_residual_is_caught_after_shared_states_are_certified():
    base = identity_step(GRZ)
    calls: list[ProofGraph] = []
    junk: list[ProofGraph] = []

    def apply(pg):
        fragment, parts = base.apply(pg)
        calls.append(pg)
        if len(calls) > 1 and parts and not junk:
            # pg's own fragment relabelled, over its certified successors
            labels = {w: (lab[0], "bot") if w == EPSILON else lab for w, lab in fragment.labels().items()}
            junk.append(pg.store.view(pg.store.add(TreeNW(labels), parts)))
            parts = (junk[0].root, *parts[1:])  # the stored targets stay as they are
        return fragment, parts

    step = TranslationStep(GRZ, GRZ, apply, name="late-junk")
    with pytest.raises(StepContractViolation) as err:
        extend(step, _nested(3), UnfoldBudget(4))
    assert err.value.condition == 2
    (bad,) = junk
    shared = set(bad.links(bad.root).values())
    assert shared and shared <= bad.store.certified(GRZ)
    assert err.value.report.findings == check_proof_graph(GRZ, bad.pruned()).findings


# -- linearity guard ---------------------------------------------------------


def _count_calls(monkeypatch, counts: Counter, fn, name: str) -> None:
    """Count calls of ``fn`` through every module binding of it."""

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname == "nwproofs" or modname.startswith("nwproofs."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("n", [8, 16])
def test_extend_works_once_per_state(n, monkeypatch):
    """Counts, not times: a fragment walk per input or stored state, none
    for an output state the step handed back unchanged, no canonical
    form, and one bisimulation refinement per translation."""
    pg = _nested(n)
    cut = _plant_cut(random.Random(n), pg)
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, calculus.check_proof_fragment, "check")
    _count_calls(monkeypatch, counts, store.canonical_form, "canonical")
    _count_calls(monkeypatch, counts, store.bisim_partition, "refine")
    add = Arena.add

    def counted_add(self, fragment, links):
        counts["add"] += 1
        return add(self, fragment, links)

    monkeypatch.setattr(Arena, "add", counted_add)
    runs = [
        (pg, lambda: extend(identity_step(GRZ), pg, UnfoldBudget(4), max_states=10_000)),
        (cut, lambda: cut_elim(cut)),
    ]
    for source, run in runs:
        counts.clear()
        out = run()
        assert isinstance(out, ProofGraph)
        # a target check of a state the step hands back unchanged is a lookup
        assert counts["check"] <= len(source.states) + counts["add"]
        assert counts["canonical"] == 0
        assert counts["refine"] <= 1


class _CountedLookups(dict):
    """A ``decided`` table that counts every lookup made in it."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def setdefault(self, key, default=None):
        self.lookups += 1
        return super().setdefault(key, default)


def test_checking_the_nested_family_looks_up_about_linearly_often():
    """Counts, not times: the fragment of each state of a nested proof
    holds the fragment of the state before it as a subtree over the same
    leaf sequents, and the checker skips that subtree, so its lookups in
    ``decided`` grow about linearly in n while the proper nodes grow
    about quadratically."""
    lookups, nodes = [], []
    for n in (16, 32, 64):
        pg = _nested(n)
        decided = _CountedLookups()
        assert check_proof_graph(GRZ, pg, decided=decided).ok
        lookups.append(decided.lookups)
        nodes.append(sum(len(pg.fragment(s)) - len(pg.fragment(s)._stars) for s in pg.states))
    for fewer, more in zip(nodes, nodes[1:]):
        assert more >= 3.4 * fewer, nodes
    for fewer, more in zip(lookups, lookups[1:]):
        assert more <= 2.2 * fewer, lookups


def test_identity_extend_runs_the_graph_checker_once(monkeypatch):
    """Counts, not times: the input check certifies every state, so each
    residual's source check is a lookup of its certified root."""
    proofs = {n: _nested(n) for n in range(4, 13)}
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, calculus.check_proof_graph, "graph")
    for n, pg in proofs.items():
        counts.clear()
        out = extend(identity_step(GRZ), pg, UnfoldBudget(4), max_states=10_000)
        assert isinstance(out, ProofGraph) and len(out.states) > 1
        assert counts["graph"] == 1, n


def test_a_certified_root_skips_the_graph_checker(monkeypatch):
    arena = Arena()
    pg = arena.view(arena.include(box_step_graph()))
    assert check(GRZ_CUT, pg).ok and pg.root in arena.certified(GRZ_CUT)
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, calculus.check_proof_graph, "graph")
    _require_proof(pg)
    assert cuts_up(pg) == pg
    assert check(GRZ_CUT, pg).ok
    assert counts["graph"] == 0


def _walks_by_calculus(monkeypatch) -> list[tuple[LocalProgressCalculus, TreeNW]]:
    """Record the calculus and fragment of every fragment walk."""
    walks: list[tuple[LocalProgressCalculus, TreeNW]] = []
    fn = calculus.check_proof_fragment

    def counted(calc, tree, *args, **kwargs):
        walks.append((calc, tree))
        return fn(calc, tree, *args, **kwargs)

    for module in (calculus, translate):
        monkeypatch.setattr(module, "check_proof_fragment", counted)
    return walks


@pytest.mark.parametrize("n", [8, 16])
def test_cut_elim_walks_only_the_states_it_changes_in_grz(n, monkeypatch):
    """Counts, not times: the Grz target check walks only the fragments
    the step rewrote, each of them a stored state; every other emitted
    fragment is one the Grz+cut check passed over the same leaf sequents."""
    cut = _plant_cut(random.Random(n), _nested(n))
    walks = _walks_by_calculus(monkeypatch)
    add = Arena.add
    added: list[StateId] = []

    def counted_add(self, fragment, links):
        added.append(add(self, fragment, links))
        return added[-1]

    monkeypatch.setattr(Arena, "add", counted_add)
    out = cut_elim(cut)
    assert isinstance(out, ProofGraph)
    source = [tree for calc, tree in walks if calc is GRZ_CUT]
    target = [tree for calc, tree in walks if calc is GRZ]
    assert len(source) + len(target) == len(walks)
    assert len(source) <= len(cut.states) + len(added)
    assert 1 <= len(target) <= len(added) < len(out.states)


# -- reusing a pass under another calculus ----------------------------------


def _accepted_without_a_walk(monkeypatch) -> list[tuple]:
    """Record each target check of an extension that walked no fragment:
    its engine, fragment and leaf sequents, and whether the target's own
    table held the pass before the check."""
    walks = _walks_by_calculus(monkeypatch)
    accepted: list[tuple] = []
    check_fragment = translate._Engine.check_fragment

    def recorded(self, fragment, leaves, where):
        own = (fragment, leaves) in self.decided
        before = len(walks)
        check_fragment(self, fragment, leaves, where)
        if len(walks) == before:
            accepted.append((self, fragment, leaves, own))

    monkeypatch.setattr(translate._Engine, "check_fragment", recorded)
    return accepted


_GOLDEN_CUTS = sorted(
    p.name for p in CORPUS.glob("*.proof") if p.read_text().startswith(f"calculus {GRZ_CUT.name}\n")
)


@pytest.mark.parametrize(
    "kind, arg", [("nested", n) for n in range(4, 13)] + [("golden", name) for name in _GOLDEN_CUTS]
)
def test_every_fragment_accepted_without_a_walk_passes_a_fresh_grz_check(kind, arg, monkeypatch):
    if kind == "nested":
        pg = _plant_cut(random.Random(arg), _nested(arg))
    else:
        pg = parse_proof_file((CORPUS / arg).read_text())[1]
    accepted = _accepted_without_a_walk(monkeypatch)
    closed = cut_elim(pg)
    unfolded = cut_elim(pg, UnfoldBudget(4), memo=False)
    assert isinstance(closed, ProofGraph) and isinstance(unfolded, Unfolding)
    for engine, tree, leaves, _ in accepted:
        assert engine.target is GRZ
        assert (tree, leaves) in engine.source_decided
        assert calculus.check_proof_fragment(GRZ, tree, leaves).ok
    if kind == "nested":
        # some pass came from the Grz+cut table, not from the Grz one
        assert any(not own for *_, own in accepted)


_GOLDEN_GRZ = sorted(
    p.name for p in CORPUS.glob("*.proof") if p.read_text().startswith(f"calculus {GRZ.name}\n")
)


@pytest.mark.parametrize(
    "kind, arg", [("nested", n) for n in (4, 8)] + [("golden", name) for name in _GOLDEN_GRZ]
)
@pytest.mark.parametrize("memo", [True, False])
def test_a_target_with_a_rule_its_source_lacks_reuses_every_source_pass(
    kind, arg, memo, monkeypatch
):
    # Grz into Grz+cut: the source's passes hold no cut, so none is walked again
    pg = _nested(arg) if kind == "nested" else parse_proof_file((CORPUS / arg).read_text())[1]
    expected = extend(identity_step(GRZ), pg, UnfoldBudget(4), memo=memo)
    walks = _walks_by_calculus(monkeypatch)
    step = TranslationStep(GRZ, GRZ_CUT, identity_step(GRZ).apply, name="into-cut")
    assert extend(step, pg, UnfoldBudget(4), memo=memo) == expected
    assert walks and not [tree for calc, tree in walks if calc is GRZ_CUT]


def _same_box(premises, concl):
    return GRZ.rules[BOX](premises, concl)


def _no_box(premises, concl):
    return False


def _same_progress(rule, premises, concl):
    return GRZ.progress(rule, premises, concl)


def _no_progress(rule, premises, concl):
    return frozenset()


class _GrzCopy(LocalProgressCalculus):
    pass


class _NoBoxGrz(LocalProgressCalculus):
    def is_instance(self, rule, premises, conclusion):
        return rule != BOX and super().is_instance(rule, premises, conclusion)


# Each row: what differs from Grz, a calculus that still behaves like Grz,
# one that rejects every box node, and the rules whose nodes must be walked.
_VARIANTS = {
    "box matcher": (
        LocalProgressCalculus("grz", {**GRZ.rules, BOX: _same_box}, GRZ.progress),
        LocalProgressCalculus("grz", {**GRZ.rules, BOX: _no_box}, GRZ.progress),
        {BOX},
    ),
    "progress function": (
        LocalProgressCalculus("grz", GRZ.rules, _same_progress),
        LocalProgressCalculus("grz", GRZ.rules, _no_progress),
        set(GRZ.rules),
    ),
    "calculus type": (
        _GrzCopy("grz", GRZ.rules, GRZ.progress),
        _NoBoxGrz("grz", GRZ.rules, GRZ.progress),
        set(GRZ.rules),
    ),
}


def _rules_of(tree: TreeNW) -> set[str]:
    return {label[1] for label in tree.key[0] if label is not STAR}


def _cut_elim_into(target: LocalProgressCalculus, pg: ProofGraph, **kwargs):
    step = TranslationStep(GRZ_CUT, target, cut_elimination_step().apply, name="cut-elim")
    return extend(step, pg, UnfoldBudget(4), **kwargs)


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("memo", [True, False])
def test_a_calculus_that_differs_from_the_source_walks(variant, memo, monkeypatch):
    same, _, differing = _VARIANTS[variant]
    cut = _plant_cut(random.Random(8), _nested(8))
    expected = cut_elim(cut, UnfoldBudget(4), memo=memo)
    walks = _walks_by_calculus(monkeypatch)
    emitted: list[TreeNW] = []
    check_fragment = translate._Engine.check_fragment

    def recorded(self, fragment, *args):
        emitted.append(fragment)
        return check_fragment(self, fragment, *args)

    monkeypatch.setattr(translate._Engine, "check_fragment", recorded)
    assert _cut_elim_into(same, cut, memo=memo) == expected
    walked = {tree for calc, tree in walks if calc is same}
    must_walk = [tree for tree in emitted if _rules_of(tree) & differing]
    assert must_walk and all(tree in walked for tree in must_walk)


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("memo", [True, False])
def test_a_calculus_that_differs_from_the_source_rejects_a_bad_fragment(variant, memo):
    # a cut-free input, so every emitted fragment is one the step hands back
    # unchanged after the Grz+cut check passed it
    _, rejecting, _ = _VARIANTS[variant]
    with pytest.raises(StepContractViolation) as err:
        _cut_elim_into(rejecting, _nested(8), memo=memo)
    assert err.value.condition == 1
    assert "is not a grz fragment" in str(err.value)


@pytest.mark.parametrize("memo", [True, False])
def test_a_step_that_emits_a_cut_into_grz_breaks_condition_one(memo):
    cut = _plant_cut(random.Random(8), _nested(8))
    step = TranslationStep(GRZ_CUT, GRZ, identity_step(GRZ_CUT).apply, name="keeps-cuts")
    with pytest.raises(StepContractViolation) as err:
        extend(step, cut, UnfoldBudget(4), memo=memo)
    assert err.value.condition == 1
    assert [f.message for f in err.value.report.findings] == ["not an instance of cut"]


@pytest.mark.parametrize("n", [8, 16])
def test_extend_decides_each_instance_once_per_scope(n, monkeypatch):
    """Counts, not times: the rule matchers run at most once per distinct
    instance in the source checks and once in the target checks, however
    often the instance repeats across states."""
    pg = _nested(n)
    cut = _plant_cut(random.Random(n), pg)
    matched: list[tuple] = []

    def wrap(rule, matcher):
        def counted(premises, concl):
            matched.append((rule, premises, concl))
            return matcher(premises, concl)

        return counted

    for calc in (GRZ, GRZ_CUT):
        for rule, matcher in list(calc.rules.items()):
            monkeypatch.setitem(calc.rules, rule, wrap(rule, matcher))
    runs = [
        lambda: extend(identity_step(GRZ), pg, UnfoldBudget(4), max_states=10_000),
        lambda: cut_elim(cut),
    ]
    for run in runs:
        matched.clear()
        assert isinstance(run(), ProofGraph)
        assert matched
        assert len(matched) <= 2 * len(set(matched))


def _count_matches(monkeypatch, matched: list) -> None:
    for calc in (GRZ, GRZ_CUT):
        for rule, matcher in list(calc.rules.items()):

            def counted(premises, concl, rule=rule, matcher=matcher):
                matched.append((rule, premises, concl))
                return matcher(premises, concl)

            monkeypatch.setitem(calc.rules, rule, counted)


@pytest.mark.parametrize("n", [8, 16])
def test_identity_extend_decides_each_fragment_once(n, monkeypatch):
    """Counts, not times: the store's table lets the target checks of an
    identity step look up the fragments that the source check passed."""
    pg = _nested(n)
    matched: list[tuple] = []
    _count_matches(monkeypatch, matched)
    in_target: list[int] = []
    check_fragment = translate._Engine.check_fragment

    def counted(self, *args):
        before = len(matched)
        check_fragment(self, *args)
        in_target.append(len(matched) - before)

    monkeypatch.setattr(translate._Engine, "check_fragment", counted)
    out = extend(identity_step(GRZ), pg, UnfoldBudget(4), max_states=10_000)
    assert isinstance(out, ProofGraph) and out.root_sequent == pg.root_sequent
    assert matched and len(matched) == len(set(matched))
    assert len(in_target) == len(out.states) and not any(in_target)


def test_a_failing_fragment_is_walked_every_time():
    refl = node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax"))
    bad_rule = TreeNW({EPSILON: (seq([], [P]), "ax")})
    bad_glue, _ = store.flatten(node(seq([Box(P)], [Box(P)]), "box", refl, refl))
    decided: dict = {}
    for tree, where, condition in [(bad_rule, EPSILON, "rule"), (bad_glue, (1,), "progress")]:
        for state in ("s0", "s1"):
            report = calculus.check_proof_fragment(GRZ, tree, {}, state, decided=decided)
            assert [(f.state, f.node, f.condition) for f in report.findings] == [
                (state, where, condition)
            ]


def test_decided_tables_are_per_calculus():
    arena = Arena()
    view = arena.view(arena.include(atomic_cut_graph()))
    assert check(GRZ_CUT, view).ok
    for _ in range(2):
        report = check(GRZ, view)
        assert [(f.node, f.condition, f.message) for f in report.findings] == [
            (EPSILON, "rule", "not an instance of cut")
        ]
    assert check(GRZ_CUT, view).ok
