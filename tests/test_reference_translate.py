"""``extend`` against the literal corecursive extension.

For the identity and cut-elimination steps, at depths 1, 3 and 6, the
memo-free output of :func:`~nwproofs.translate.extend` must lay out the
labels and block roots of :func:`reference_translate.reference_unfolding`,
with its truncation marks named ``t0, t1, ...`` in frontier order.  When
the memoized output closes, its unfolding must lay out the same.  The
inputs are the golden corpus, the nested family of ``box^n (p0 -> p0)``
proofs for n = 4..12 with and without a planted cut, and a proof in
which two states share a fragment but not their successors.  A step that
swaps the atoms p0 and p1 changes every sequent it emits, so its target
checks hold only over the root sequents of translated residuals; it runs
on the grz files of the corpus.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from grzlib import box_chain
from reference_translate import layout, reference_unfolding

from nwproofs.calculus import ProofGraph, check_proof_graph
from nwproofs.fftree import UnfoldBudget, Unfolding, unfold
from nwproofs.graphfile import parse_proof_file
from nwproofs.grz import GRZ, GRZ_CUT, Atom, Box, Imp, Sequent, cut_elimination_step
from nwproofs.grz.formulas import mexpand
from nwproofs.search import SearchBudget, _plant_cut, search
from nwproofs.translate import TranslationStep, extend, identity_step
from nwproofs.trees import STAR, TreeNW

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
DEPTHS = (1, 3, 6)

# The states a and b share their fragment, and reach different proofs of
# box p0 |- p0 at their star leaves, two layers below the root.
SHARED_FRAGMENT = """calculus grz
root s0

state s0
  box p0 |- p0, box box p0, box box p0 : box
    box p0 |- p0, box p0, box box p0 : box
      box p0 |- p0, box p0, box p0 : refl
        p0, box p0 |- p0, box p0, box p0 : ax
      link b
    link a

state a
  box p0 |- box p0 : box
    box p0 |- p0 : refl
      p0, box p0 |- p0 : ax
    link c1

state b
  box p0 |- box p0 : box
    box p0 |- p0 : refl
      p0, box p0 |- p0 : ax
    link c2

state c1
  box p0 |- p0 : refl
    p0, box p0 |- p0 : ax

state c2
  box p0 |- p0 : refl
    p0, box p0 |- p0 : refl
      p0, p0, box p0 |- p0 : ax
"""


def _inputs() -> list[tuple[str, ProofGraph]]:
    paths = sorted(CORPUS.glob("*.proof"))
    out = [(path.name, parse_proof_file(path.read_text())[1]) for path in paths]
    out.append(("shared-fragment", parse_proof_file(SHARED_FRAGMENT)[1]))
    for n in range(4, 13):
        pg = search(GRZ, box_chain(n), SearchBudget(n + 3, n + 3))
        assert pg is not None
        out += [(f"nested-{n}", pg), (f"nested-{n}-cut", _plant_cut(random.Random(n), pg))]
    return out


def _steps(pg: ProofGraph):
    """The identity step of the input's calculus, and cut elimination."""
    calc = GRZ if check_proof_graph(GRZ, pg).ok else GRZ_CUT
    return [identity_step(calc), cut_elimination_step()]


def test_reference_sees_two_states_that_share_a_fragment():
    pg = parse_proof_file(SHARED_FRAGMENT)[1]
    labels, _ = reference_unfolding(identity_step(GRZ), pg, 3)
    # a at 1 and b at 0.1: one fragment, over successors with one root label
    for w in [(), (0,), (0, 0), (1,)]:
        assert labels[(1, *w)] == labels[(0, 1, *w)]
    assert (0, 1, 1, 0, 0) in labels and (1, 1, 0, 0) not in labels


INPUTS = _inputs()


@pytest.mark.parametrize("pg", [pg for _, pg in INPUTS], ids=[name for name, _ in INPUTS])
def test_extend_lays_out_the_reference_unfolding(pg):
    for step in _steps(pg):
        closed = extend(step, pg, UnfoldBudget(1))
        for depth in DEPTHS:
            expected = reference_unfolding(step, pg, depth)
            out = extend(step, pg, UnfoldBudget(depth), memo=False)
            assert isinstance(out, Unfolding)
            assert layout(out) == expected, (step.name, depth)
            marks = [out.truncations[w] for w in sorted(out.truncations)]
            assert marks == [f"t{i}" for i in range(len(marks))]
            if isinstance(closed, ProofGraph):
                direct = unfold(closed.graph, closed.root, UnfoldBudget(depth))
                assert layout(direct) == expected, (step.name, depth)


def _swap(f):
    """``f`` with the atoms p0 and p1 swapped."""
    if isinstance(f, Atom):
        return Atom({0: 1, 1: 0}.get(f.index, f.index))
    if isinstance(f, Imp):
        return Imp(_swap(f.left), _swap(f.right))
    if isinstance(f, Box):
        return Box(_swap(f.body))
    return f


def _swap_sequent(sequent):
    return Sequent.of(map(_swap, mexpand(sequent.ante)), map(_swap, mexpand(sequent.succ)))


def swap_step() -> TranslationStep:
    """Grz into Grz: the stored fragment with p0 and p1 swapped in every
    label, over the stored targets as its residuals."""

    def apply(pg):
        fragment, targets = pg.graph._dest[pg.root]
        labels = {
            w: label if label is STAR else (_swap_sequent(label[0]), label[1])
            for w, label in fragment.labels().items()
        }
        return TreeNW(labels), targets

    return TranslationStep(GRZ, GRZ, apply, name="swap p0 p1")


GRZ_FILES = [
    path for path in sorted(CORPUS.glob("*.proof")) if parse_proof_file(path.read_text())[0] == GRZ.name
]


@pytest.mark.parametrize("path", GRZ_FILES, ids=[path.stem for path in GRZ_FILES])
def test_a_renaming_step_closes_and_lays_out_the_reference_unfolding(path):
    pg = parse_proof_file(path.read_text())[1]
    step = swap_step()
    closed = extend(step, pg, UnfoldBudget(1))
    assert isinstance(closed, ProofGraph)
    assert check_proof_graph(GRZ, closed).ok
    assert closed.root_sequent == _swap_sequent(pg.root_sequent) != pg.root_sequent
    for depth in DEPTHS:
        expected = reference_unfolding(step, pg, depth)
        assert layout(extend(step, pg, UnfoldBudget(depth), memo=False)) == expected, depth
        assert layout(unfold(closed.graph, closed.root, UnfoldBudget(depth))) == expected, depth
