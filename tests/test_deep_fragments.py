"""A fragment thousands of levels deep costs the same per node as a
shallow one: building it, checking it, translating it and eliminating
its cuts stay linear in its nodes, in memory and in time, whether it
has one glue point or one at every level."""

from __future__ import annotations

import gc
import tracemalloc
from typing import Callable

from nwproofs.calculus import ProofGraph, check_proof_graph
from nwproofs.coalgebra import Coalgebra, UnfoldBudget
from nwproofs.grz import GRZ, GRZ_CUT, Atom, Box, Sequent, cut_elim
from nwproofs.store import PLink, PNode, flatten
from nwproofs.translate import extend, identity_step


def refl_chain(levels: int) -> PNode:
    """One fragment of ``levels`` nodes: level d proves ``p0`` from d
    copies of ``p0`` and ``box p0`` by refl, and the top level by ax."""
    p = Atom(0)
    sequents = [Sequent.of([Box(p)], [p])]
    for _ in range(levels - 1):
        sequents.append(sequents[-1].with_left(p))
    node = PNode(sequents[-1], "ax")
    for sequent in reversed(sequents[:-1]):
        node = PNode(sequent, "refl", (node,))
    return node


def _chain_graph(node: PNode) -> ProofGraph:
    return ProofGraph(Coalgebra({"s0": flatten(node)}), "s0")


def box_comb(levels: int) -> tuple[PNode, PNode]:
    """One fragment of ``levels`` box nodes, and the proof it glues to.

    Level i concludes ``box q |- box q^i, q^(levels - i)``.  Its box node
    has level i - 1 as premise 0 and glues premise 1 to a state ``b``
    proving ``box q |- q``; level 0 is proved by refl over ax.  Each
    glue point sits one level deeper than the one before it."""
    q = Atom(1)
    base = Sequent.of([Box(q)], [])

    def level(i: int) -> Sequent:
        sequent = base.with_right(Box(q), i) if i else base
        return sequent.with_right(q, levels - i) if i < levels else sequent

    node = PNode(level(0), "refl", (PNode(level(0).with_left(q), "ax"),))
    for i in range(1, levels + 1):
        node = PNode(level(i), "box", (node, PLink("b")))
    b = PNode(Sequent.of([Box(q)], [q]), "refl", (PNode(Sequent.of([q, Box(q)], [q]), "ax"),))
    return node, b


def _peak_bytes_per_node(work: Callable[[], object], nodes: int) -> float:
    """The tracemalloc peak of ``work()``, per node.  A full collection
    first empties the interpreter's free lists, whatever earlier tests
    left in them: an object taken from a free list is never traced, so up
    to 2,000 tuples of each size would come free to whichever measurement
    ran first."""
    gc.collect()
    tracemalloc.start()
    try:
        work()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / nodes


def _check_chain(levels: int) -> float:
    """Building the chain through ``flatten`` and checking it under Grz+cut."""
    node = refl_chain(levels)

    def work() -> None:  # a check that fails early would allocate little
        assert check_proof_graph(GRZ_CUT, _chain_graph(node)).ok

    return _peak_bytes_per_node(work, levels)


def _comb_outputs(comb: PNode, b: PNode) -> list[ProofGraph]:
    """The comb built through ``flatten``, checked under Grz+cut, and
    translated by the identity step and by cut elimination; each output
    closes on the two states of its input."""
    pg = ProofGraph(Coalgebra({"s0": flatten(comb), "b": flatten(b)}), "s0")
    assert check_proof_graph(GRZ_CUT, pg).ok
    outs = [extend(identity_step(GRZ_CUT), pg, UnfoldBudget(4)), cut_elim(pg)]
    for out in outs:
        assert isinstance(out, ProofGraph) and len(out.states) == 2
    return outs


def _run_comb(levels: int) -> float:
    comb, b = box_comb(levels)
    return _peak_bytes_per_node(lambda: _comb_outputs(comb, b), levels)


def test_deep_fragment_memory_per_node_stays_flat():
    # a node addressed by a word as long as its depth doubles this ratio
    for run in (_check_chain, _run_comb):
        shallow = run(2_000)
        deep = run(4_000)
        assert deep <= 1.2 * shallow, (run.__name__, shallow, deep)


def test_a_glue_point_at_every_level_closes_on_two_states():
    comb, b = box_comb(2_000)
    for out in _comb_outputs(comb, b):
        assert check_proof_graph(GRZ, out).ok
        assert len(out.fragment(out.root)) == 2 * 2_000 + 2


def test_deep_fragment_goes_through_cut_elimination():
    pg = _chain_graph(refl_chain(3_000))
    out = cut_elim(pg)
    assert isinstance(out, ProofGraph) and out.root_sequent == pg.root_sequent
    assert check_proof_graph(GRZ, out).ok
    assert len(out.fragment(out.root)) == 3_000
