"""A fragment thousands of levels deep costs the same per node as a
shallow one: building it, checking it and eliminating its cuts stay
linear in its nodes, in memory and in time."""

from __future__ import annotations

import gc
import tracemalloc

from nwproofs.calculus import ProofGraph, check_proof_graph
from nwproofs.coalgebra import Coalgebra
from nwproofs.grz import GRZ, GRZ_CUT, Atom, Box, Sequent, cut_elim
from nwproofs.store import PNode, flatten


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


def _peak_bytes_per_node(levels: int) -> float:
    """The tracemalloc peak of building the chain through ``flatten`` and
    checking it under Grz+cut, per node.  A full collection first empties
    the interpreter's free lists, whatever earlier tests left in them: an
    object taken from a free list is never traced, so up to 2,000 tuples
    of each size would come free to whichever measurement ran first."""
    node = refl_chain(levels)
    gc.collect()
    tracemalloc.start()
    try:
        assert check_proof_graph(GRZ_CUT, _chain_graph(node)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / levels


def test_deep_fragment_memory_per_node_stays_flat():
    shallow = _peak_bytes_per_node(2_000)
    deep = _peak_bytes_per_node(4_000)
    # a node addressed by a word as long as its depth doubles this ratio
    assert deep <= 1.2 * shallow, (shallow, deep)


def test_deep_fragment_goes_through_cut_elimination():
    pg = _chain_graph(refl_chain(3_000))
    out = cut_elim(pg)
    assert isinstance(out, ProofGraph) and out.root_sequent == pg.root_sequent
    assert check_proof_graph(GRZ, out).ok
    assert len(out.fragment(out.root)) == 3_000
