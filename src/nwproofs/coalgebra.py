"""Finite coalgebras: states destructing to a fragment plus leaf links.

A coalgebra stores at each state a finite tree with star leaves and a
total map from those leaves back to states.  Regular infinite trees are
exactly what these machines generate; the infinite object itself only
ever exists through :func:`unfold`, which is depth- and size-budgeted.
Its layout is :func:`unfold_by`, which takes any destructor, so a
translation that is never closed into a machine
(:mod:`nwproofs.translate`) unfolds through the same code.

States are walked in one order everywhere, :func:`root_first_order`:
breadth first from a root, each state's successors in the order of
their leaf words.  Reachability, canonical keys, the graph checker, the
state store and the printed file format all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Container, Iterable, Mapping

from .fftree import FFTree
from .trees import (
    EPSILON,
    RootPath,
    TreeNW,
    Truncation,
    Word,
    format_word,
)

StateId = str
Destructor = tuple[TreeNW, Mapping[Word, StateId]]


class CoalgebraError(ValueError):
    pass


class UnknownState(CoalgebraError):
    pass


class NotARootPath(CoalgebraError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class BudgetError(ValueError):
    """A budget bound is out of range."""


@dataclass(frozen=True)
class UnfoldBudget:
    """Bounds for unfolding: layers of fragments, and total tree nodes."""

    max_depth: int
    max_nodes: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_depth < 1 or self.max_nodes < 1:
            raise BudgetError("budget bounds must be at least 1")


class Coalgebra:
    """Immutable map from state ids to (fragment, links) destructors."""

    __slots__ = ("_dest",)

    def __init__(self, destructors: Mapping[StateId, Destructor]):
        self._dest = {
            state: validated_destructor(state, frag, links, destructors)
            for state, (frag, links) in destructors.items()
        }

    @classmethod
    def view(cls, table: dict[StateId, tuple[TreeNW, dict[Word, StateId]]]) -> "Coalgebra":
        """A coalgebra over a live table, shared rather than copied.

        The owner of ``table`` validates each destructor as it adds it
        and never changes or removes one, so the view stays a valid
        coalgebra while the table grows.
        """
        coalg = object.__new__(cls)
        coalg._dest = table
        return coalg

    def __contains__(self, state: object) -> bool:
        return state in self._dest

    @property
    def states(self) -> frozenset[StateId]:
        return frozenset(self._dest)

    def fragment(self, state: StateId) -> TreeNW:
        self._check(state)
        return self._dest[state][0]

    def links(self, state: StateId) -> dict[Word, StateId]:
        self._check(state)
        return dict(self._dest[state][1])

    def destructors(self) -> dict[StateId, tuple[TreeNW, dict[Word, StateId]]]:
        return {s: (f, dict(l)) for s, (f, l) in self._dest.items()}

    def _check(self, state: StateId) -> None:
        if state not in self._dest:
            raise UnknownState(f"unknown state {state!r}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coalgebra) and self._dest == other._dest

    def __hash__(self):
        raise TypeError("use canonical_form for hashing coalgebras")

    def __repr__(self) -> str:
        return f"Coalgebra({sorted(self._dest)})"


def validated_destructor(
    state: StateId, frag: TreeNW, links: Mapping[Word, StateId], known: Container[StateId]
) -> tuple[TreeNW, dict[Word, StateId]]:
    """A state's destructor with its links copied, once they are known to
    cover its star leaves exactly and to lead only to ``known`` states."""
    links = dict(links)
    if set(links) != set(frag.nw_leaves):
        raise CoalgebraError(f"links of state {state!r} do not cover its star leaves exactly")
    for w, target in links.items():
        if target not in known:
            raise UnknownState(
                f"state {state!r} links {format_word(w)} to unknown state {target!r}"
            )
    return frag, links


def is_root_path(coalg: Coalgebra, state: StateId, path: RootPath) -> bool:
    """Does the sequence of leaf words trace through the machine?"""
    try:
        subelement(coalg, state, path)
    except NotARootPath:
        return False
    return True


def subelement(coalg: Coalgebra, state: StateId, path: RootPath) -> StateId:
    """The state reached by following ``path`` from ``state``."""
    coalg._check(state)
    for w in path:
        frag, links = coalg._dest[state]
        if w not in frag.nw_leaves:
            raise NotARootPath(f"{format_word(w)} is not a star leaf of state {state!r}")
        state = links[w]
    return state


def fragment_at(coalg: Coalgebra, state: StateId, path: RootPath) -> TreeNW:
    return coalg.fragment(subelement(coalg, state, path))


@dataclass(frozen=True)
class Unfolding:
    """A depth-truncated unfolding plus where it was cut off."""

    tree: FFTree
    truncations: Mapping[Word, StateId]

    @property
    def complete_nodes(self) -> frozenset[Word]:
        return self.tree.nodes - frozenset(self.truncations)


def unfold(coalg: Coalgebra, state: StateId, budget: UnfoldBudget) -> Unfolding:
    """Lay out ``budget.max_depth`` layers of the machine's fragments as
    one tree; see :func:`unfold_by`."""
    coalg._check(state)
    return unfold_by(lambda s, at: coalg._dest[s], state, budget, lambda s: s)


def unfold_by(
    destruct: Callable[[Any, Word], tuple[TreeNW, Mapping[Word, Any]]],
    root: Any,
    budget: UnfoldBudget,
    name: Callable[[Any], str],
) -> Unfolding:
    """Lay out ``budget.max_depth`` layers of fragments as one tree.

    ``destruct(x, at)`` gives the fragment of a value placed at word
    ``at`` and its successor per star leaf.  Layer k holds the fragments
    reached by root paths of length k; beyond the last layer each
    pending glue point becomes a truncation leaf carrying its value's
    ``name`` and root label, taken in frontier order.
    """
    labels: dict[Word, Any] = {}
    root_of: dict[Word, Word] = {}
    truncations: dict[Word, str] = {}
    frontier: list[tuple[Word, Any]] = [(EPSILON, root)]
    for _ in range(budget.max_depth):
        next_frontier: list[tuple[Word, Any]] = []
        for base, x in frontier:
            frag, succ = destruct(x, base)
            for u in frag.proper_nodes:
                labels[base + u] = frag.label(u)
                root_of[base + u] = base
            if len(labels) > budget.max_nodes:
                raise BudgetExceeded(f"unfolding exceeds {budget.max_nodes} nodes")
            for w in sorted(frag.nw_leaves):
                next_frontier.append((base + w, succ[w]))
        frontier = next_frontier
    for base, x in frontier:
        truncations[base] = name(x)
        labels[base] = Truncation(truncations[base], destruct(x, base)[0].label(EPSILON))
        root_of[base] = base
        if len(labels) > budget.max_nodes:
            raise BudgetExceeded(f"unfolding exceeds {budget.max_nodes} nodes")
    return Unfolding(FFTree(labels, root_of, allow_truncation=True), truncations)


def root_first_order(
    coalg: Coalgebra, state: StateId, skip: Container[StateId] = ()
) -> list[StateId]:
    """States reachable from ``state``, breadth first and each state's
    successors in leaf-word order; states in ``skip`` are neither listed
    nor entered."""
    coalg._check(state)
    if state in skip:
        return []
    order = [state]
    seen = {state}
    for s in order:
        links = coalg._dest[s][1]
        for w in sorted(links):
            t = links[w]
            if t not in seen and t not in skip:
                seen.add(t)
                order.append(t)
    return order


def reachable(coalg: Coalgebra, state: StateId) -> set[StateId]:
    return set(root_first_order(coalg, state))


def restrict(coalg: Coalgebra, states: Iterable[StateId]) -> Coalgebra:
    keep = set(states)
    return Coalgebra({s: d for s, d in coalg.destructors().items() if s in keep})


def bisim_minimize(coalg: Coalgebra) -> tuple[Coalgebra, dict[StateId, StateId]]:
    """Quotient by the coarsest bisimulation.

    States are identified iff their fragments are equal and their links
    lead to pairwise identified states; the refinement is seeded by
    fragment equality.  Returns the quotient and the renaming map.
    """
    states = sorted(coalg.states)
    block: dict[StateId, int] = {}
    by_frag: dict[Any, int] = {}
    for s in states:
        # a fragment hashes once, where its key tuple would hash every label
        block[s] = by_frag.setdefault(coalg._dest[s][0], len(by_frag))
    while True:
        sigs: dict[tuple, int] = {}
        new_block: dict[StateId, int] = {}
        for s in states:
            frag, links = coalg._dest[s]
            sig = (block[s], tuple((w, block[links[w]]) for w in sorted(links)))
            new_block[s] = sigs.setdefault(sig, len(sigs))
        if new_block == block:
            break
        block = new_block
    members: dict[int, list[StateId]] = {}
    for s in states:
        members.setdefault(block[s], []).append(s)
    name = {b: min(ms) for b, ms in members.items()}
    renaming = {s: name[block[s]] for s in states}
    dest = {}
    for b, ms in members.items():
        rep = min(ms)
        frag, links = coalg._dest[rep]
        dest[name[b]] = (frag, {w: renaming[t] for w, t in links.items()})
    return Coalgebra(dest), renaming


def canonical_form(coalg: Coalgebra, state: StateId) -> tuple:
    """A hashable key equal for exactly the bisimilar rooted machines.

    Minimizes the part reachable from ``state`` and serializes it in
    a deterministic root-first order, so the key doubles as a memo key
    for corecursion and as an isomorphism test.
    """
    small, renaming = bisim_minimize(restrict(coalg, reachable(coalg, state)))
    order = root_first_order(small, renaming[state])
    index = {s: i for i, s in enumerate(order)}
    return tuple(
        (small._dest[s][0].key, tuple((w, index[t]) for w, t in sorted(small._dest[s][1].items())))
        for s in order
    )
