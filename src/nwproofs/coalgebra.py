"""Finite coalgebras: states destructing to a fragment plus leaf links.

A coalgebra stores at each state a finite tree with star leaves and a
total map from those leaves back to states.  Regular infinite trees are
exactly what these machines generate.  This module is the part the
checker walks; the infinite object itself only ever exists through
:func:`~nwproofs.fftree.unfold`, which is depth- and size-budgeted, and
bisimulation lives with its one kernel caller in :mod:`nwproofs.store`.

States are walked in one order everywhere, :func:`root_first_order`:
breadth first from a root, each state's successors in the order of
their leaf words.  Reachability, canonical keys, the graph checker, the
state store and the printed file format all read it.
"""

from __future__ import annotations

from typing import Container, Mapping

from . import _forwarder
from .trees import TreeNW, Word, format_word

StateId = str
Destructor = tuple[TreeNW, Mapping[Word, StateId]]


class CoalgebraError(ValueError):
    pass


class UnknownState(CoalgebraError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class BudgetError(ValueError):
    """A budget bound is out of range."""


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
        frag, links = coalg._dest[s]
        for w in frag.leaf_order:
            t = links[w]
            if t not in seen and t not in skip:
                seen.add(t)
                order.append(t)
    return order


def reachable(coalg: Coalgebra, state: StateId) -> set[StateId]:
    return set(root_first_order(coalg, state))


# The benchmark's workloads and tracer read these five names from here.
_FORWARDED = {
    "Unfolding": "fftree", "UnfoldBudget": "fftree", "unfold": "fftree",
    "bisim_minimize": "store", "canonical_form": "store",
}


__getattr__ = _forwarder(globals(), _FORWARDED)
