"""Finite coalgebras: states destructing to a fragment plus successors.

A coalgebra stores at each state a finite tree with star leaves and a
tuple of target states, one per star leaf in leaf order.  Regular
infinite trees are exactly what these machines generate.  This module
is the part the checker walks; the infinite object itself only ever
exists through :func:`~nwproofs.fftree.unfold`, which is depth- and
size-budgeted, and bisimulation lives with its one kernel caller in
:mod:`nwproofs.store`.

States are walked in one order everywhere, :func:`root_first_order`:
breadth first, each state's successors in leaf order.  Reachability,
canonical keys, the checker, the store and the file format all read it.
"""

from __future__ import annotations

from typing import Container, Mapping

from . import _forwarder
from .trees import TreeNW, Word, format_word

StateId = str
Destructor = tuple[TreeNW, tuple[StateId, ...]]  # a fragment, and a target per star leaf


class CoalgebraError(ValueError):
    pass


class UnknownState(CoalgebraError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class BudgetError(ValueError):
    """A budget bound is out of range."""


class Coalgebra:
    """Immutable map from state ids to (fragment, targets) destructors."""

    __slots__ = ("_dest",)

    def __init__(self, destructors: Mapping[StateId, Destructor]):
        self._dest = {
            state: validated_destructor(state, frag, targets, destructors)
            for state, (frag, targets) in destructors.items()
        }

    @classmethod
    def view(cls, table: dict[StateId, Destructor]) -> "Coalgebra":
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
        """The state's targets keyed by their star leaves' words."""
        self._check(state)
        frag, targets = self._dest[state]
        return dict(zip(frag.leaf_order, targets))

    def destructors(self) -> dict[StateId, Destructor]:
        return dict(self._dest)

    def _check(self, state: StateId) -> None:
        if state not in self._dest:
            raise UnknownState(f"unknown state {state!r}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coalgebra) and self._dest == other._dest

    def __repr__(self) -> str:
        return f"Coalgebra({sorted(self._dest)})"


def validated_destructor(
    state: StateId, frag: TreeNW, targets: tuple[StateId, ...], known: Container[StateId]
) -> Destructor:
    """A state's destructor, once its targets are known to be a tuple of
    ``known`` states, one per star leaf of its fragment."""
    if not isinstance(targets, tuple) or len(targets) != len(frag._stars):
        raise CoalgebraError(f"state {state!r} needs a tuple of one target per star leaf")
    for i, target in enumerate(targets):
        if target not in known:
            leaf = format_word(frag.leaf_order[i])
            raise UnknownState(f"state {state!r} links {leaf} to unknown state {target!r}")
    return frag, targets


def root_first_order(
    coalg: Coalgebra, state: StateId, skip: Container[StateId] = ()
) -> list[StateId]:
    """States reachable from ``state``, breadth first and each state's
    successors in leaf order; states in ``skip`` are neither listed nor
    entered."""
    coalg._check(state)
    if state in skip:
        return []
    order = [state]
    seen = {state}
    for s in order:
        for t in coalg._dest[s][1]:
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
