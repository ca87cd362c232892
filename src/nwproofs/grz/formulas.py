"""Modal formulas over bottom, implication, and box; multiset sequents.

Multisets are kept as association lists sorted under a total structural
order on formulas, giving canonical, hashable sequents with linear-time
union, difference, and intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    def __repr__(self) -> str:
        return "false"


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    index: int

    def __repr__(self) -> str:
        return f"p{self.index}"


@dataclass(frozen=True, slots=True)
class Imp(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} -> {self.right!r})"


@dataclass(frozen=True, slots=True)
class Box(Formula):
    body: Formula

    def __repr__(self) -> str:
        return f"box {self.body!r}"


BOT = Bot()


def formula_key(f: Formula) -> tuple:
    """Total structural order used to canonicalize multisets."""
    if isinstance(f, Bot):
        return (0,)
    if isinstance(f, Atom):
        return (1, f.index)
    if isinstance(f, Box):
        return (2, formula_key(f.body))
    if isinstance(f, Imp):
        return (3, formula_key(f.left), formula_key(f.right))
    raise TypeError(f"not a formula: {f!r}")


def rank(f: Formula) -> int:
    """Connective count; strictly drops from a box or implication to its parts."""
    if isinstance(f, (Bot, Atom)):
        return 0
    if isinstance(f, Box):
        return 1 + rank(f.body)
    if isinstance(f, Imp):
        return 1 + rank(f.left) + rank(f.right)
    raise TypeError(f"not a formula: {f!r}")


def size(f: Formula) -> int:
    if isinstance(f, (Bot, Atom)):
        return 1
    if isinstance(f, Box):
        return 1 + size(f.body)
    return 1 + size(f.left) + size(f.right)


def subformulas(f: Formula) -> set[Formula]:
    out = {f}
    if isinstance(f, Box):
        out |= subformulas(f.body)
    elif isinstance(f, Imp):
        out |= subformulas(f.left) | subformulas(f.right)
    return out


# -- multisets as sorted (formula, count) tuples -----------------------

Mset = tuple[tuple[Formula, int], ...]

EMPTY: Mset = ()


def mset(formulas: Iterable[Formula] = ()) -> Mset:
    counts: dict[Formula, int] = {}
    for f in formulas:
        counts[f] = counts.get(f, 0) + 1
    return tuple(sorted(counts.items(), key=lambda kv: formula_key(kv[0])))


def mcount(m: Mset, f: Formula) -> int:
    for g, n in m:
        if g == f:
            return n
    return 0


def mtotal(m: Mset) -> int:
    return sum(n for _, n in m)


def mformulas(m: Mset) -> list[Formula]:
    return [f for f, _ in m]


def mexpand(m: Mset) -> list[Formula]:
    out = []
    for f, n in m:
        out.extend([f] * n)
    return out


def madd(m: Mset, f: Formula, n: int = 1) -> Mset:
    counts = dict(m)
    counts[f] = counts.get(f, 0) + n
    return tuple(sorted(counts.items(), key=lambda kv: formula_key(kv[0])))


def mremove(m: Mset, f: Formula, n: int = 1) -> Mset:
    have = mcount(m, f)
    if have < n:
        raise KeyError(f"{f!r} occurs {have} times, cannot remove {n}")
    out = [(g, k if g != f else k - n) for g, k in m]
    return tuple((g, k) for g, k in out if k > 0)


def munion(a: Mset, b: Mset) -> Mset:
    counts = dict(a)
    for f, n in b:
        counts[f] = counts.get(f, 0) + n
    return tuple(sorted(counts.items(), key=lambda kv: formula_key(kv[0])))


def mdiff(a: Mset, b: Mset) -> Mset:
    """Per-formula truncated difference."""
    bmap = dict(b)
    return tuple((f, n - bmap.get(f, 0)) for f, n in a if n - bmap.get(f, 0) > 0)


def minter(a: Mset, b: Mset) -> Mset:
    bmap = dict(b)
    return tuple((f, min(n, bmap[f])) for f, n in a if f in bmap and min(n, bmap[f]) > 0)


def msubset(a: Mset, b: Mset) -> bool:
    bmap = dict(b)
    return all(n <= bmap.get(f, 0) for f, n in a)


@dataclass(frozen=True, slots=True)
class Sequent:
    """An ordered pair of formula multisets (antecedent, succedent)."""

    ante: Mset = EMPTY
    succ: Mset = EMPTY

    @staticmethod
    def of(ante: Iterable[Formula] = (), succ: Iterable[Formula] = ()) -> "Sequent":
        return Sequent(mset(ante), mset(succ))

    def with_left(self, f: Formula, n: int = 1) -> "Sequent":
        return Sequent(madd(self.ante, f, n), self.succ)

    def with_right(self, f: Formula, n: int = 1) -> "Sequent":
        return Sequent(self.ante, madd(self.succ, f, n))

    def drop_left(self, f: Formula, n: int = 1) -> "Sequent":
        return Sequent(mremove(self.ante, f, n), self.succ)

    def drop_right(self, f: Formula, n: int = 1) -> "Sequent":
        return Sequent(self.ante, mremove(self.succ, f, n))

    def left_count(self, f: Formula) -> int:
        return mcount(self.ante, f)

    def right_count(self, f: Formula) -> int:
        return mcount(self.succ, f)

    def union(self, other: "Sequent") -> "Sequent":
        return Sequent(munion(self.ante, other.ante), munion(self.succ, other.succ))

    def diff(self, other: "Sequent") -> "Sequent":
        return Sequent(mdiff(self.ante, other.ante), mdiff(self.succ, other.succ))

    def contains(self, other: "Sequent") -> bool:
        return msubset(other.ante, self.ante) and msubset(other.succ, self.succ)

    @property
    def total(self) -> int:
        return mtotal(self.ante) + mtotal(self.succ)

    def __repr__(self) -> str:
        left = ", ".join(repr(f) for f in mexpand(self.ante))
        right = ", ".join(repr(f) for f in mexpand(self.succ))
        return f"{left} |- {right}".strip()


EMPTY_SEQUENT = Sequent()
