"""Modal formulas over bottom, implication, and box; multiset sequents.

Formulas are hash-consed (after Filliâtre and Conchon, "Type-safe
modular hash-consing", 2006): each structurally distinct formula exists
once, in one module-level table, so equality is identity and so is the
hash.  Each formula stores its structural order key, computed once at
construction from its parts' keys; :func:`formula_key` returns it.
Formulas are immutable, and copying or unpickling one returns the
interned object.

Multisets are kept as association lists sorted under that key, giving
canonical, hashable sequents with linear-time union, difference, and
intersection; adding or removing a formula is one scan by identity.
Sequents are plain values that cache their hash.  They are not interned:
a global sequent table keeps every explored sequent alive, which costs
proof search more memory than the saved hashing is worth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


class Formula:
    __slots__ = ("_key",)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        # copies and unpickled formulas are built by the constructor, so
        # they come back as the interned object
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)


# handle -> formula: ``(Bot,)``, ``(Atom, index)``, ``(Box, id(body))`` or
# ``(Imp, id(left), id(right))``; the table keeps every part alive, so
# the ids in its handles stay unique
_TABLE: dict[tuple, Formula] = {}


def _intern(cls: type, handle: tuple, key: tuple, **parts: object) -> Formula:
    f = object.__new__(cls)
    for name, value in parts.items():
        object.__setattr__(f, name, value)
    object.__setattr__(f, "_key", key)
    _TABLE[handle] = f
    return f


def _require(*parts: object) -> None:
    for part in parts:
        if not isinstance(part, Formula):
            raise TypeError(f"not a formula: {part!r}")


class Bot(Formula):
    __slots__ = ()

    def __new__(cls) -> Bot:
        f = _TABLE.get((Bot,))
        return f if f is not None else _intern(cls, (Bot,), (0,))

    def __repr__(self) -> str:
        return "false"


class Atom(Formula):
    __slots__ = ("index",)
    index: int

    def __new__(cls, index: int) -> Atom:
        f = _TABLE.get((Atom, index))
        if f is not None:
            return f
        if not isinstance(index, int):
            raise TypeError(f"atom index must be an int, not {index!r}")
        return _intern(cls, (Atom, index), (1, index), index=index)

    def __repr__(self) -> str:
        return f"p{self.index}"


class Imp(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula) -> Imp:
        handle = (Imp, id(left), id(right))
        f = _TABLE.get(handle)
        if f is not None:
            return f
        _require(left, right)
        return _intern(cls, handle, (3, left._key, right._key), left=left, right=right)

    def __repr__(self) -> str:
        return f"({self.left!r} -> {self.right!r})"


class Box(Formula):
    __slots__ = ("body",)
    body: Formula

    def __new__(cls, body: Formula) -> Box:
        handle = (Box, id(body))
        f = _TABLE.get(handle)
        if f is not None:
            return f
        _require(body)
        return _intern(cls, handle, (2, body._key), body=body)

    def __repr__(self) -> str:
        return f"box {self.body!r}"


BOT = Bot()


def formula_key(f: Formula) -> tuple:
    """Total structural order used to canonicalize multisets: ``(0,)``
    for bottom, ``(1, i)`` for ``p<i>``, ``(2, key(body))`` for a box and
    ``(3, key(left), key(right))`` for an implication."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return f._key


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


def _entry_key(entry: tuple[Formula, int]) -> tuple:
    return entry[0]._key


def mset(formulas: Iterable[Formula] = ()) -> Mset:
    counts: dict[Formula, int] = {}
    for f in formulas:
        counts[f] = counts.get(f, 0) + 1
    return tuple(sorted(counts.items(), key=_entry_key))


def mcount(m: Mset, f: Formula) -> int:
    for g, n in m:
        if g is f:
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
    """``m`` with ``n`` more copies of ``f``: one scan to ``f``'s key position."""
    key = f._key
    for i, (g, k) in enumerate(m):
        if g is f:
            return m[:i] + ((f, k + n),) + m[i + 1 :]
        if key < g._key:
            return m[:i] + ((f, n),) + m[i:]
    return m + ((f, n),)


def mremove(m: Mset, f: Formula, n: int = 1) -> Mset:
    for i, (g, k) in enumerate(m):
        if g is f:
            break
    else:
        i, k = len(m), 0
    if k < n:
        raise KeyError(f"{f!r} occurs {k} times, cannot remove {n}")
    rest = m[i + 1 :]
    return m[:i] + ((f, k - n),) + rest if k > n else m[:i] + rest


def munion(a: Mset, b: Mset) -> Mset:
    counts = dict(a)
    for f, n in b:
        counts[f] = counts.get(f, 0) + n
    return tuple(sorted(counts.items(), key=_entry_key))


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
    _hash: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ante, self.succ))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self) -> tuple:
        return Sequent, (self.ante, self.succ)

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
