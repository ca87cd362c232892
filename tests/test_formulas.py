"""Hash-consed formulas and the multiset operations on them.

Formulas are built from plain nested tuples, so structural equality is
decided independently of the formula classes; the multiset operations
are compared with a ``collections.Counter`` model sorted by the
structural key written out below.
"""

import copy
import pickle
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nwproofs.grz.formulas import (
    BOT,
    Atom,
    Bot,
    Box,
    Imp,
    Sequent,
    formula_key,
    madd,
    mcount,
    mdiff,
    minter,
    mremove,
    mset,
    msubset,
    munion,
)
from nwproofs.syntax import parse_formula, parse_sequent, print_formula, print_sequent

# a formula as a plain value: ("bot",), ("atom", i), ("box", t) or ("imp", t, u)
shapes = st.recursive(
    st.one_of(st.just(("bot",)), st.integers(0, 3).map(lambda i: ("atom", i))),
    lambda sub: st.one_of(
        sub.map(lambda t: ("box", t)),
        st.tuples(sub, sub).map(lambda tu: ("imp", *tu)),
    ),
    max_leaves=8,
)


def build(shape):
    tag = shape[0]
    if tag == "bot":
        return Bot()
    if tag == "atom":
        return Atom(shape[1])
    if tag == "box":
        return Box(build(shape[1]))
    return Imp(build(shape[1]), build(shape[2]))


formulas = shapes.map(build)
formula_lists = st.lists(formulas, max_size=6)


def reference_key(f) -> tuple:
    """The structural order key, recomputed down the whole formula."""
    if isinstance(f, Bot):
        return (0,)
    if isinstance(f, Atom):
        return (1, f.index)
    if isinstance(f, Box):
        return (2, reference_key(f.body))
    return (3, reference_key(f.left), reference_key(f.right))


def model(counts: Counter) -> tuple:
    return tuple(
        sorted(((f, n) for f, n in counts.items() if n > 0), key=lambda kv: reference_key(kv[0]))
    )


# -- interning -------------------------------------------------------------


@given(shapes, shapes)
def test_equal_structure_is_the_same_object(s, t):
    assert build(s) is build(s)
    assert (build(s) is build(t)) == (s == t)
    assert (build(s) == build(t)) == (s == t)
    assert (hash(build(s)) == hash(build(t))) or s != t


def test_constructors_return_the_interned_formula():
    p, q = Atom(0), Atom(1)
    assert Imp(p, q) is Imp(Atom(0), Atom(1))
    assert Box(Imp(p, q)) is Box(Imp(p, q))
    assert Bot() is BOT
    assert Imp(p, q) is not Imp(q, p)


@given(formulas)
def test_parsed_formulas_are_the_interned_objects(f):
    assert parse_formula(print_formula(f)) is f
    s = parse_sequent(print_sequent(Sequent.of([f, f], [f])))
    assert all(g is f for g, _ in s.ante + s.succ)


def test_parts_must_be_formulas():
    with pytest.raises(TypeError):
        Imp(Atom(0), "p1")
    with pytest.raises(TypeError):
        Box(None)
    with pytest.raises(TypeError):
        Atom("0")
    with pytest.raises(TypeError):
        formula_key(("p0",))


@given(formulas)
def test_copies_and_pickles_return_the_interned_object(f):
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, (f,)])[1][0] is f
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f


def test_formulas_are_immutable():
    p = Atom(0)
    for f, attr in ((p, "index"), (Box(p), "body"), (Imp(p, p), "left"), (Bot(), "extra")):
        with pytest.raises(AttributeError):
            setattr(f, attr, p)
        with pytest.raises(AttributeError):
            delattr(f, attr)
    assert p.index == 0


# -- the stored order key ----------------------------------------------------


@given(formulas)
def test_formula_key_is_the_structural_key(f):
    assert formula_key(f) == reference_key(f)


@given(formula_lists)
def test_sorting_by_key_is_the_structural_order(fs):
    assert sorted(fs, key=formula_key) == sorted(fs, key=reference_key)


# -- multisets against a Counter model -------------------------------------


@given(formula_lists, formulas)
def test_mset_and_mcount(fs, f):
    assert mset(fs) == model(Counter(fs))
    assert mcount(mset(fs), f) == Counter(fs)[f]


@given(formula_lists, formulas, st.integers(1, 3))
def test_madd(fs, f, n):
    assert madd(mset(fs), f, n) == model(Counter(fs) + Counter({f: n}))


@given(formula_lists, formulas, st.integers(1, 3))
def test_mremove(fs, f, n):
    counts = Counter(fs)
    if counts[f] >= n:
        assert mremove(mset(fs), f, n) == model(counts - Counter({f: n}))
    else:
        with pytest.raises(KeyError):
            mremove(mset(fs), f, n)


@given(formula_lists, formula_lists)
def test_binary_operations(a, b):
    ca, cb = Counter(a), Counter(b)
    assert munion(mset(a), mset(b)) == model(ca + cb)
    assert mdiff(mset(a), mset(b)) == model(ca - cb)
    assert minter(mset(a), mset(b)) == model(ca & cb)
    assert msubset(mset(a), mset(b)) == all(n <= cb[f] for f, n in ca.items())


# -- sequents are values ------------------------------------------------------


@given(formula_lists, formula_lists)
def test_sequents_compare_and_hash_by_value(a, b):
    s = Sequent.of(a, b)
    t = Sequent.of(list(reversed(a)), list(reversed(b)))
    assert s == t and hash(s) == hash(t)
    assert copy.copy(s) == s and copy.deepcopy(s) == s
    assert pickle.loads(pickle.dumps(s)) == s
    assert hash(pickle.loads(pickle.dumps(s))) == hash(s)
    with pytest.raises(AttributeError):
        s.ante = ()
