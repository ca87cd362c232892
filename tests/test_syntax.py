import pytest
from hypothesis import given
from hypothesis import strategies as st

from nwproofs.grz import Atom, Bot, Box, Imp, Sequent
from nwproofs.syntax import (
    MAX_DEPTH,
    ParseError,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
)

formulas = st.recursive(
    st.sampled_from([Bot(), Atom(0), Atom(1), Atom(2)]),
    lambda sub: st.one_of(
        sub.map(Box),
        st.tuples(sub, sub).map(lambda ab: Imp(*ab)),
    ),
    max_leaves=12,
)


def test_box_binds_tighter_than_arrow():
    assert parse_formula("box p0 -> p0") == Imp(Box(Atom(0)), Atom(0))


def test_arrow_right_associative():
    assert parse_formula("p0 -> p1 -> p2") == Imp(Atom(0), Imp(Atom(1), Atom(2)))


def test_characteristic_axiom_parses():
    expected = Imp(
        Box(Imp(Box(Imp(Atom(0), Box(Atom(0)))), Atom(0))),
        Atom(0),
    )
    assert parse_formula("box(box(p0 -> box p0) -> p0) -> p0") == expected


def test_false_and_parens():
    assert parse_formula("false") == Bot()
    assert parse_formula("box (p0 -> p1)") == Box(Imp(Atom(0), Atom(1)))
    assert parse_formula("(p0)") == Atom(0)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_formula("p0 ->")
    with pytest.raises(ParseError):
        parse_formula("box")
    with pytest.raises(ParseError):
        parse_formula("p0 q")
    with pytest.raises(ParseError):
        parse_formula("(p0")


@given(formulas)
def test_formula_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(st.lists(formulas, max_size=3), st.lists(formulas, max_size=3))
def test_sequent_round_trip(ante, succ):
    s = Sequent.of(ante, succ)
    assert parse_sequent(print_sequent(s)) == s


def test_sequent_forms():
    assert print_sequent(Sequent.of([], [Atom(0)])) == "|- p0"
    assert print_sequent(Sequent.of([Atom(0)], [])) == "p0 |-"
    assert print_sequent(Sequent.of([], [])) == "|-"
    assert parse_sequent("p0, p0 |- p1").left_count(Atom(0)) == 2


def test_print_minimal_parens():
    assert print_formula(Imp(Box(Atom(0)), Atom(0))) == "box p0 -> p0"
    assert print_formula(Box(Imp(Atom(0), Atom(1)))) == "box (p0 -> p1)"
    assert print_formula(Imp(Imp(Atom(0), Atom(1)), Atom(2))) == "(p0 -> p1) -> p2"
    assert print_formula(Box(Box(Atom(0)))) == "box box p0"


def test_nesting_is_bounded():
    deepest = parse_formula("box " * MAX_DEPTH + "p0")
    assert parse_formula(print_formula(deepest)) == deepest
    assert parse_formula("(" * MAX_DEPTH + "p0" + ")" * MAX_DEPTH) == Atom(0)
    too_deep = [
        "box " * (MAX_DEPTH + 1) + "p0",
        "(" * 3000 + "p0" + ")" * 3000,
        " -> ".join(["p0"] * 600),
    ]
    for text in too_deep:
        with pytest.raises(ParseError, match="nested deeper"):
            parse_formula(text)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_sequent("box " * 600 + "p0 |- p0")
