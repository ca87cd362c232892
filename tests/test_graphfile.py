import pytest

from grzlib import (
    atomic_cut_graph,
    ax_graph,
    box_step_graph,
    boxed_context_cut_graph,
    grz_axiom_graph,
    self_loop_graph,
    weakening_part_cut_graph,
)
from nwproofs.commands import print_proof_file, to_dot
from nwproofs.graphfile import GraphFileError, parse_proof_file
from nwproofs.search import generate_corpus

ALL = [
    ("grz", ax_graph()),
    ("grz", box_step_graph()),
    ("grz", self_loop_graph()),
    ("grz", grz_axiom_graph()),
    ("grz+cut", atomic_cut_graph()),
    ("grz+cut", weakening_part_cut_graph()),
    ("grz+cut", boxed_context_cut_graph()),
]


def test_round_trip_equals_original():
    for name, pg in ALL:
        text = print_proof_file(pg, name)
        name2, back = parse_proof_file(text)
        assert name2 == name
        assert back.root == pg.root
        assert back.graph == pg.graph


def test_round_trip_on_generated_corpus():
    for pg in generate_corpus(11, 8):
        text = print_proof_file(pg, "grz+cut")
        _, back = parse_proof_file(text)
        assert back.graph == pg.graph and back.root == pg.root


def test_printing_is_canonical():
    for name, pg in ALL:
        text = print_proof_file(pg, name)
        parsed_name, parsed = parse_proof_file(text)
        assert print_proof_file(parsed, parsed_name) == text


def test_parse_errors():
    with pytest.raises(GraphFileError):
        parse_proof_file("root s0\nstate s0\n  p0 |- p0 : ax\n")  # no calculus
    with pytest.raises(GraphFileError):
        parse_proof_file("calculus grz\nstate s0\n  p0 |- p0 : ax\n")  # no root
    with pytest.raises(GraphFileError):
        parse_proof_file("calculus grz\nroot s1\nstate s0\n  p0 |- p0 : ax\n")
    with pytest.raises(GraphFileError):
        parse_proof_file("calculus nope\nroot s0\nstate s0\n  p0 |- p0 : ax\n")
    with pytest.raises(GraphFileError):
        parse_proof_file(
            "calculus grz\nroot s0\nstate s0\n  p0 |- p0 : ax\n    link s9\n"
        )  # link to an unknown state... also a link under a leaf is fine shape-wise
    with pytest.raises(GraphFileError):
        parse_proof_file("calculus grz\nroot s0\nstate s0\n p0 |- p0 : ax\n")  # odd indent
    with pytest.raises(GraphFileError):
        parse_proof_file("calculus grz\nroot s0\nstate s0\n  p0 |- : \n")


def test_dot_rendering_mentions_clusters_and_dashed_links():
    dot = to_dot(box_step_graph())
    assert "cluster_s0" in dot and "cluster_s1" in dot
    assert "style=dashed" in dot
    assert "|-" in dot and "⊢" not in dot


def test_state_blocks_ordered_by_first_use():
    text = print_proof_file(self_loop_graph(), "grz")
    assert text.index("state s2") < text.index("state s1")


def test_parse_error_messages_and_lines():
    head = "calculus grz\nroot s0\n"
    cases = [
        ("state s0\nstate s1\n  p0 |- p0 : ax\n", "line 4: state s0 has no fragment"),
        ("state s0\n  link s0\n", "line 4: state s0 is just a link"),
        ("state s0\n  p0 |- p0 : ax\n  p0 |- p0 : ax\n", "line 5: a state block may hold only one tree"),
        ("state s0\n  p0 |- p0 : impr\n      p0 |- p0 : ax\n", "line 5: child without a parent at the right depth"),
        ("state s0\n  p0 |- p0 : box\n    link s0\n      p0 |- p0 : ax\n", "line 6: links cannot have children"),
        ("  p0 |- p0 : ax\n", "line 3: fragment line outside a state block"),
        ("state s0\n  p0 |- p0 : ax\nstate s0\n  p0 |- p0 : ax\n", "line 5: duplicate state s0"),
        ("state s0\n  p0 |- p0 : impr\n    link s1\n", "state s0 links to unknown state s1"),
        # a second header line is an error, not an override of the first
        ("calculus grz+cut\nstate s0\n  p0 |- p0 : ax\n", "line 3: duplicate calculus header"),
        ("state s0\n  p0 |- p0 : ax\nroot s0\n", "line 5: duplicate root header"),
    ]
    for body, message in cases:
        with pytest.raises(GraphFileError) as err:
            parse_proof_file(head + body)
        assert str(err.value) == message


def test_parse_builds_word_tables_in_line_order():
    text = (
        "calculus grz\nroot s0\n\nstate s0\n"
        "  p0 |- p0 : impl\n    p0 |- p0 : ax\n      link s0\n    link s0\n    p0 |- p0 : ax\n"
    )
    _, pg = parse_proof_file(text)
    frag = pg.fragment("s0")
    assert sorted(frag.nodes) == [(), (0,), (0, 0), (1,), (2,)]
    assert frag.nw_leaves == {(0, 0), (1,)}
    assert pg.links("s0") == {(0, 0): "s0", (1,): "s0"}


def test_unreachable_states_print_last_in_name_order():
    text = (
        "calculus grz\nroot s1\n\n"
        "state s9\n  p0 |- p0 : ax\n\nstate s0\n  p0 |- p0 : ax\n\nstate s1\n  p0 |- p0 : ax\n"
    )
    name, pg = parse_proof_file(text)
    printed = print_proof_file(pg, name)
    assert [line for line in printed.splitlines() if line.startswith("state")] == [
        "state s1",
        "state s0",
        "state s9",
    ]
