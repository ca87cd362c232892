"""Fuzzing the two text parsers and the ``check`` command.

Inputs are golden corpus files with lines deleted, duplicated,
re-indented or replaced by token soup, and strings of random grammar
tokens.  Only the parsers' own errors may escape, and ``check`` must
always answer with an exit code.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nwproofs.cli import main
from nwproofs.graphfile import GraphFileError, parse_proof_file
from nwproofs.syntax import ParseError, parse_sequent

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = [p.read_text() for p in sorted(CORPUS.glob("*.proof"))]

TOKENS = [
    "p0", "p1", "p12", "false", "box", "->", "(", ")", ",", "|-", ":", " : ",
    "ax", "bot", "impl", "impr", "refl", "box", "cut", "link", "s0", "s1",
    "state", "root", "calculus", "grz", "grz+cut", "  ", "\t", "x", "-", "|",
]

token_soup = st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join)

# (kind, position, indentation, replacement); positions wrap around the file
mutation = st.tuples(
    st.sampled_from(["delete", "duplicate", "indent", "dedent", "replace", "insert"]),
    st.integers(0, 200),
    st.integers(0, 4),
    token_soup,
)


def _mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for kind, at, indent, soup in mutations:
        if not lines:
            lines.append(soup)
            continue
        i = at % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "indent":
            lines[i] = " " * indent + lines[i]
        elif kind == "dedent":
            lines[i] = lines[i][indent:]
        elif kind == "replace":
            lines[i] = "  " * indent + soup
        else:
            lines.insert(i, "  " * indent + soup)
    return "\n".join(lines) + "\n"


mutated_files = st.builds(_mutate, st.sampled_from(GOLDEN), st.lists(mutation, min_size=1, max_size=4))
soup_files = st.lists(
    st.tuples(st.integers(0, 4), token_soup).map(lambda t: "  " * t[0] + t[1]), max_size=10
).map("\n".join)


def _parse_or_reject(text: str) -> None:
    try:
        parse_proof_file(text)
    except (GraphFileError, ParseError):
        pass


def _check_exit_code(text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.proof"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["check", str(path)])


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.one_of(mutated_files, soup_files))
def test_proof_file_parser_raises_only_its_own_errors(text):
    _parse_or_reject(text)


@FUZZ
@given(token_soup)
def test_sequent_parser_raises_only_parse_errors(text):
    try:
        parse_sequent(text)
    except ParseError:
        pass


@FUZZ
@given(st.one_of(mutated_files, soup_files))
def test_check_answers_with_an_exit_code(text):
    assert _check_exit_code(text) in (0, 1, 2)
