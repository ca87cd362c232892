"""Text form of formulas and sequents.

Grammar: atoms ``p0 p1 ...``, the constant ``false``, right-associative
``->``, prefix ``box`` binding tighter than the arrow, and parentheses.
Formulas nest at most :data:`MAX_DEPTH` levels deep, each ``box``,
opening parenthesis and right operand of ``->`` counting one level;
deeper input is a :class:`ParseError`, not a recursion failure.
The printers :func:`~nwproofs.commands.print_formula` and
:func:`~nwproofs.commands.print_sequent` live with the other writers.
"""

from __future__ import annotations

import re

from . import _forwarder
from .grz.formulas import BOT, Atom, Box, Formula, Imp, Sequent


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


MAX_DEPTH = 256

# every token, or any other non-space character, which starts no token
_TOKEN = re.compile(r"\s*(p\d+|false|box|->|[(),]|\|-|\S)")


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, found in one pass.  A character that starts
    no token is a :class:`ParseError` at the end of the token before it."""
    tokens = _TOKEN.findall(text)
    bad = {t for t in set(tokens) if len(t) == 1 and t not in "(),"}
    if bad:
        for m in _TOKEN.finditer(text):
            if m[1] in bad:
                raise ParseError(f"unexpected character {m[1]!r}", m.start())
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str | None] = _tokenize(text)
        self.tokens.append(None)  # end of input
        self.at = 0

    def pos(self) -> int:
        """Where the next token starts; only errors ask, so it is found by
        tokenizing again."""
        if self.tokens[self.at] is None:
            return len(self.text)
        return [m.start(1) for m in _TOKEN.finditer(self.text)][self.at]

    def take(self, expected: str) -> None:
        if self.tokens[self.at] != expected:
            raise ParseError(f"expected {expected}", self.pos())
        self.at += 1

    def formula(self, depth: int = 0) -> Formula:
        left = self.unary(depth)
        if self.tokens[self.at] == "->":
            self.at += 1
            return Imp(left, self.formula(depth + 1))
        return left

    def unary(self, depth: int) -> Formula:
        tok = self.tokens[self.at]
        if tok is None:
            raise ParseError("expected a formula", self.pos())
        if depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", self.pos())
        if tok[0] == "p":
            self.at += 1
            return Atom(int(tok[1:]))
        if tok == "box":
            self.at += 1
            return Box(self.unary(depth + 1))
        if tok == "false":
            self.at += 1
            return BOT
        if tok == "(":
            self.at += 1
            inner = self.formula(depth + 1)
            self.take(")")
            return inner
        raise ParseError(f"unexpected token {tok!r}", self.pos())

    def formula_list(self) -> list[Formula]:
        if self.tokens[self.at] in (None, "|-"):
            return []
        out = [self.formula()]
        while self.tokens[self.at] == ",":
            self.at += 1
            out.append(self.formula())
        return out

    def sequent(self) -> Sequent:
        ante = self.formula_list()
        self.take("|-")
        succ = self.formula_list()
        return Sequent.of(ante, succ)

    def expect_end(self) -> None:
        tok = self.tokens[self.at]
        if tok is not None:
            raise ParseError(f"trailing input {tok!r}", self.pos())


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    out = parser.formula()
    parser.expect_end()
    return out


def parse_sequent(text: str) -> Sequent:
    parser = _Parser(text)
    out = parser.sequent()
    parser.expect_end()
    return out


# The printers are writers, kept out of the checking core with the others.
__getattr__ = _forwarder(globals(), {"print_formula": "commands", "print_sequent": "commands"})
