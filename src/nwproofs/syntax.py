"""Text form of formulas and sequents.

Grammar: atoms ``p0 p1 ...``, the constant ``false``, right-associative
``->``, prefix ``box`` binding tighter than the arrow, and parentheses.
Formulas nest at most :data:`MAX_DEPTH` levels deep, each ``box``,
opening parenthesis and right operand of ``->`` counting one level;
deeper input is a :class:`ParseError`, not a recursion failure.
Printing emits minimal parentheses and lists multiset members in the
canonical structural order, so printing is a canonical form.
"""

from __future__ import annotations

import re

from .grz.formulas import Atom, Bot, Box, Formula, Imp, Sequent, mexpand


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


MAX_DEPTH = 256

_TOKEN = re.compile(r"\s*(p\d+|false|box|->|\(|\)|,|\|-)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.at = 0

    def peek(self) -> str | None:
        return self.tokens[self.at][0] if self.at < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.at][1] if self.at < len(self.tokens) else len(self.text)

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            want = expected or "a token"
            raise ParseError(f"expected {want}", self.pos())
        self.at += 1
        return tok

    def formula(self, depth: int = 0) -> Formula:
        left = self.unary(depth)
        if self.peek() == "->":
            self.take()
            return Imp(left, self.formula(depth + 1))
        return left

    def unary(self, depth: int) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a formula", self.pos())
        if depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", self.pos())
        if tok == "box":
            self.take()
            return Box(self.unary(depth + 1))
        if tok == "false":
            self.take()
            return Bot()
        if tok == "(":
            self.take()
            inner = self.formula(depth + 1)
            self.take(")")
            return inner
        if tok.startswith("p"):
            self.take()
            return Atom(int(tok[1:]))
        raise ParseError(f"unexpected token {tok!r}", self.pos())

    def formula_list(self) -> list[Formula]:
        if self.peek() in (None, "|-"):
            return []
        out = [self.formula()]
        while self.peek() == ",":
            self.take()
            out.append(self.formula())
        return out

    def sequent(self) -> Sequent:
        ante = self.formula_list()
        self.take("|-")
        succ = self.formula_list()
        return Sequent.of(ante, succ)

    def expect_end(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())


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


def print_formula(f: Formula) -> str:
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Atom):
        return f"p{f.index}"
    if isinstance(f, Box):
        body = print_formula(f.body)
        return f"box ({body})" if isinstance(f.body, Imp) else f"box {body}"
    if isinstance(f, Imp):
        left = print_formula(f.left)
        if isinstance(f.left, Imp):
            left = f"({left})"
        return f"{left} -> {print_formula(f.right)}"
    raise TypeError(f"not a formula: {f!r}")


def print_sequent(s: Sequent) -> str:
    left = ", ".join(print_formula(f) for f in mexpand(s.ante))
    right = ", ".join(print_formula(f) for f in mexpand(s.succ))
    return f"{left} |- {right}".strip() if left else f"|- {right}".rstrip()
