"""The word grammar read by the CLI.

    word        := composition (';' step)*
    composition := '(' ')' | '(' int (',' int)* ')'
    step        := 'd' '[' int ',' int ']' | 's' '[' int ',' int ',' int ']'
                 | 'tau' '[' matrix ']'
    matrix      := '[' row (',' row)* ']'
    row         := '[' int (',' int)* ']'

Integers ``[0-9]+`` and names ``[A-Za-z]+`` are ASCII; blanks are spaces,
tabs, carriage returns and newlines.  Any other character is an error, and
every error carries its 1-based line and column.  Reports print elements
such as ``h[2] - h[1,1]``, but nothing parses them.
"""

from __future__ import annotations

import re

from .category import Merge, MorphismWord, Shuffle, Split
from .compositions import Composition
from .contingency import ContingencyMatrix
from .errors import HopflikeError, WordSyntaxError

_SCANNER = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<punct>[()\[\],;])"
    r"|(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<other>.)"
)

_INDEXED_STEPS = {"d": (Merge, 2), "s": (Split, 3)}  # tau takes a matrix


class _Cursor:
    """Tokens as ``(kind, value, line, column)`` tuples, closed by ``end``."""

    def __init__(self, text):
        self.tokens, self.pos = [], 0
        line, line_start = 1, 0
        for match in _SCANNER.finditer(text):
            kind, value = match.lastgroup, match.group()
            col = match.start() - line_start + 1
            if kind == "newline":
                line, line_start = line + 1, match.end()
            elif kind == "other":
                raise WordSyntaxError(f"unexpected character {value!r}", line, col)
            elif kind != "blank":
                self.tokens.append((kind, value, line, col))
        self.tokens.append(("end", None, line, len(text) - line_start + 1))

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        _, _, line, col = tok or self.peek()
        raise WordSyntaxError(message, line, col)

    def at(self, ch) -> bool:
        return self.peek()[1] == ch

    def expect(self, ch):
        tok = self.next()
        if tok[1] != ch:
            self.error(f"expected {ch!r}", tok)

    def expect_int(self) -> int:
        tok = self.next()
        if tok[0] != "int":
            self.error("expected an integer", tok)
        try:
            return int(tok[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            self.error("integer too long", tok)

    def expect_end(self):
        if self.peek()[0] != "end":
            self.error("unexpected trailing input")

    def items(self, item, open_="[", close="]", may_be_empty=False) -> list:
        """The one list rule: ``open item (',' item)* close``."""
        self.expect(open_)
        values = [] if may_be_empty and self.at(close) else [item()]
        while values and self.at(","):
            self.next()
            values.append(item())
        self.expect(close)
        return values


def _composition(cur: _Cursor) -> Composition:
    return Composition(cur.items(cur.expect_int, "(", ")", may_be_empty=True))


def _step(cur: _Cursor):
    tok = cur.next()
    kind, name, _, _ = tok
    if kind != "name":
        cur.error("expected a step: d[...], s[...] or tau[...]", tok)
    if name == "tau":
        cur.expect("[")
        rows = cur.items(lambda: cur.items(cur.expect_int))
        try:
            matrix = ContingencyMatrix(rows)
        except HopflikeError as exc:
            cur.error(str(exc))
        cur.expect("]")
        return Shuffle(matrix)
    if name not in _INDEXED_STEPS:
        cur.error(f"unknown step kind {name!r}", tok)
    generator, arity = _INDEXED_STEPS[name]
    indices = []
    for separator in "[" + "," * (arity - 1):
        cur.expect(separator)
        indices.append(cur.expect_int())
    cur.expect("]")
    return generator(*indices)


def parse_composition(text: str) -> Composition:
    cur = _Cursor(text)
    comp = _composition(cur)
    cur.expect_end()
    return comp


def parse_word(text: str) -> MorphismWord:
    """Parse ``composition (';' step)*``; round-trips with print_word."""
    cur = _Cursor(text)
    source = _composition(cur)
    steps = []
    while cur.at(";"):
        cur.next()
        steps.append(_step(cur))
    cur.expect_end()
    return MorphismWord(source, steps)  # may raise ChainError with step index
