"""The word grammar read by the CLI.

Words:          (3,4) ; d[2,1] ; s[2,2,1] ; tau[[[1,0],[0,1]]]
Compositions:   (2,3,4)   or   ()

A shuffle's margin matrix is written inside ``tau[...]`` row by row.
Reports print elements such as ``h[2] - h[1,1]``, but nothing parses
them.  All errors carry 1-based line/column positions.
"""

from __future__ import annotations

from .category import Merge, MorphismWord, Shuffle, Split
from .compositions import Composition
from .contingency import ContingencyMatrix
from .errors import WordSyntaxError

_PUNCT = set("()[],;")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise WordSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Cursor:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise WordSyntaxError(message, tok.line, tok.col)

    def expect_punct(self, ch):
        tok = self.next()
        if tok.kind != "punct" or tok.value != ch:
            self.error(f"expected {ch!r}", tok)
        return tok

    def expect_int(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            self.error("expected an integer", tok)
        return tok.value

    def at_punct(self, ch) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == ch

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            self.error("unexpected trailing input", tok)


def _parse_composition(cur: _Cursor) -> Composition:
    cur.expect_punct("(")
    parts = []
    if not cur.at_punct(")"):
        parts.append(cur.expect_int())
        while cur.at_punct(","):
            cur.next()
            parts.append(cur.expect_int())
    cur.expect_punct(")")
    return Composition(parts)


def _parse_int_row(cur: _Cursor) -> tuple:
    cur.expect_punct("[")
    row = [cur.expect_int()]
    while cur.at_punct(","):
        cur.next()
        row.append(cur.expect_int())
    cur.expect_punct("]")
    return tuple(row)


def _parse_matrix(cur: _Cursor) -> ContingencyMatrix:
    cur.expect_punct("[")
    rows = [_parse_int_row(cur)]
    while cur.at_punct(","):
        cur.next()
        rows.append(_parse_int_row(cur))
    cur.expect_punct("]")
    first = cur.peek()
    try:
        return ContingencyMatrix(rows)
    except ValueError as exc:
        raise WordSyntaxError(str(exc), first.line, first.col) from exc


def _parse_step(cur: _Cursor):
    tok = cur.next()
    if tok.kind != "name":
        cur.error("expected a step: d[...], s[...] or tau[...]", tok)
    if tok.value == "d":
        cur.expect_punct("[")
        t = cur.expect_int()
        cur.expect_punct(",")
        i = cur.expect_int()
        cur.expect_punct("]")
        return Merge(t, i)
    if tok.value == "s":
        cur.expect_punct("[")
        t = cur.expect_int()
        cur.expect_punct(",")
        i = cur.expect_int()
        cur.expect_punct(",")
        a = cur.expect_int()
        cur.expect_punct("]")
        return Split(t, i, a)
    if tok.value == "tau":
        cur.expect_punct("[")
        matrix = _parse_matrix(cur)
        cur.expect_punct("]")
        return Shuffle(matrix)
    cur.error(f"unknown step kind {tok.value!r}", tok)


def parse_composition(text: str) -> Composition:
    cur = _Cursor(text)
    comp = _parse_composition(cur)
    cur.expect_end()
    return comp


def parse_word(text: str) -> MorphismWord:
    """Parse ``composition (';' step)*``; round-trips with print_word."""
    cur = _Cursor(text)
    source = _parse_composition(cur)
    steps = []
    while cur.at_punct(";"):
        cur.next()
        steps.append(_parse_step(cur))
    cur.expect_end()
    return MorphismWord(source, steps)  # may raise ChainError with step index

