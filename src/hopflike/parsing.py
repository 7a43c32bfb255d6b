"""Parsers for the small text grammars used by the CLI and reports.

Words:          (3,4) ; d[2,1] ; s[2,2,1] ; tau[[[1,0],[0,1]]]
Compositions:   (2,3,4)   or   ()
Matrices:       [[1,0],[0,1]]
Elements:       h[2] - h[1,1]     2*h[1] (x) h[1]     s[1,1]

All errors carry 1-based line/column positions.
"""

from __future__ import annotations

from .category import Merge, MorphismWord, Shuffle, Split
from .compositions import Composition
from .contingency import ContingencyMatrix
from .errors import WordSyntaxError
from .symfunc import SymElement, TensorElement, _is_partition, m_to_h, schur

_PUNCT = set("()[],;+-*")


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
        if text.startswith("(x)", i):
            tokens.append(_Token("tensor", "(x)", line, col))
            i += 3
            col += 3
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


# --- element grammar -------------------------------------------------------


def _parse_atom(cur: _Cursor):
    tok = cur.next()
    if tok.kind == "int":
        return ("scalar", tok.value)
    if tok.kind != "name" or tok.value not in ("h", "m", "s"):
        cur.error("expected h[...], s[...], m[...] or an integer", tok)
    basis = tok.value
    cur.expect_punct("[")
    parts = []
    if not cur.at_punct("]"):
        parts.append(cur.expect_int())
        while cur.at_punct(","):
            cur.next()
            parts.append(cur.expect_int())
    cur.expect_punct("]")
    lam = tuple(parts)
    if not _is_partition(lam):
        cur.error(f"{basis}[{','.join(map(str, lam))}] is not a partition", tok)
    return (basis, lam)


def _parse_term(cur: _Cursor):
    """One summand: optional integer scalar, then atoms joined by (x)."""
    coeff = 1
    atoms = []
    first = _parse_atom(cur)
    if first[0] == "scalar":
        coeff = first[1]
        if cur.at_punct("*"):
            cur.next()
            atoms.append(_parse_atom(cur))
    else:
        atoms.append(first)
    while cur.peek().kind == "tensor":
        cur.next()
        atoms.append(_parse_atom(cur))
    return coeff, atoms


def _parse_terms(cur: _Cursor):
    terms = []
    sign = 1
    if cur.at_punct("-"):
        cur.next()
        sign = -1
    coeff, atoms = _parse_term(cur)
    terms.append((sign * coeff, atoms))
    while cur.at_punct("+") or cur.at_punct("-"):
        sign = 1 if cur.next().value == "+" else -1
        coeff, atoms = _parse_term(cur)
        terms.append((sign * coeff, atoms))
    return terms


def parse_sym_element(text: str):
    """Parse a single-slot element; all atoms must share one basis."""
    cur = _Cursor(text)
    first = cur.peek()
    terms = _parse_terms(cur)
    cur.expect_end()
    basis = None
    degree = None
    coeffs = {}
    for coeff, atoms in terms:
        if len(atoms) > 1:
            raise WordSyntaxError(
                "tensor element where a plain element was expected",
                first.line, first.col,
            )
        if not atoms:
            lam, b = (), None
        else:
            b, lam = atoms[0]
        if b is not None:
            if basis is None:
                basis = b
            elif basis != b:
                raise WordSyntaxError(
                    f"mixed bases {basis!r} and {b!r}", first.line, first.col
                )
        if degree is None:
            degree = sum(lam)
        elif degree != sum(lam):
            raise WordSyntaxError(
                "summands of different degree", first.line, first.col
            )
        coeffs[lam] = coeffs.get(lam, 0) + coeff
    return SymElement(degree or 0, basis or "h", coeffs)


def parse_tensor_element(text: str):
    """Parse sums of scaled tensors; s/m slots are converted to h."""
    cur = _Cursor(text)
    first = cur.peek()
    terms = _parse_terms(cur)
    cur.expect_end()
    total = None
    for coeff, atoms in terms:
        piece = TensorElement((), {(): coeff})
        for basis, lam in atoms:
            if basis == "h":
                single = SymElement.basis_element("h", lam)
            elif basis == "s":
                single = schur(lam)
            else:
                single = m_to_h(SymElement.basis_element("m", lam))
            slot = TensorElement(
                (single.degree,), {(k,): v for k, v in single.coeffs.items()}
            )
            piece = piece.tensor(slot)
        if total is None:
            total = piece
        else:
            try:
                total = total + piece
            except ValueError as exc:
                raise WordSyntaxError(str(exc), first.line, first.col) from exc
    return total
