"""Pins the word grammar's error reports: class, message and position."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflike.errors import ChainError, HopflikeError, WordSyntaxError
from hopflike.parsing import parse_composition, parse_word

C, W = parse_composition, parse_word
WSE = WordSyntaxError

# (parser, text, exception, message, line, column).  Integers and names
# are ASCII, so '²', '١' and 'é' are unexpected characters.
MALFORMED = [
    (C, "", WSE, "expected '('", 1, 1),
    (C, "(", WSE, "expected an integer", 1, 2),
    (C, ")", WSE, "expected '('", 1, 1),
    (C, "(2,", WSE, "expected an integer", 1, 4),
    (C, "(1,)", WSE, "expected an integer", 1, 4),
    (C, "(,1)", WSE, "expected an integer", 1, 2),
    (C, "(1 2)", WSE, "expected ')'", 1, 4),
    (C, "(1,2", WSE, "expected ')'", 1, 5),
    (C, "(1,2))", WSE, "unexpected trailing input", 1, 6),
    (C, "((1))", WSE, "expected an integer", 1, 2),
    (C, "(1)(2)", WSE, "unexpected trailing input", 1, 4),
    (C, "[1]", WSE, "expected '('", 1, 1),
    (C, "(a)", WSE, "expected an integer", 1, 2),
    (C, "(1;2)", WSE, "expected ')'", 1, 3),
    (C, "(-1)", WSE, "unexpected character '-'", 1, 2),
    (C, "(1.5)", WSE, "unexpected character '.'", 1, 3),
    (C, "(1_000)", WSE, "unexpected character '_'", 1, 3),
    (C, "(1) ; d[1,1]", WSE, "unexpected trailing input", 1, 5),
    (C, "(1,\n  x)", WSE, "expected an integer", 2, 3),
    (C, "(\t1,\t)", WSE, "expected an integer", 1, 6),
    (C, "(1,\r\n,2)", WSE, "expected an integer", 2, 1),
    (C, "\n\n   (3", WSE, "expected ')'", 3, 6),
    (C, "(1,) @", WSE, "unexpected character '@'", 1, 6),
    (C, "(\x0b1)", WSE, "unexpected character '\\x0b'", 1, 2),
    (C, "(²)", WSE, "unexpected character '²'", 1, 2),
    (C, "(١٣)", WSE, "unexpected character '١'", 1, 2),
    (W, "", WSE, "expected '('", 1, 1),
    (W, "(1) ; d[1", WSE, "expected ','", 1, 10),
    (W, "(2) ; s[1,1]", WSE, "expected ','", 1, 12),
    (W, "(2) ; tau[[[2],[1,1]]]", WSE, "ragged matrix", 1, 22),
    (W, "(2) ; tau[[]]", WSE, "expected '['", 1, 12),
    (W, "(2) ; tau[]", WSE, "expected '['", 1, 11),
    (W, "(2) ; tau[[1]]", WSE, "expected '['", 1, 12),
    (W, "(2) ; tau[[[1]]", WSE, "expected ']'", 1, 16),
    (W, "(2) ; tau[[[1],[1]]] x", WSE, "unexpected trailing input", 1, 22),
    (W, "(2) ; tau[[[1,1],]]", WSE, "expected '['", 1, 18),
    (W, "(2) ; tau[[[-1]]]", WSE, "unexpected character '-'", 1, 13),
    (W, "(2) ; x[1]", WSE, "unknown step kind 'x'", 1, 7),
    (W, "(2) ; D[1,1]", WSE, "unknown step kind 'D'", 1, 7),
    (W, "(2) ; dd[1,1]", WSE, "unknown step kind 'dd'", 1, 7),
    (W, "(2) ; 5[1]", WSE,
     "expected a step: d[...], s[...] or tau[...]", 1, 7),
    (W, "(1) @", WSE, "unexpected character '@'", 1, 5),
    (W, "(2) ;", WSE, "expected a step: d[...], s[...] or tau[...]", 1, 6),
    (W, "(2) ; ;", WSE, "expected a step: d[...], s[...] or tau[...]", 1, 7),
    (W, "(2) ; d", WSE, "expected '['", 1, 8),
    (W, "(2) ; d[1,1,1]", WSE, "expected ']'", 1, 12),
    (W, "(2) ; s[1,1,1", WSE, "expected ']'", 1, 14),
    (W, "(2) d[1,1]", WSE, "unexpected trailing input", 1, 5),
    (W, "(3) ; d[2,1]", ChainError,
     "step 1 (d[2,1]) breaks the chain: d[2,1] needs a length-2 domain, "
     "got (3)", None, None),
    (W, "(2) ; s[1,1,0]", ChainError,
     "step 1 (s[1,1,0]) breaks the chain: s[1,1,0] cannot cut part 2 at 0",
     None, None),
    (W, "(1,1)\n;\n\td[2,1]\n;", WSE,
     "expected a step: d[...], s[...] or tau[...]", 4, 2),
    (W, "(1,1) ;\r\n d[2,1] ;\r\n s[1,1,", WSE, "expected an integer", 3, 8),
    (W, "(2) ;\ttau[[[1],\n[1]]]", ChainError,
     "step 1 (tau[[[1],[1]]]) breaks the chain: tau[[[1],[1]]] needs domain "
     "(1,1), got (2)", None, None),
    (W, "(2) ; é[1]", WSE, "unexpected character 'é'", 1, 7),
]


@pytest.mark.parametrize(
    "parse, text, error, message, line, column", MALFORMED,
    ids=[f"{row[0].__name__}:{row[1]!r}" for row in MALFORMED],
)
def test_malformed_input_is_reported_in_place(
    parse, text, error, message, line, column
):
    with pytest.raises(HopflikeError) as info:
        parse(text)
    assert type(info.value) is error
    if error is WordSyntaxError:
        assert (info.value.line, info.value.column) == (line, column)
        message += f" (line {line}, column {column})"
    assert str(info.value) == message


def test_over_long_integer_is_a_syntax_error():
    # int() refuses more digits than sys.get_int_max_str_digits().
    with pytest.raises(WordSyntaxError, match=r"long \(line 1, column 5\)"):
        parse_composition("(1, " + "9" * 5000 + ")")


@settings(derandomize=True)
@given(st.text())
def test_arbitrary_text_parses_or_raises_a_package_error(text):
    for parse in (parse_word, parse_composition):
        try:
            parse(text)
        except HopflikeError:
            pass
