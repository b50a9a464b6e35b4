"""parse_type against the hand-written tokenizer and parser it replaced.

The reference below walks the text one character at a time, builds
``(KIND, text, position)`` tokens, and parses them with a ``peek``/``take``
parser of four methods.  Over ASCII the two parsers must build equal trees,
or both raise ParseError at the same position.  Only the three "expected
IDENT/RPAREN/INT" messages were reworded; every other message is unchanged.

Beyond ASCII the label rule now follows ``\\w``: a numeric sign that is not
a decimal digit, such as ``²``, starts a label, where ``isalpha`` refused it.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hoq.type_ast import (
    MAX_NESTING,
    TRIVIAL_LABEL,
    Arrow,
    Atom,
    Elementary,
    ParseError,
    TypeExpr,
    parse_type,
)

# --------------------------------------------------------------------------
# the reference: a character loop and a peek/take parser
# --------------------------------------------------------------------------

_SIMPLE_TOKENS = {"*": "STAR", "(": "LPAREN", ")": "RPAREN", ":": "COLON"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("ARROW", "->", i))
            i += 2
            continue
        if c in _SIMPLE_TOKENS:
            tokens.append((_SIMPLE_TOKENS[c], c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_type(self) -> TypeExpr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"type nested deeper than {MAX_NESTING} levels", self.peek()[2]
            )
        expr = self.parse_term()
        if self.peek()[0] == "ARROW":
            self.take("ARROW")
            expr = Arrow(expr, self.parse_type())
        self.depth -= 1
        return expr

    def parse_term(self) -> TypeExpr:
        kind, _, _ = self.peek()
        if kind == "LPAREN":
            self.take("LPAREN")
            inner = self.parse_type()
            self.take("RPAREN")
            return inner
        return self.parse_atomgroup()

    def parse_atomgroup(self) -> Elementary:
        atoms = [self.parse_atom()]
        while self.peek()[0] == "STAR":
            self.take("STAR")
            atoms.append(self.parse_atom())
        return Elementary(tuple(atoms))

    def parse_atom(self) -> Atom:
        kind, label, pos = self.take("IDENT")
        if label == TRIVIAL_LABEL:
            if self.peek()[0] == "COLON":
                raise ParseError(
                    f"the trivial system {TRIVIAL_LABEL!r} takes no dimension",
                    self.peek()[2],
                )
            return Atom(TRIVIAL_LABEL, 1)
        dim = 2
        if self.peek()[0] == "COLON":
            self.take("COLON")
            _, digits, dpos = self.take("INT")
            dim = int(digits)
            if dim < 2:
                raise ParseError(
                    f"dimension {dim} not allowed for {label!r}; dimension 1 "
                    f"is written {TRIVIAL_LABEL!r}",
                    dpos,
                )
        return Atom(label, dim)


def reference_parse(text: str) -> TypeExpr:
    parser = _Parser(text)
    expr = parser.parse_type()
    kind, value, pos = parser.peek()
    if kind != "END":
        raise ParseError(f"trailing input {value!r}", pos)
    return expr


# --------------------------------------------------------------------------
# the package against the reference
# --------------------------------------------------------------------------

# The token alphabet, junk characters (x, _, digits, lone - and >, $) and
# both kinds of whitespace.
PIECES = list("ABIx_0123:*()->") + [" ", "\t", "$", "->"]


def outcome(parse, text):
    """The tree, or the ParseError's position and, unless it is one of the
    reworded "expected ..." messages, its text."""
    try:
        return parse(text)
    except ParseError as err:
        reworded = str(err).startswith("expected ")
        return err.position, None if reworded else str(err)


def assert_same(text):
    assert outcome(parse_type, text) == outcome(reference_parse, text), text


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_parsers_agree_on_token_soup(text):
    assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "A:3*B->(C:5->I)->D",
        " ( A -> B ) -> C\t",
        "x1_y:12*B",
        "A:02",
        "I->I",
        "(" * MAX_NESTING + "A" + ")" * MAX_NESTING,
        "(" * (MAX_NESTING + 1) + "A" + ")" * (MAX_NESTING + 1),
        "I->" * MAX_NESTING + "I",
        "A->)$",
        "A:1",
        "I:2",
        "A:0",
        "",
        "A B",
    ],
)
def test_parsers_agree_on_edge_cases(text):
    assert_same(text)


def test_non_decimal_digit_dimension_is_a_parse_error():
    # the reference raised a plain ValueError from int("²")
    with pytest.raises(ParseError) as err:
        parse_type("A:²")
    assert err.value.position == 2
