"""Parser, canonical printer, and structural helpers."""

import re
from math import prod

import pytest
from hypothesis import given

from generators import nested_trivial, type_strategy
from helpers import extend_by, k_exponents
from hoq import type_ast
from hoq.type_ast import (
    Atom,
    Elementary,
    ParseError,
    bar,
    factor_dims,
    make_comb,
    parse_type,
    print_canonical,
    tensor,
    total_dim,
    type_depth,
)


def test_default_dimension_is_two():
    assert parse_type("A->B") == parse_type("A:2->B:2")
    assert parse_type("A") == Elementary((Atom("A", 2),))


def test_atom_groups():
    x = parse_type("A*B:3*C:5")
    assert isinstance(x, Elementary)
    assert [a.dim for a in x.atoms] == [2, 3, 5]
    assert print_canonical(x) == "A:2*B:3*C:5"


def test_arrow_is_right_associative():
    assert print_canonical(parse_type("A->B->C")) == "A:2->(B:2->C:2)"
    assert print_canonical(parse_type("(A->B)->C")) == "(A:2->B:2)->C:2"


def test_canonical_printer_wraps_every_inner_arrow():
    x = parse_type("((A->B)->(C->D))->E")
    assert print_canonical(x) == "((A:2->B:2)->(C:2->D:2))->E:2"


def test_trivial_system():
    x = parse_type("I")
    assert x == Elementary((Atom("I", 1),))
    assert total_dim(x) == 1
    # dimension 1 is reserved for the trivial label, both directions
    with pytest.raises(ValueError):
        Atom("A", 1)
    with pytest.raises(ValueError):
        Atom("I", 2)
    with pytest.raises(ParseError):
        parse_type("A:1")
    with pytest.raises(ParseError):
        parse_type("I:2")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "->A",
        "A->",
        "(A->B",
        "A->B)",
        "A**B",
        "A:",
        "A:0",
        "A:2x",
        "A -> (B",
        "()",
        "A B",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_type(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_type("A->)")
    assert err.value.position == 3


@given(type_strategy())
def test_print_parse_round_trip(x):
    assert parse_type(print_canonical(x)) == x


@given(type_strategy())
def test_canonical_print_is_idempotent(x):
    text = print_canonical(x)
    assert print_canonical(parse_type(text)) == text


def test_atom_order_is_in_order_traversal():
    def atoms_in_order(x):
        if isinstance(x, Elementary):
            return x.atoms
        return atoms_in_order(x.tail) + atoms_in_order(x.head)

    x = parse_type("(A->B)->(C:3*D->E)")
    assert [a.label for a in atoms_in_order(x)] == ["A", "B", "C", "D", "E"]
    assert factor_dims(x) == (2, 2, 3, 2, 2)
    assert total_dim(x) == 48


def test_type_depth():
    assert type_depth(parse_type("A")) == 1
    assert type_depth(parse_type("A*B")) == 1
    assert type_depth(parse_type("A->B")) == 2
    assert type_depth(parse_type("(A->B)->C")) == 3
    assert type_depth(parse_type("A->(B->C)")) == 3


def test_parser_matches_a_new_label_once(monkeypatch):
    label_pattern = type_ast._LABEL
    matched = []

    class CountingLabel:
        def fullmatch(self, text):
            matched.append(text)
            return label_pattern.fullmatch(text)

    monkeypatch.setattr(type_ast, "_LABEL", CountingLabel())
    x = parse_type("Qonce:3*I")  # labels no live atom carries
    assert matched == ["Qonce", "I"]
    assert x.atoms == (Atom("Qonce", 3), Atom("I", 1))


def test_public_atom_still_checks_its_label():
    for label in ("a b", "", "1A", "_A", "A-B"):
        with pytest.raises(ValueError, match="bad atom label"):
            Atom(label, 2)


def test_total_dim_multiplies_its_sides():
    base = parse_type("->".join(f"A{i}:{2 + i % 3}" for i in range(40)))
    comb = make_comb([base] * 40)
    assert total_dim(comb) == prod(factor_dims(comb))
    assert total_dim(comb) == total_dim(comb.tail) * total_dim(comb.head)


def test_bar_and_tensor_shapes():
    a = parse_type("A")
    b = parse_type("B")
    assert print_canonical(bar(a)) == "A:2->I"
    assert print_canonical(bar(bar(a))) == "(A:2->I)->I"
    assert print_canonical(tensor(a, b)) == "(A:2->(B:2->I))->I"


def test_make_comb_left_nesting():
    teeth = [parse_type("A->B"), parse_type("C->D"), parse_type("E->F")]
    comb = make_comb(teeth)
    assert print_canonical(comb) == "((A:2->B:2)->(C:2->D:2))->(E:2->F:2)"
    assert make_comb(teeth[:1]) == teeth[0]
    with pytest.raises(ValueError):
        make_comb([])


def test_extend_by_appends_to_innermost_head():
    e = Atom("E", 3)
    assert print_canonical(extend_by(parse_type("A"), e)) == "A:2*E:3"
    got = extend_by(parse_type("(A->B)->(C->D)"), e)
    assert print_canonical(got) == "(A:2->B:2)->(C:2->D:2*E:3)"


def test_k_exponents_frozen():
    assert k_exponents(parse_type("A")) == (1,)
    assert k_exponents(parse_type("A*B:3")) == (1, 1)
    assert k_exponents(parse_type("A->B")) == (0, 1)
    assert k_exponents(parse_type("(A->B)->C")) == (1, 0, 1)
    assert k_exponents(parse_type("A->(B->C)")) == (0, 0, 1)


_ATOM_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?::\d+)?")


@given(type_strategy())
def test_k_exponents_counting_characterization(x):
    # k_i == (arrows + opening parens strictly right of atom i, plus 1) mod 2,
    # read off the canonical rendering
    text = print_canonical(x)
    spans = [m.end() for m in _ATOM_TOKEN.finditer(text)]
    ks = k_exponents(x)
    assert len(spans) == len(ks)
    for end, k in zip(spans, ks):
        rest = text[end:]
        assert (rest.count("->") + rest.count("(") + 1) % 2 == k


def test_nesting_bound_is_exact():
    for text in nested_trivial(type_ast.MAX_NESTING):
        assert type_depth(parse_type(text)) == type_ast.MAX_NESTING
    for text in nested_trivial(type_ast.MAX_NESTING + 1):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_type(text)


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "A" + ")" * 3000, "A:2->" * 3000],
    ids=["parentheses", "arrows"],
)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested deeper"):
        parse_type(text)
