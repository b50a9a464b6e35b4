"""Exact characterization data and type equivalence."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings

import oracles
from generators import random_type, type_strategy
from helpers import extend_by, k_exponents
from hoq import type_ast
from hoq.comb_toolkit import CombSpec, comb_lambda_closed
from hoq.semantics import (
    ALIGNMENT_CAP,
    AlignmentCapExceeded,
    check_equiv,
    delta_dimension,
    find_alignment,
    lambda_recursive,
    upsilon,
)
from hoq.subspace_algebra import (
    StringSet,
    complement_in_T,
    delta_of_type,
    dim_of_delta,
    normal_form,
)
from hoq.type_ast import (
    Arrow,
    Atom,
    Elementary,
    bar,
    factor_dims,
    make_comb,
    parse_type,
    tensor,
    total_dim,
)


def test_lambda_base_cases():
    assert lambda_recursive(parse_type("A:2")) == Fraction(1, 2)
    assert lambda_recursive(parse_type("A:2*B:3")) == Fraction(1, 6)
    assert lambda_recursive(parse_type("I")) == 1
    # the channel value, exactly
    assert lambda_recursive(parse_type("A:2->B:2")) == Fraction(1, 2)
    assert lambda_recursive(parse_type("A:2->I")) == 1


# frozen from tests/oracles.py (affine-hull derivation; lambda = trace/side)
FROZEN_LAMBDA = {
    "A:2": 0.5,
    "A:3": 0.3333333333333333,
    "A:2*B:2": 0.25,
    "A:2*B:3": 0.16666666666666666,
    "(A:2->(B:2->I))->I": 0.25,
    "A:2->B:2": 0.4999999999999999,
    "A:2->B:3": 0.3333333333333333,
    "A:2->I": 1.0,
    "I->A:2": 0.4999999999999999,
    "(A:2->I)->I": 0.5,
    "(A:2->B:2)->C:2": 0.2500000000000001,
    "A:2->(B:2->C:2)": 0.4999999999999999,
    "A:2*B:2->C:2": 0.5,
    "(A:2->B:2)->(C:2->D:2)": 0.25000000000000006,
    "(A:2->B:3)->(C:3->D:2)": 0.2499999999999998,
    "((A:2->B:2)->((C:2->D:2)->I))->I": 0.24999999999999983,
}


@pytest.mark.parametrize("text,expected", sorted(FROZEN_LAMBDA.items()))
def test_lambda_frozen(text, expected):
    assert float(lambda_recursive(parse_type(text))) == pytest.approx(
        expected, abs=1e-9
    )


# frozen from tests/oracles.py (hull dimension)
FROZEN_DELTA_DIM = {
    "A:2": 3,
    "A:3": 8,
    "A:2*B:2": 15,
    "A:2*B:3": 35,
    "(A:2->(B:2->I))->I": 15,
    "A:2->B:2": 12,
    "A:2->B:3": 32,
    "A:2->I": 0,
    "I->A:2": 3,
    "(A:2->I)->I": 3,
    "(A:2->B:2)->C:2": 51,
    "A:2->(B:2->C:2)": 48,
    "A:2*B:2->C:2": 48,
    "(A:2->B:2)->(C:2->D:2)": 204,
    "(A:2->B:3)->(C:3->D:2)": 999,
    "((A:2->B:2)->((C:2->D:2)->I))->I": 168,
}


@pytest.mark.parametrize("text,expected", sorted(FROZEN_DELTA_DIM.items()))
def test_delta_dimension_frozen(text, expected):
    assert delta_dimension(parse_type(text)) == expected


@given(type_strategy(max_leaves=5))
def test_delta_dimension_matches_string_sets(x):
    assert delta_dimension(x) == dim_of_delta(delta_of_type(x), factor_dims(x))


@given(type_strategy(max_leaves=6))
def test_lambda_recursion_equals_exponent_closed_form(x):
    ks = k_exponents(x)
    dims = factor_dims(x)
    closed = prod(
        (Fraction(1, d) if k else Fraction(1) for d, k in zip(dims, ks)),
        start=Fraction(1),
    )
    assert lambda_recursive(x) == closed


def test_lambda_recursion_reads_stored_dimensions(monkeypatch):
    # the deepest base the parser takes, as every tooth of the largest comb;
    # each arrow asks for its tail's dimension, which every node stores when
    # it is built, so no product over the factors below is taken again
    base = parse_type("->".join(f"L{i}:2" for i in range(100)))
    comb = make_comb([base] * 100)

    def no_product(dims):
        raise AssertionError(f"a product over {len(dims)} factors")

    monkeypatch.setattr(type_ast, "prod", no_product)
    lambda_recursive.cache_clear()
    assert lambda_recursive(comb) == comb_lambda_closed(CombSpec.uniform(base, 100))


def test_oracle_live_agreement():
    # recompute the independent hull for a few small types and compare all
    # three characteristics on the spot
    for text in ["A:2", "A:2->B:2", "(A:2->I)->I", "A:2->(B:2->C:2)"]:
        x = parse_type(text)
        ref = oracles.oracle_semantics(x)
        assert float(lambda_recursive(x)) == pytest.approx(
            ref["lambda"], abs=1e-7
        )
        dims = factor_dims(x)
        ours = normal_form(delta_of_type(x), dims)
        theirs = normal_form(
            StringSet.from_bitstrings(len(dims), ref["delta"]), dims
        )
        assert ours == theirs
        assert delta_dimension(x) == ref["dim"]


def test_upsilon_packages_normal_form():
    s = upsilon(parse_type("(A:2->I)->I"))
    assert s.lambda_ == Fraction(1, 2)
    assert s.delta.as_bitstrings() == ["0"]
    assert tuple(s.dims) == (2,)
    assert s.total_dim == 2


def test_trivial_atoms_do_not_count_against_capacity():
    # 27 atom positions but 3 non-trivial factors: the full-position set
    # would exceed 2^24 strings, the normal form never builds it
    x = parse_type("A:2*" + "I*" * 25 + "B:2->C:2")
    s = upsilon(x)
    assert tuple(s.dims) == (2, 2, 2) and s.total_dim == 8
    assert s.delta.as_bitstrings() == ["000", "010", "100", "110"]
    v = check_equiv(x, parse_type("A:2*B:2->C:2"))
    assert v.equivalent and v.permutation == (0, 1, 2)


def test_equiv_double_dual():
    v = check_equiv(parse_type("(A:2->I)->I"), parse_type("A:2"))
    assert v.equivalent and v.permutation == (0,)


def test_equiv_uncurry():
    v = check_equiv(parse_type("A->(B->C)"), parse_type("A*B->C"))
    assert v.equivalent


def test_equiv_respects_lambda():
    # same index set shape, different lambda: A and I->(A->I) style mismatch
    a = parse_type("A:2")
    abar = bar(a)
    assert lambda_recursive(a) != lambda_recursive(abar)
    assert not check_equiv(a, abar).equivalent


def test_equiv_negative_cases():
    assert not check_equiv(parse_type("A:2"), parse_type("A:3")).equivalent
    assert not check_equiv(parse_type("A->B"), parse_type("A*B")).equivalent


def test_equiv_search_flag():
    # commuted tensor factors need a non-identity alignment
    x = tensor(parse_type("A:2"), parse_type("B:3"))
    y = tensor(parse_type("B:3"), parse_type("A:2"))
    assert not check_equiv(x, y, search=False).equivalent
    v = check_equiv(x, y, search=True)
    assert v.equivalent and v.permutation == (1, 0)


def test_equiv_explicit_perm():
    x = tensor(parse_type("A:2"), parse_type("B:3"))
    y = tensor(parse_type("B:3"), parse_type("A:2"))
    assert check_equiv(x, y, perm=(1, 0)).equivalent
    assert not check_equiv(x, y, perm=(0, 1)).equivalent
    with pytest.raises(ValueError):
        check_equiv(x, y, perm=(0, 0))


def test_find_alignment_identity_first_and_least_witness():
    delta = StringSet.from_bitstrings(2, ["00"])
    assert find_alignment(delta, (2, 2), delta, (2, 2)) == (0, 1)
    # forced swap
    a = StringSet.from_bitstrings(2, ["01"])
    b = StringSet.from_bitstrings(2, ["10"])
    assert find_alignment(a, (2, 2), b, (2, 2)) == (1, 0)
    assert find_alignment(a, (2, 3), b, (2, 3)) is None
    # unequal lengths, unequal dim multisets
    c = StringSet.from_bitstrings(3, ["001"])
    assert find_alignment(a, (2, 2), c, (2, 2, 2)) is None
    assert find_alignment(a, (2, 2), b, (2, 3)) is None


def test_alignment_cap():
    # same size, same dims, different content: the search would have to run
    n = ALIGNMENT_CAP + 1
    dims = (2,) * n
    with pytest.raises(AlignmentCapExceeded):
        find_alignment(
            StringSet(n, frozenset({1})),
            dims,
            StringSet(n, frozenset({2})),
            dims,
        )


def _functional_dual_holds(x) -> bool:
    # lambda of the dual is 1 / (lambda_x d_x); its index set is the
    # complement of Delta_x in T over the same non-trivial factors
    sx, sb = upsilon(x), upsilon(bar(x))
    return (
        sb.lambda_ == 1 / (sx.lambda_ * total_dim(x))
        and sb.delta == complement_in_T(sx.delta)
        and sb.dims == sx.dims
    )


LAWS = {
    "involution": lambda x: check_equiv(bar(bar(x)), x).equivalent,
    "uncurry": lambda x, y, z: check_equiv(
        Arrow(x, Arrow(y, z)), Arrow(tensor(x, y), z)
    ).equivalent,
    "tensor_comm": lambda x, y: check_equiv(
        tensor(x, y), tensor(y, x)
    ).equivalent,
    "tensor_assoc": lambda x, y, z: check_equiv(
        tensor(tensor(x, y), z), tensor(x, tensor(y, z))
    ).equivalent,
    "functional_dual": _functional_dual_holds,
}


@pytest.mark.parametrize(
    "name,arity",
    [
        ("involution", 1),
        ("uncurry", 3),
        ("tensor_comm", 2),
        ("tensor_assoc", 3),
        ("functional_dual", 1),
    ],
)
def test_identities_on_random_types(rng, name, arity):
    for _ in range(40):
        args = [random_type(rng, 2, dims=(1, 2, 3)) for _ in range(arity)]
        assert LAWS[name](*args), (name, args)


def test_tensor_elem_identity():
    # the tensor of two elementary layers is their composite layer
    a = parse_type("A:2")
    b = parse_type("B:3")
    v = check_equiv(tensor(a, b), Elementary(a.atoms + b.atoms))
    assert v.equivalent and v.permutation == (0, 1)
    assert check_equiv(tensor(a, b), parse_type("A:2*B:3")).equivalent


@given(type_strategy(max_leaves=4))
def test_functional_dual_relation(x):
    # lambda flips through the dual and the index set complements, on the
    # nontrivial positions
    xbar = bar(x)
    lam = lambda_recursive(x)
    assert lambda_recursive(xbar) == 1 / (lam * total_dim(x))
    assert _functional_dual_holds(x)


@given(type_strategy(max_leaves=4))
def test_equiv_is_reflexive(x):
    v = check_equiv(x, x)
    assert v.equivalent and v.permutation == tuple(range(len(upsilon(x).dims)))


def test_extension_lambda_and_index_growth():
    # adjoining a bystander divides lambda by its dimension and padding the
    # index strings with an always-1 bit stays inside the new index set
    from hoq.subspace_algebra import concat

    for text in ["A:2", "A:2->B:2", "(A:2->B:2)->C:2"]:
        x = parse_type(text)
        ext = extend_by(x, Atom("Z", 3))
        assert lambda_recursive(ext) == lambda_recursive(x) / 3
        padded = concat(delta_of_type(x), StringSet.from_bitstrings(1, ["1"]))
        assert padded.strings <= delta_of_type(ext).strings
