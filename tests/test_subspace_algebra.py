"""Index-string sets and the block-pattern recursion."""

import copy
import pickle

import pytest
from hypothesis import given
import hypothesis.strategies as st

from comb_routes import concat_power, intersection
from generators import type_strategy
from helpers import to_json_obj
from hoq.subspace_algebra import (
    MAX_FACTORS,
    CapacityError,
    StringSet,
    bits_to_int,
    complement_in_T,
    concat,
    delta_normal_form,
    delta_of_type,
    dim_of_delta,
    from_json_obj,
    full_sets,
    int_to_bits,
    normal_form,
    permute,
    perp_in_W,
    union,
)
from hoq.type_ast import factor_dims, parse_type


def sset(*bitstrings: str) -> StringSet:
    length = len(bitstrings[0]) if bitstrings else 0
    return StringSet.from_bitstrings(length, bitstrings)


def test_bits_round_trip():
    assert bits_to_int("1010") == 0b1010
    assert int_to_bits(0b1010, 4) == "1010"
    assert int_to_bits(0, 0) == ""


@given(st.integers(0, 2**16 - 1))
def test_bits_round_trip_property(v):
    assert bits_to_int(int_to_bits(v, 16)) == v


def test_string_set_validation():
    with pytest.raises(ValueError):
        StringSet(2, frozenset({4}))  # does not fit
    with pytest.raises(CapacityError):
        StringSet(MAX_FACTORS + 1, frozenset())
    with pytest.raises(ValueError):
        StringSet.from_bitstrings(3, ["01"])  # wrong length


def test_string_set_refuses_out_of_range_strings():
    with pytest.raises(ValueError, match="does not fit"):
        StringSet(2, frozenset({0, -1}))
    with pytest.raises(ValueError, match="does not fit"):
        StringSet(0, frozenset({1}))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: union(sset("0"), sset("00")), ValueError),
        (lambda: concat(StringSet(MAX_FACTORS, ()), sset("0")), CapacityError),
        (lambda: normal_form(sset("00"), (2,)), ValueError),
        (lambda: dim_of_delta(sset("00"), (2, 2, 2)), ValueError),
        (lambda: setattr(sset("0"), "bits", 0), AttributeError),
    ],
    ids=["union-lengths", "concat-capacity", "normal-form-dims",
         "dim-of-delta-dims", "immutable"],
)
def test_string_set_refusals(call, error):
    with pytest.raises(error):
        call()


def test_string_set_survives_pickle_and_deepcopy():
    J = sset("01", "10")
    assert pickle.loads(pickle.dumps(J)) == J
    assert copy.deepcopy(J) == J


def test_leftmost_factor_is_highest_bit():
    assert "10" in sset("10")
    assert bits_to_int("10") == 2


def test_full_sets_small():
    W, T, e = full_sets(2)
    assert W.as_bitstrings() == ["00", "01", "10", "11"]
    assert T.as_bitstrings() == ["00", "01", "10"]
    assert e.as_bitstrings() == ["11"]


def test_full_sets_refuses_huge():
    with pytest.raises(CapacityError):
        full_sets(25)


def test_set_operations():
    a = sset("00", "01")
    b = sset("01", "10")
    assert union(a, b) == sset("00", "01", "10")
    assert intersection(a, b) == sset("01")
    assert complement_in_T(a) == sset("10")
    # perp keeps exactly the strings whose complement-in-T misses, plus e
    assert perp_in_W(sset("00", "10")) == sset("01", "11")


def test_concat():
    assert concat(sset("0"), sset("1")) == sset("01")
    got = concat(sset("0", "1"), sset("10"))
    assert got == sset("010", "110")
    assert concat_power(sset("0"), 3) == sset("000")
    # epsilon is the identity for concatenation
    eps = StringSet(0, frozenset({0}))
    assert concat(eps, sset("01")) == sset("01")
    assert concat(sset("01"), eps) == sset("01")


def test_permute_gather_convention():
    # output position i reads input position perm[i]
    assert permute(sset("10"), (1, 0)) == sset("01")
    assert permute(sset("100"), (2, 0, 1)) == sset("010")


@given(st.lists(st.integers(0, 7), max_size=6), st.permutations(range(3)))
def test_permute_inverse(values, perm):
    J = StringSet(3, frozenset(values))
    inverse = [0, 0, 0]
    for i, p in enumerate(perm):
        inverse[p] = i
    assert permute(permute(J, perm), inverse) == J


# Frozen from tests/oracles.py (affine-hull nullspace derivation), reduced to
# normal form.  The oracle reports only blocks that carry actual directions,
# while delta_of_type may keep vacuous strings at dimension-one positions;
# the two conventions agree exactly after normal_form.
FROZEN_NORMAL = {
    "A:2": (["0"], (2,)),
    "A:3": (["0"], (3,)),
    "A:2*B:2": (["00", "01", "10"], (2, 2)),
    "A:2*B:3": (["00", "01", "10"], (2, 3)),
    "A:2->B:2": (["00", "10"], (2, 2)),
    "A:2->B:3": (["00", "10"], (2, 3)),
    "A:2->I": ([], (2,)),
    "I->A:2": (["0"], (2,)),
    "(A:2->I)->I": (["0"], (2,)),
    "(A:2->B:2)->C:2": (
        ["000", "010", "011", "100", "110"], (2, 2, 2)
    ),
    "A:2->(B:2->C:2)": (["000", "010", "100", "110"], (2, 2, 2)),
    "A:2*B:2->C:2": (["000", "010", "100", "110"], (2, 2, 2)),
    "(A:2->B:2)->(C:2->D:2)": (
        [
            "0000", "0010", "0100", "0101", "0110",
            "0111", "1000", "1010", "1100", "1110",
        ],
        (2, 2, 2, 2),
    ),
    "(A:2->B:3)->(C:3->D:2)": (
        [
            "0000", "0010", "0100", "0101", "0110",
            "0111", "1000", "1010", "1100", "1110",
        ],
        (2, 3, 3, 2),
    ),
    # tensor of two elementary qubits collapses to the composite layer
    "(A:2->(B:2->I))->I": (["00", "01", "10"], (2, 2)),
    # tensor of two qubit channels: the non-signalling pattern set
    "((A:2->B:2)->((C:2->D:2)->I))->I": (
        [
            "0000", "0010", "0011", "1000",
            "1010", "1011", "1100", "1110",
        ],
        (2, 2, 2, 2),
    ),
}


@pytest.mark.parametrize("text,expected", sorted(FROZEN_NORMAL.items()))
def test_delta_of_type_frozen(text, expected):
    x = parse_type(text)
    nf, dims = normal_form(delta_of_type(x), factor_dims(x))
    assert (nf.as_bitstrings(), tuple(dims)) == expected


def test_vacuous_strings_cost_no_dimension():
    # at full positions a dimension-one factor may appear with a traceless
    # bit; those strings index zero-dimensional blocks and never change the
    # total dimension
    x = parse_type("I->A:2")
    delta = delta_of_type(x)
    assert "00" in delta and "10" in delta
    assert dim_of_delta(delta, factor_dims(x)) == 3


# frozen from tests/oracles.py (hull dimension == direct-sum block dimension)
FROZEN_DIMS = {
    "A:2": 3,
    "A:2*B:3": 35,
    "A:2->B:2": 12,
    "A:2->I": 0,
    "(A:2->B:2)->C:2": 51,
    "A:2->(B:2->C:2)": 48,
    "(A:2->B:2)->(C:2->D:2)": 204,
    "(A:2->B:3)->(C:3->D:2)": 999,
}


@pytest.mark.parametrize("text,expected", sorted(FROZEN_DIMS.items()))
def test_dim_of_delta_frozen(text, expected):
    x = parse_type(text)
    assert dim_of_delta(delta_of_type(x), factor_dims(x)) == expected


@given(type_strategy(max_leaves=5))
def test_delta_lives_in_T(x):
    delta = delta_of_type(x)
    dims = factor_dims(x)
    assert delta.length == len(dims)
    e = (1 << len(dims)) - 1
    assert e not in delta.strings


def test_normal_form_drops_trivial_positions():
    # middle factor is trivial: strings must carry 1 there, position dropped
    got, dims = normal_form(sset("011", "100"), (2, 1, 3))
    assert got == sset("01")
    assert tuple(dims) == (2, 3)
    got2, dims2 = normal_form(sset("011", "110"), (2, 1, 3))
    assert got2 == sset("01", "10")
    assert tuple(dims2) == (2, 3)


def test_normal_form_idempotent_on_nontrivial_dims():
    J = sset("00", "10")
    got, dims = normal_form(J, (2, 3))
    assert got == J and tuple(dims) == (2, 3)


@given(type_strategy(max_leaves=5))
def test_normal_form_idempotent(x):
    delta = delta_of_type(x)
    dims = factor_dims(x)
    once, d1 = normal_form(delta, dims)
    twice, d2 = normal_form(once, tuple(d1))
    assert once == twice and tuple(d1) == tuple(d2)


@given(type_strategy(max_leaves=5))
def test_normal_form_preserves_dimension(x):
    delta = delta_of_type(x)
    dims = factor_dims(x)
    nf, nf_dims = normal_form(delta, dims)
    assert dim_of_delta(delta, dims) == dim_of_delta(nf, tuple(nf_dims))


def test_delta_normal_form_matches_two_steps():
    x = parse_type("(A:2->I)->I")
    nf, dims = delta_normal_form(x)
    assert nf == sset("0") and tuple(dims) == (2,)


@given(type_strategy())
def test_delta_normal_form_matches_normal_form(x):
    # the normal-form recursion against the reduction of the full-position set
    nf, dims = delta_normal_form(x)
    ref, ref_dims = normal_form(delta_of_type(x), factor_dims(x))
    assert nf == ref and tuple(dims) == tuple(ref_dims)


def test_more_than_24_non_trivial_factors_are_refused():
    x = parse_type("*".join(f"A{i}" for i in range(25)) + "->I")
    with pytest.raises(CapacityError):
        delta_normal_form(x)
    with pytest.raises(CapacityError):
        delta_of_type(x)
    with pytest.raises(CapacityError):
        complement_in_T(StringSet(25, frozenset()))
    with pytest.raises(CapacityError):
        perp_in_W(StringSet(25, frozenset()))
    # 25 trivial atoms: the recursion alone would return an empty set over
    # 25 positions; the full-position entry refuses it, the normal form has
    # no position at all
    x = parse_type("*".join(["I"] * 25))
    with pytest.raises(CapacityError, match="25 factor positions"):
        delta_of_type(x)
    assert delta_normal_form(x) == (StringSet(0, frozenset()), ())


def test_json_round_trip():
    J = sset("00", "10")
    obj = to_json_obj(J, (2, 3))
    assert obj == {"strings": ["00", "10"], "dims": [2, 3]}
    back, dims = from_json_obj(obj)
    assert back == J and tuple(dims) == (2, 3)
    with pytest.raises(ValueError):
        from_json_obj({"strings": ["00"]})
    with pytest.raises(ValueError, match=">= 1"):
        from_json_obj({"strings": ["0"], "dims": [0]})
