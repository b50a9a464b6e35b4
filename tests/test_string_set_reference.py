"""The bitmap index sets against the frozenset representation they replaced.

``RefSet`` and the functions below it hold an index set as a frozenset of
ints and run every operation string by string, as the package did before it
held each set as one int of 2^length bits.  Every operation of the package,
the Delta recursion in both position conventions and the comb closed form
must give the same sets, in the same order, as this reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import hypothesis.strategies as st
import pytest
from hypothesis import given

from generators import type_strategy
from hoq.comb_toolkit import CombSpec, comb_delta_closed
from hoq.subspace_algebra import (
    _SPARSE_STRINGS,
    StringSet,
    complement_in_T,
    concat,
    delta_normal_form,
    delta_of_type,
    dim_of_delta,
    full_sets,
    normal_form,
    permute,
    perp_in_W,
    union,
)
from hoq.type_ast import Arrow, Elementary, TypeExpr, factor_dims, parse_type

# --------------------------------------------------------------------------
# the reference: index sets as frozensets of ints
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RefSet:
    length: int
    strings: frozenset[int]

    def as_bitstrings(self) -> list[str]:
        return [
            format(s, f"0{self.length}b") if self.length else ""
            for s in sorted(self.strings)
        ]


def ref_everything(length: int) -> frozenset[int]:
    return frozenset(range(1 << length))


def ref_full_sets(length: int) -> tuple[RefSet, RefSet, RefSet]:
    e = (1 << length) - 1
    everything = ref_everything(length)
    return (
        RefSet(length, everything),
        RefSet(length, everything - {e}),
        RefSet(length, frozenset({e})),
    )


def ref_complement_in_T(J: RefSet) -> RefSet:
    e = (1 << J.length) - 1
    assert e not in J.strings
    return RefSet(J.length, ref_everything(J.length) - J.strings - {e})


def ref_perp_in_W(J: RefSet) -> RefSet:
    return RefSet(J.length, ref_everything(J.length) - J.strings)


def ref_union(a: RefSet, b: RefSet) -> RefSet:
    assert a.length == b.length
    return RefSet(a.length, a.strings | b.strings)


def ref_concat(a: RefSet, b: RefSet) -> RefSet:
    shift = b.length
    return RefSet(
        a.length + shift,
        frozenset((u << shift) | v for u in a.strings for v in b.strings),
    )


def ref_permute(J: RefSet, perm: Sequence[int]) -> RefSet:
    ell = J.length
    out = set()
    for s in J.strings:
        v = 0
        for i, p in enumerate(perm):
            v |= ((s >> (ell - 1 - p)) & 1) << (ell - 1 - i)
        out.add(v)
    return RefSet(ell, frozenset(out))


def ref_normal_form(J: RefSet, dims: Sequence[int]) -> tuple[RefSet, tuple[int, ...]]:
    ell = J.length
    keep = [i for i, d in enumerate(dims) if d > 1]
    out = set()
    for s in J.strings:
        if all((s >> (ell - 1 - i)) & 1 for i, d in enumerate(dims) if d == 1):
            v = 0
            for j, i in enumerate(keep):
                v |= ((s >> (ell - 1 - i)) & 1) << (len(keep) - 1 - j)
            out.add(v)
    return RefSet(len(keep), frozenset(out)), tuple(dims[i] for i in keep)


def ref_dim_of_delta(J: RefSet, dims: Sequence[int]) -> int:
    ell = J.length
    total = 0
    for s in J.strings:
        term = 1
        for i, d in enumerate(dims):
            if not (s >> (ell - 1 - i)) & 1:
                term *= d * d - 1
        total += term
    return total


def ref_delta(x: TypeExpr, full: bool) -> RefSet:
    if isinstance(x, Elementary):
        k = len(x.atoms) if full else sum(a.dim > 1 for a in x.atoms)
        if all(a.dim == 1 for a in x.atoms):
            return RefSet(k, frozenset())
        return ref_full_sets(k)[1]
    assert isinstance(x, Arrow)
    d_tail, d_head = ref_delta(x.tail, full), ref_delta(x.head, full)
    return ref_union(
        ref_concat(ref_full_sets(d_tail.length)[0], d_head),
        ref_concat(ref_complement_in_T(d_tail), ref_perp_in_W(d_head)),
    )


# --------------------------------------------------------------------------
# agreement
# --------------------------------------------------------------------------


def agrees(J: StringSet, ref: RefSet) -> bool:
    """Same length, same strings, in ascending order, with the same size
    and the same rendering."""
    return (
        J.length == ref.length
        and list(J) == sorted(ref.strings)
        and len(J) == len(ref.strings)
        and J.strings == ref.strings
        and J.as_bitstrings() == ref.as_bitstrings()
    )


@st.composite
def string_sets(
    draw, min_length: int = 0, max_length: int = 10
) -> tuple[StringSet, RefSet]:
    """A random set of strings of one random length, of any density, in
    both representations."""
    length = draw(st.integers(min_length, max_length))
    bitmap = draw(st.integers(0, (1 << (1 << length)) - 1))
    strings = [s for s in range(1 << length) if bitmap >> s & 1]
    return StringSet(length, strings), RefSet(length, frozenset(strings))


@st.composite
def same_length_pairs(draw):
    a = draw(string_sets())
    b = draw(string_sets(a[0].length, a[0].length))
    return a, b


@given(same_length_pairs())
def test_set_algebra_agrees(pair):
    (a, ra), (b, rb) = pair
    assert agrees(a, ra) and agrees(b, rb)
    assert agrees(union(a, b), ref_union(ra, rb))
    assert agrees(perp_in_W(a), ref_perp_in_W(ra))
    e = (1 << a.length) - 1
    if e in ra.strings:
        with pytest.raises(ValueError):
            complement_in_T(a)
    else:
        assert agrees(complement_in_T(a), ref_complement_in_T(ra))
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)


@given(st.integers(0, 10))
def test_full_sets_agree(length):
    for got, want in zip(full_sets(length), ref_full_sets(length)):
        assert agrees(got, want)


@given(string_sets(max_length=5), string_sets(max_length=5))
def test_concat_agrees(a, b):
    assert agrees(concat(a[0], b[0]), ref_concat(a[1], b[1]))


@st.composite
def concat_left_operands(draw) -> tuple[StringSet, RefSet]:
    """A left operand of concat in one of the shapes that pick its method:
    W, exactly _SPARSE_STRINGS strings (the most shifted one by one), one
    string more (the least widened as text), or empty."""
    shape = draw(st.sampled_from(("full", "bound", "above", "empty")))
    if shape == "full":
        length = draw(st.integers(0, 8))
        strings = list(range(1 << length))
    elif shape == "empty":
        length = draw(st.integers(0, 8))
        strings = []
    else:
        size = _SPARSE_STRINGS + (shape == "above")
        length = draw(st.integers(size.bit_length(), 8))  # 2^length > size: not W
        strings = draw(st.lists(st.integers(0, (1 << length) - 1),
                                min_size=size, max_size=size, unique=True))
    return StringSet(length, strings), RefSet(length, frozenset(strings))


@given(concat_left_operands(), string_sets(max_length=8))
def test_concat_methods_agree(a, b):
    assert agrees(concat(a[0], b[0]), ref_concat(a[1], b[1]))


@given(string_sets(), st.data())
def test_membership_agrees(sets, data):
    J, ref = sets
    for s in range(-1, (1 << J.length) + 1):
        assert (s in J) == (s in ref.strings)
    too_long = [format(s, f"0{J.length + 1}b") for s in (0, 1)]
    for text in ref.as_bitstrings() + too_long:
        in_ref = len(text) == J.length and int(text or "0", 2) in ref.strings
        assert (text in J) == in_ref
    probe = data.draw(st.text("01", min_size=J.length, max_size=J.length))
    assert (probe in J) == (int(probe or "0", 2) in ref.strings)


@given(string_sets(), st.data())
def test_permute_agrees(sets, data):
    J, ref = sets
    perm = data.draw(st.permutations(range(J.length)))
    assert agrees(permute(J, perm), ref_permute(ref, perm))


@given(string_sets(), st.data())
def test_dims_dependent_operations_agree(sets, data):
    J, ref = sets
    dims = data.draw(st.lists(st.sampled_from((1, 2, 3, 5)),
                              min_size=J.length, max_size=J.length))
    assert dim_of_delta(J, dims) == ref_dim_of_delta(ref, dims)
    got, got_dims = normal_form(J, dims)
    want, want_dims = ref_normal_form(ref, dims)
    assert agrees(got, want) and got_dims == want_dims


@given(type_strategy(max_leaves=8))
def test_delta_recursion_agrees(x):
    assert agrees(delta_of_type(x), ref_delta(x, True))
    got, dims = delta_normal_form(x)
    assert agrees(got, ref_delta(x, False))
    assert dims == tuple(d for d in factor_dims(x) if d > 1)


COMBS = [("A:2->B:2", n) for n in range(1, 11)] + [
    ("(A:2->B:2)->C:2", n) for n in range(1, 8)
]


@pytest.mark.parametrize("base,n", COMBS)
def test_comb_closed_form_agrees_with_recursion(base, n):
    spec = CombSpec.uniform(parse_type(base), n)
    closed = comb_delta_closed(spec)
    assert closed == delta_of_type(spec.derived)
    if closed.length <= 12:
        assert agrees(closed, ref_delta(spec.derived, True))


LARGE_COMBS = [("A:2->B:2", 11), ("A:2->B:2", 12), ("(A:2->B:2)->C:2", 8)]


@pytest.mark.parametrize("base,n", LARGE_COMBS)
def test_large_comb_closed_form_agrees_with_recursion(base, n):
    spec = CombSpec.uniform(parse_type(base), n)
    assert comb_delta_closed(spec) == delta_of_type(spec.derived)
