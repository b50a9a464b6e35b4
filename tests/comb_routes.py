"""Test-only index-set routes that the package itself does not need.

``intersection`` intersects two sets of one length and ``concat_power``
repeats a set by concatenation.  ``comb_tensor_delta`` and
``comb_arrow_delta`` build the index sets of tensor and arrow compositions
of combs from wire-level chains, a route independent of the Delta recursion
on the composite type, which the tests compare them with.  Unlike
tests/oracles.py, these routes do call the package's recursion on the wire
chains.
"""

from __future__ import annotations

from typing import Optional, Sequence

from hoq.comb_toolkit import comb_equiv_permutation
from hoq.subspace_algebra import (
    StringSet,
    concat,
    delta_of_type,
    normal_form,
    permute,
    union,
)
from hoq.type_ast import Arrow, Atom, Elementary, TypeExpr, make_comb


def intersection(a: StringSet, b: StringSet) -> StringSet:
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    return StringSet(a.length, a.strings & b.strings)


def concat_power(J: StringSet, k: int) -> StringSet:
    """k-fold concatenation of J with itself; k = 0 gives {ε}."""
    if k < 0:
        raise ValueError("negative power")
    out = StringSet(0, frozenset({0}))
    for _ in range(k):
        out = concat(out, J)
    return out


def _channel_tooth(dims: Sequence[int]) -> TypeExpr:
    d_in, d_out = (int(d) for d in dims)

    def atom(label: str, d: int) -> Atom:
        return Atom("I", 1) if d == 1 else Atom(label, d)

    return Arrow(
        Elementary((atom("P", d_in),)), Elementary((atom("Q", d_out),))
    )


def _block_swap(first_len: int, second_len: int) -> list[int]:
    """Gather permutation turning layout (second, first) into (first, second)."""
    return list(range(second_len, second_len + first_len)) + list(
        range(second_len)
    )


def _wire_teeth(wire_dims: Sequence[int]) -> list[TypeExpr]:
    return [
        Elementary((Atom("I", 1) if d == 1 else Atom("W", int(d)),))
        for d in wire_dims
    ]


def _wire_chain(wire_dims: Sequence[int]) -> TypeExpr:
    """Left-nested chain over single elementary wires of the given dims.

    Its deterministic elements are the sequential circuits whose k-th channel
    maps wire 2k-1 to wire 2k, in the layout's own wire order.
    """
    return make_comb(_wire_teeth(wire_dims))


def comb_tensor_delta(
    m: int,
    n: int,
    base_dims: Sequence[int],
    other_base_dims: Optional[Sequence[int]] = None,
) -> StringSet:
    """Normal-formed index set of (m-comb) tensor (n-comb) over channel teeth.

    base_dims = (d_in, d_out) of the m-comb's teeth; other_base_dims of the
    n-comb's (defaults to base_dims).  Each block is put into its two-sided
    wire order (inputs reversed, then outputs), where the block's circuits
    live; the set is the intersection of the chain that runs the m block's
    teeth first with the block-swapped image of the chain running the n
    block first, mapped back to type order at the end.  This is a route
    independent of, and tested against, delta_of_type(tensor(m-comb,
    n-comb)).
    """
    if m < 1 or n < 1:
        raise ValueError("comb sizes must be positive")
    there = list(base_dims)
    other = list(other_base_dims if other_base_dims is not None else base_dims)
    if len(there) != 2 or len(other) != 2:
        raise ValueError("base dims must be (d_in, d_out) pairs")
    m_wires = [there[0]] * m + [there[1]] * m  # (A_m .. A_1, B_1 .. B_m)
    n_wires = [other[0]] * n + [other[1]] * n
    joined = delta_of_type(_wire_chain(m_wires + n_wires))
    swapped = delta_of_type(_wire_chain(n_wires + m_wires))
    aligned = permute(swapped, _block_swap(len(m_wires), len(n_wires)))
    inter = intersection(joined, aligned)
    # wire order -> per-block type order (A_1, B_1, .., A_k, B_k)
    to_wires = list(comb_equiv_permutation(m)) + [
        2 * m + i for i in comb_equiv_permutation(n)
    ]
    from_wires = [0] * len(to_wires)
    for i, j in enumerate(to_wires):
        from_wires[j] = i
    dims_type = there * m + other * n
    return normal_form(permute(inter, from_wires), tuple(dims_type))[0]


def comb_arrow_delta(
    n: int,
    m: int,
    base_dims: Sequence[int],
    other_base_dims: Optional[Sequence[int]] = None,
) -> StringSet:
    """Normal-formed index set of (n-comb) -> (m-comb) over channel teeth.

    base_dims describes the n-comb's teeth, other_base_dims the m-comb's.
    Uses the union formula: currying turns the arrow into
    (n-comb tensor (m-1)-comb) -> last tooth, and the tensor's two circuit
    orderings turn into a union of two arrow sets over wire-level chains
    (the head tooth staying put).  Positions of the result are (n-comb
    factors, m-comb factors) in type order; equals the normal form of
    delta_of_type(Arrow(n-comb, m-comb)).
    """
    if m < 1 or n < 1:
        raise ValueError("comb sizes must be positive")
    tail = list(base_dims)
    head = list(other_base_dims if other_base_dims is not None else base_dims)
    if len(tail) != 2 or len(head) != 2:
        raise ValueError("base dims must be (d_in, d_out) pairs")
    last_tooth = _channel_tooth(head)
    n_wires = [tail[0]] * n + [tail[1]] * n  # two-sided wire order per block
    h_wires = [head[0]] * (m - 1) + [head[1]] * (m - 1)

    def arrow_set(wires: list[int]) -> StringSet:
        return delta_of_type(make_comb(_wire_teeth(wires) + [last_tooth]))

    straight = arrow_set(n_wires + h_wires)
    if m == 1:
        combined = straight
    else:
        tooth_pos = 2 * (n + m - 1)
        aligned = permute(
            arrow_set(h_wires + n_wires),
            _block_swap(len(n_wires), len(h_wires))
            + [tooth_pos, tooth_pos + 1],
        )
        combined = union(straight, aligned)
    # wire order -> per-block type order; the head tooth is already in place
    to_wires = list(comb_equiv_permutation(n))
    if m > 1:
        to_wires += [2 * n + i for i in comb_equiv_permutation(m - 1)]
    to_wires += [len(to_wires), len(to_wires) + 1]
    from_wires = [0] * len(to_wires)
    for i, j in enumerate(to_wires):
        from_wires[j] = i
    dims_type = tail * n + head * m
    return normal_form(permute(combined, from_wires), tuple(dims_type))[0]
