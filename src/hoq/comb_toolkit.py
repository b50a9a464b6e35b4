"""Left-nested map hierarchies (combs): closed forms, two-sided layout,
normalization and composition.

An n-comb over teeth x_1 .. x_n is the type ((..(x_1 -> x_2) ..) -> x_n).
For channel-shaped teeth A_i -> B_i it is equivalent to the elementary-layer
chain E_1 .. E_2n with E_i = A_{n-i+1} for i <= n and E_i = B_{i-n} above,
i.e. the familiar two-sided layout (A_n, .., A_1, B_1, .., B_n); the
permutation realizing the equivalence comes from comb_equiv_permutation.

Only check_comb_normalization and random_comb_choi use numpy; they import it
when called, so the exact closed forms load without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, Optional, Sequence

from hoq.semantics import lambda_recursive
from hoq.subspace_algebra import (
    MAX_EXPLICIT_FACTORS,
    CapacityError,
    StringSet,
    complement_in_T,
    concat,
    delta_of_type,
    full_sets,
    intersection,
    normal_form,
    permute,
    perp_in_W,
    union,
)
from hoq.type_ast import (
    Arrow,
    Atom,
    Elementary,
    TypeExpr,
    factor_dims,
    make_comb,
    natural_structure,
    print_structure,
    total_dim,
)

if TYPE_CHECKING:
    import numpy as np

    from hoq.choi_numeric import HermOp

__all__ = [
    "CombSpec",
    "comb_delta_closed",
    "comb_lambda_closed",
    "comb_equiv_permutation",
    "expand_slot_perm",
    "check_comb_normalization",
    "random_comb_choi",
    "comb_tensor_delta",
    "comb_arrow_delta",
]


@dataclass(frozen=True)
class CombSpec:
    """An n-comb description: tooth count, tooth types, derived comb type."""

    n: int
    bases: tuple[TypeExpr, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a comb needs at least one tooth")
        if len(self.bases) != self.n:
            raise ValueError(f"{len(self.bases)} bases for an {self.n}-comb")
        object.__setattr__(self, "bases", tuple(self.bases))

    @staticmethod
    def uniform(base: TypeExpr, n: int) -> "CombSpec":
        return CombSpec(n, (base,) * n)

    @property
    def derived(self) -> TypeExpr:
        """The comb type itself, left-nested over the teeth."""
        return make_comb(self.bases)


def _tooth_sets(spec: CombSpec) -> list[dict[str, StringSet]]:
    """Per-tooth index sets W, e, D, D-bar, D-perp, in tooth order."""
    structures = {print_structure(natural_structure(b)) for b in spec.bases}
    if len(structures) > 1:
        raise ValueError(
            f"mixed base structures {sorted(structures)}: the closed forms "
            f"need every tooth to share one structure"
        )
    out = []
    for base in spec.bases:
        d = delta_of_type(base)
        w, _, e = full_sets(d.length)
        out.append(
            {
                "W": w,
                "e": e,
                "D": d,
                "Dbar": complement_in_T(d),
                "Dperp": perp_in_W(d),
            }
        )
    return out


def comb_delta_closed(spec: CombSpec) -> StringSet:
    """Index set of the n-comb by the closed union formula (full positions).

    Agrees with delta_of_type(spec.derived); the two routes are independent
    and tested against each other.  A comb over more than
    MAX_EXPLICIT_FACTORS positions raises CapacityError before any block is
    built.
    """
    positions = sum(len(factor_dims(b)) for b in spec.bases)
    if positions > MAX_EXPLICIT_FACTORS:
        raise CapacityError(
            f"the comb has {positions} factor positions; its index set is "
            f"built explicitly up to {MAX_EXPLICIT_FACTORS}"
        )
    n = spec.n
    teeth = _tooth_sets(spec)

    def block(kinds: Sequence[str]) -> StringSet:
        assert len(kinds) == n
        acc = StringSet(0, frozenset({0}))
        for tooth, kind in zip(teeth, kinds):
            acc = concat(acc, tooth[kind])
        return acc

    terms: list[StringSet] = []
    if n % 2 == 1:
        for l in range(1, (n + 1) // 2 + 1):
            terms.append(
                block(["W"] * (n - 2 * l + 1) + ["D"] + ["Dperp"] * (2 * l - 2))
            )
        for l in range(1, (n - 1) // 2 + 1):
            terms.append(
                block(["e"] * (2 * l - 1) + ["Dbar"] + ["Dperp"] * (n - 2 * l))
            )
    else:
        for l in range(1, n // 2 + 1):
            terms.append(
                block(["W"] * (n - 2 * l + 1) + ["D"] + ["Dperp"] * (2 * l - 2))
            )
            terms.append(
                block(["e"] * (2 * l - 2) + ["Dbar"] + ["Dperp"] * (n - 2 * l + 1))
            )
    result = terms[0]
    for term in terms[1:]:
        result = union(result, term)
    return result


def comb_lambda_closed(spec: CombSpec) -> Fraction:
    """Identity coefficient of the n-comb by the closed product formula."""
    lam = [lambda_recursive(b) for b in spec.bases]  # 0-indexed teeth
    dim = [total_dim(b) for b in spec.bases]
    n = spec.n
    if n % 2 == 1:
        out = lam[n - 1]
        for i in range(1, (n - 1) // 2 + 1):
            out *= lam[2 * i - 2] / (lam[2 * i - 1] * dim[2 * i - 1])
        return out
    out = Fraction(1)
    for i in range(1, n // 2 + 1):
        out *= lam[2 * i - 1] / (lam[2 * i - 2] * dim[2 * i - 2])
    return out


def comb_equiv_permutation(n: int) -> tuple[int, ...]:
    """Slot permutation onto the two-sided layout (A_n, .., A_1, B_1, .., B_n).

    Gather convention over the comb's 2n tooth slots (A_1, B_1, .., A_n, B_n):
    output slot i reads input slot perm[i].  n = 1 gives the identity on two
    slots; n = 2 gives (A_2, A_1, B_1, B_2), i.e. (2, 0, 1, 3).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(2 * (n - 1 - i) for i in range(n)) + tuple(
        2 * k + 1 for k in range(n)
    )


def expand_slot_perm(
    perm: Sequence[int], slot_sizes: Sequence[int]
) -> tuple[int, ...]:
    """Refine a slot-level permutation to positions, slots kept contiguous."""
    if sorted(perm) != list(range(len(slot_sizes))):
        raise ValueError("perm must permute the slots")
    starts = [0]
    for size in slot_sizes:
        starts.append(starts[-1] + size)
    out: list[int] = []
    for slot in perm:
        out.extend(range(starts[slot], starts[slot] + slot_sizes[slot]))
    return tuple(out)


def _channel_slots(spec: CombSpec) -> tuple[list[int], list[int]]:
    """Per-tooth (input, output) slot dimensions; teeth must be channel-shaped."""
    ins: list[int] = []
    outs: list[int] = []
    for base in spec.bases:
        if not (
            isinstance(base, Arrow)
            and isinstance(base.tail, Elementary)
            and isinstance(base.head, Elementary)
        ):
            raise ValueError(
                "comb normalization needs channel-shaped teeth "
                "(elementary -> elementary)"
            )
        ins.append(total_dim(base.tail))
        outs.append(total_dim(base.head))
    return ins, outs


def check_comb_normalization(
    R: HermOp, spec: CombSpec, tol: float = 1e-9
) -> bool:
    """Telescoping normalization test in the two-sided layout.

    ``R`` must already carry the layout (A_n, .., A_1, B_1, .., B_n) — i.e.
    reorder_factors(comb-layout operator, expanded comb_equiv_permutation(n)).
    Relabelling those 2n wires E_1 .. E_2n, the deterministic elements are
    exactly the sequential circuits with teeth E_1 -> E_2, E_3 -> E_4, ..;
    this checks R >= -tol and, for k = n .. 1: tracing out the last wire
    E_2k leaves the identity on the then-last wire E_{2k-1} tensored with
    R^(k-1), with the final scalar equal to 1.  Each residual is measured in
    Frobenius norm relative to max(1, ||R||).
    """
    import numpy as np

    from hoq.choi_numeric import HermOp, partial_trace

    ins, outs = _channel_slots(spec)
    n = spec.n
    slot_dims = tuple(reversed(ins)) + tuple(outs)
    side = prod(slot_dims)
    if R.matrix.shape[0] != side:
        raise ValueError(
            f"operator side {R.matrix.shape[0]} does not match teeth {slot_dims}"
        )
    scale = max(1.0, float(np.linalg.norm(R.matrix)))
    if float(np.linalg.eigvalsh(R.matrix)[0]) < -tol * scale:
        return False
    # fuse atom-level factors into slots (pure reshape; slots are contiguous)
    current = HermOp(slot_dims, R.matrix)
    for k in range(n, 0, -1):
        traced = partial_trace(current, [len(current.dims) - 1])  # drop E_2k
        a_k = traced.dims[-1]
        reduced = partial_trace(traced, [len(traced.dims) - 1])  # drop E_2k-1
        reduced = HermOp(reduced.dims, reduced.matrix / a_k)
        model = np.kron(reduced.matrix, np.eye(a_k, dtype=complex))
        if float(np.linalg.norm(traced.matrix - model)) > tol * scale:
            return False
        current = reduced
    return abs(float(current.matrix[0, 0].real) - 1.0) <= tol * scale


def random_comb_choi(
    spec: CombSpec,
    rng: np.random.Generator,
    memory_dim: int = 2,
    kraus_per_tooth: int = 2,
) -> HermOp:
    """Choi of a random sequential network, in the two-sided wire layout.

    Writing the layout (A_n, .., A_1, B_1, .., B_n) as wires E_1 .. E_2n,
    this draws for every k a random channel E_{2k-1} (x) M_{k-1} ->
    E_2k (x) M_k (memories M_0, M_n trivial) and contracts the memory line.
    The result satisfies the telescoping recursion by construction, so it
    passes check_comb_normalization, and reordering by the inverse of the
    expanded comb_equiv_permutation gives a deterministic element of
    spec.derived.
    """
    import numpy as np

    from hoq.choi_numeric import HermOp

    ins, outs = _channel_slots(spec)
    wire_dims = tuple(reversed(ins)) + tuple(outs)
    n = spec.n
    mems = [1] + [memory_dim] * (n - 1) + [1]
    chain: Optional[np.ndarray] = None  # axes (kraus, wires.., memory)
    for k in range(n):
        d_in, d_out = wire_dims[2 * k], wire_dims[2 * k + 1]
        rows = d_in * mems[k]
        s_k = max(kraus_per_tooth, -(-rows // (d_out * mems[k + 1])))
        gauss = rng.normal(size=(d_out * mems[k + 1] * s_k, rows)) + 1j * (
            rng.normal(size=(d_out * mems[k + 1] * s_k, rows))
        )
        isometry, _ = np.linalg.qr(gauss)  # columns orthonormal: a channel
        kraus = isometry.reshape(d_out, mems[k + 1], s_k, d_in, mems[k])
        if chain is None:
            # axes: (s_1, i_1, o_1, m_1)
            chain = kraus[:, :, :, :, 0].transpose(2, 3, 0, 1)
        else:
            # contract old memory, append (i_k, o_k), keep new memory last
            chain = np.tensordot(chain, kraus, axes=([-1], [4]))
            # axes now (.., s_k?) -> (s_old, wires.., o_k, m_k, s_k, i_k)
            chain = np.moveaxis(chain, (-4, -3, -2, -1), (-2, -1, 0, -3))
            # axes: (s_k, s_old, wires.., i_k, o_k, m_k); fuse kraus axes
            chain = chain.reshape((-1,) + chain.shape[2:])
    assert chain is not None
    flat = chain.reshape(chain.shape[0], -1)  # trailing memory is size 1
    matrix = np.einsum("sw,sv->wv", flat, flat.conj())
    return HermOp(wire_dims, matrix)


# --------------------------------------------------------------------------
# composition of comb hierarchies
# --------------------------------------------------------------------------


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
