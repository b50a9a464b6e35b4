"""Left-nested map hierarchies (combs): two-sided layout, random networks
and closed-form reference routes.

An n-comb over teeth x_1 .. x_n is the type ((..(x_1 -> x_2) ..) -> x_n),
with 1 <= n <= MAX_NESTING.  For channel-shaped teeth A_i -> B_i the comb is
equivalent to the elementary-layer chain E_1 .. E_2n with E_i = A_{n-i+1}
for i <= n and E_i = B_{i-n} above, i.e. the two-sided layout (A_n, .., A_1,
B_1, .., B_n) that comb_equiv_permutation realizes.

The closed forms for the scale and index set (any teeth) and the telescoping
check_comb_normalization are reference routes, independent of the recursion
and check_deterministic by which the package answers; the tests and
perfbench/ compare the two.  check_comb_normalization and random_comb_choi
import numpy when called, so the closed forms load without it.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, Optional, Sequence

from hoq.semantics import lambda_recursive
from hoq.subspace_algebra import (
    StringSet,
    _refuse_beyond_capacity,
    complement_in_T,
    concat,
    delta_of_type,
    full_sets,
    perp_in_W,
    union,
)
from hoq.type_ast import (
    Arrow,
    Elementary,
    TypeExpr,
    _check_int,
    _check_perm,
    _check_tooth_count,
    factor_dims,
    make_comb,
    total_dim,
)

if TYPE_CHECKING:
    import numpy as np

    from hoq.choi_numeric import HermOp

# Inner memory dimension and least Kraus rank of random_comb_choi's teeth.
_MEMORY_DIM = 2
_KRAUS_PER_TOOTH = 2

__all__ = [
    "CombSpec",
    "comb_delta_closed",
    "comb_lambda_closed",
    "comb_equiv_permutation",
    "expand_slot_perm",
    "check_comb_normalization",
    "random_comb_choi",
]


class CombSpec:
    """An n-comb description: tooth count, tooth types, derived comb type."""

    __slots__ = ("n", "bases")

    def __init__(self, n: int, bases: Sequence[TypeExpr]) -> None:
        n = _check_tooth_count(n)  # before the teeth are drawn, n of them
        bases = tuple(bases)
        if len(bases) != n:
            raise ValueError(f"{len(bases)} bases for an {n}-comb")
        self.n = n
        self.bases = bases

    @staticmethod
    def uniform(base: TypeExpr, n: int) -> "CombSpec":
        return CombSpec(n, (base for _ in range(n)))  # drawn after n is checked

    @property
    def derived(self) -> TypeExpr:
        """The comb type itself, left-nested over the teeth."""
        return make_comb(self.bases)


def _tooth_sets(spec: CombSpec) -> list[dict[str, StringSet]]:
    """Per-tooth index sets W, e, D, D-bar, D-perp, in tooth order."""
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

    A reference route for delta_of_type(spec.derived), independent of it and
    checked against it by the tests.  A comb over more than MAX_FACTORS
    positions raises CapacityError before any block is built.
    """
    _refuse_beyond_capacity(len(factor_dims(spec.derived)), "factor positions")
    n = spec.n
    teeth = _tooth_sets(spec)

    def block(kinds: Sequence[str]) -> StringSet:
        # folded from the right, so the left operand of every concat is one
        # tooth's set (W, or few strings for a small tooth) and the growing
        # accumulator is only shifted
        assert len(kinds) == n
        acc = full_sets(0)[0]
        for tooth, kind in zip(reversed(teeth), reversed(kinds)):
            acc = concat(tooth[kind], acc)
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
    """Reference route: the n-comb's identity coefficient in closed form."""
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
    n = _check_int(n, 1, "tooth count")
    return tuple(2 * (n - 1 - i) for i in range(n)) + tuple(
        2 * k + 1 for k in range(n)
    )


def expand_slot_perm(
    perm: Sequence[int], slot_sizes: Sequence[int]
) -> tuple[int, ...]:
    """Refine a slot-level permutation to positions, slots kept contiguous."""
    perm = _check_perm(perm, len(slot_sizes))
    starts = [0]
    for size in slot_sizes:
        starts.append(starts[-1] + size)
    out: list[int] = []
    for slot in perm:
        out.extend(range(starts[slot], starts[slot] + slot_sizes[slot]))
    return tuple(out)


def _channel_slots(bases: Sequence[TypeExpr]) -> tuple[list[int], list[int]]:
    """Per-tooth (input, output) slot dimensions; teeth must be channel-shaped."""
    ins: list[int] = []
    outs: list[int] = []
    for base in bases:
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
    """Reference route: the telescoping normalization test, two-sided layout.

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

    ins, outs = _channel_slots(spec.bases)
    slot_dims = tuple(reversed(ins)) + tuple(outs)
    side = prod(slot_dims)
    current = R.matrix
    if current.shape[0] != side:
        raise ValueError(
            f"operator side {current.shape[0]} does not match teeth {slot_dims}"
        )
    scale = max(1.0, float(np.linalg.norm(current)))
    if float(np.linalg.eigvalsh(current)[0]) < -tol * scale:
        return False
    for k in range(spec.n, 0, -1):
        a_k, b_k = slot_dims[2 * k - 2], slot_dims[2 * k - 1]
        side //= a_k * b_k
        t = current.reshape(side, a_k, b_k, side, a_k, b_k)
        traced = np.trace(t, axis1=2, axis2=5)  # drop E_2k
        current = np.trace(traced, axis1=1, axis2=3) / a_k  # drop E_2k-1
        model = np.kron(current, np.eye(a_k)).reshape(traced.shape)
        if float(np.linalg.norm(traced - model)) > tol * scale:
            return False
    return abs(float(current[0, 0].real) - 1.0) <= tol * scale


def random_comb_choi(spec: CombSpec, rng: np.random.Generator) -> HermOp:
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

    ins, outs = _channel_slots(spec.bases)
    wire_dims = tuple(reversed(ins)) + tuple(outs)
    n = spec.n
    mems = [1] + [_MEMORY_DIM] * (n - 1) + [1]
    chain: Optional[np.ndarray] = None  # axes (kraus, wires.., memory)
    for k in range(n):
        d_in, d_out = wire_dims[2 * k], wire_dims[2 * k + 1]
        rows = d_in * mems[k]
        s_k = max(_KRAUS_PER_TOOTH, -(-rows // (d_out * mems[k + 1])))
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
