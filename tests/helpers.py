"""Small constructors that only the tests need: the identity operator, a
random density matrix, the Choi matrix of a channel from its Kraus operators
and of a random channel, the partial trace, the JSON forms of an index set
and of a matrix file (the package only reads both kinds of file), a type
with one more output system, and the exponents of the closed form of λ."""

from __future__ import annotations

import json
from math import prod
from typing import Sequence

import numpy as np

from hoq.choi_numeric import HermOp, matrix_to_json_obj
from hoq.subspace_algebra import StringSet
from hoq.type_ast import Arrow, Atom, Elementary, TypeExpr


def identity_op(dims: Sequence[int]) -> HermOp:
    dims = tuple(dims)
    return HermOp(dims, np.eye(prod(dims), dtype=complex))


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def choi_from_kraus(kraus: Sequence[np.ndarray]) -> HermOp:
    """Choi matrix (input factor first) of the channel with given Kraus ops."""
    ks = np.asarray(kraus, dtype=complex)
    if ks.ndim != 3:
        raise ValueError("expected a stack of Kraus matrices")
    _, d_out, d_in = ks.shape
    choi = np.einsum("kai,kbj->iajb", ks, ks.conj())
    side = d_in * d_out
    return HermOp((d_in, d_out), choi.reshape(side, side))


def random_channel_choi(d_in: int, d_out: int, rng: np.random.Generator) -> HermOp:
    """Choi matrix of a Haar-ish random channel with d_in * d_out Kraus ops."""
    n = d_in * d_out
    g = rng.standard_normal((n, d_out, d_in)) + 1j * rng.standard_normal(
        (n, d_out, d_in)
    )
    s = np.einsum("kai,kaj->ij", g.conj(), g)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return choi_from_kraus(g @ inv_sqrt)


def partial_trace(O: HermOp, positions: Sequence[int]) -> HermOp:
    """Trace out the given factor positions (0-based); the rest keep order."""
    k = len(O.dims)
    traced = set(int(p) for p in positions)
    if any(p < 0 or p >= k for p in traced):
        raise ValueError(f"positions {sorted(traced)} out of range for {k} factors")
    keep = [i for i in range(k) if i not in traced]
    t = O.matrix.reshape(O.dims + O.dims)
    row = list(range(k))
    col = [i if i in traced else k + i for i in range(k)]
    out = [i for i in keep] + [k + i for i in keep]
    reduced = np.einsum(t, row + col, out)
    new_dims = tuple(O.dims[i] for i in keep)
    side = prod(new_dims)
    return HermOp(new_dims, reduced.reshape(side, side))


def to_json_obj(J: StringSet, dims: Sequence[int]) -> dict:
    """JSON form: sorted bitstrings plus the sibling dims list."""
    dims = tuple(dims)
    if len(dims) != J.length:
        raise ValueError(f"{len(dims)} dims for strings of length {J.length}")
    return {"strings": J.as_bitstrings(), "dims": list(dims)}


def save_matrix(path: str, O: HermOp) -> None:
    # json.dumps encodes in C; json.dump streams through the Python encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(matrix_to_json_obj(O)) + "\n")


def extend_by(x: TypeExpr, extra: Atom) -> TypeExpr:
    """Adjoin a bystander system to the innermost output layer.

    For an elementary layer the atom is appended to the group; for an arrow
    the extension recurses into the head, so the new atom always lands on the
    final output and is the last factor in print order.
    """
    if isinstance(x, Elementary):
        return Elementary(x.atoms + (extra,))
    return Arrow(x.tail, extend_by(x.head, extra))


def k_exponents(x: TypeExpr) -> tuple[int, ...]:
    """Exponent pattern of the identity-coefficient closed form.

    Returns one bit per atom occurrence (factor order) such that
    ``prod(d_i ** -k_i) == lambda(x)`` exactly.  Equivalently: in the
    canonical rendering, k_i = (number of "->" plus "(" strictly to the
    right of atom i, plus one) mod 2.  Computed structurally: every atom of
    an elementary layer carries 1; an arrow flips the tail's exponents and
    keeps the head's.
    """
    if isinstance(x, Elementary):
        return (1,) * len(x.atoms)
    flipped = tuple(1 - k for k in k_exponents(x.tail))
    return flipped + k_exponents(x.head)
