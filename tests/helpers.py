"""Small constructors that only the tests need: the identity operator, a
random density matrix, the partial trace, and the JSON forms of an index set
and of a matrix file (the package only reads both kinds of file)."""

from __future__ import annotations

import json
from math import prod
from typing import Sequence

import numpy as np

from hoq.choi_numeric import HermOp, matrix_to_json_obj
from hoq.subspace_algebra import StringSet


def identity_op(dims: Sequence[int]) -> HermOp:
    dims = tuple(dims)
    return HermOp(dims, np.eye(prod(dims), dtype=complex))


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json_obj(O), fh)
        fh.write("\n")
