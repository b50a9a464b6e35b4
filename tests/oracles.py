"""Independent numerical oracle for type characterizations.

This is the reference the unit tests freeze their expected values from.  It
never touches the package's index-set recursion, lambda recursion, or block
projectors; everything is derived from the definition alone:

  * deterministic events of an elementary layer affinely span the unit-trace
    Hermitian slice;
  * a matrix M is in the affine hull for an arrow type exactly when the
    induced map carries the tail's hull into the head's hull, which is a
    linear condition solved here by least squares plus an SVD nullspace.

From the hull (offset + orthonormal directions) we read off the identity
coefficient as trace/side and recover the index set by projecting the
directions onto each identity/traceless block pattern.

Run directly to print the frozen table:

    python3 tests/oracles.py
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import prod

import numpy as np

from hoq.type_ast import (
    Arrow,
    Elementary,
    TypeExpr,
    factor_dims,
    make_comb,
    parse_type,
    print_canonical,
    tensor,
    total_dim,
)

RANK_TOL = 1e-8
BLOCK_TOL = 1e-7


def herm_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of d x d Hermitian matrices."""
    out = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        out.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            out.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / np.sqrt(2)
            m[j, i] = 1j / np.sqrt(2)
            out.append(m)
    return np.array(out)


def _coords(X: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real HS coordinates of Hermitian X (or a stack of them, on the last two
    axes) in an orthonormal basis, on the last axis."""
    return np.real(np.einsum("kji,...ji->...k", basis.conj(), X))


def _combine(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The matrices sum_c coeffs[.., c] basis[c], by one matrix product."""
    flat = coeffs @ basis.reshape(len(basis), -1)
    return flat.reshape(coeffs.shape[:-1] + basis.shape[1:])


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def hull(x: TypeExpr) -> tuple[np.ndarray, np.ndarray]:
    """Affine hull of the deterministic events: (offset, directions).

    The directions array has shape (k, d, d) and is orthonormal in HS inner
    product; the offset is one particular hull member candidate (the
    least-squares solution of the defining linear conditions).  Cached per
    (interned) type; both arrays are read-only.
    """
    d = total_dim(x)
    basis = herm_basis(d)
    if isinstance(x, Elementary):
        offset = np.eye(d, dtype=complex) / d
        # all traceless directions: drop the identity component
        eye_coords = _coords(np.eye(d, dtype=complex) / np.sqrt(d), basis)
        u, s, vh = np.linalg.svd(np.eye(d * d) - np.outer(eye_coords, eye_coords))
        keep = vh[: int((s > RANK_TOL).sum())]
        return _frozen(offset, _combine(keep, basis))
    off_t, dirs_t = hull(x.tail)
    off_h, dirs_h = hull(x.head)
    d_t, d_h = total_dim(x.tail), total_dim(x.head)
    basis_h = herm_basis(d_h)
    # orthonormal basis of the complement of span(dirs_h) inside Herm(d_h)
    if len(dirs_h):
        u, s, vh = np.linalg.svd(_coords(dirs_h, basis_h))
        comp = vh[int((s > RANK_TOL).sum()) :]
    else:
        comp = np.eye(d_h * d_h)
    inputs = np.concatenate([off_t[None], dirs_t])
    # linear map per input a: coords(M) -> complement-coords of the image of
    # a under the map with Choi matrix M (input factor first), for every
    # basis matrix M at once
    images = np.einsum(
        "ami,kmjil->akjl", inputs, basis.reshape(-1, d_t, d_h, d_t, d_h)
    )
    blocks = np.einsum("rc,akc->ark", comp, _coords(images, basis_h))
    A = blocks.reshape(-1, d * d)
    b = np.zeros(A.shape[0])
    b[: comp.shape[0]] = comp @ _coords(off_h, basis_h)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.linalg.norm(A @ sol - b))
    if resid > 1e-6:
        raise RuntimeError(
            f"hull conditions inconsistent for {print_canonical(x)}: "
            f"residual {resid}"
        )
    u, s, vh = np.linalg.svd(A)
    rank = int((s > RANK_TOL * (s[0] if len(s) else 1.0)).sum())
    return _frozen(_combine(sol, basis), _combine(vh[rank:], basis))


def hull_residual(mat: np.ndarray, x: TypeExpr) -> float:
    """Frobenius distance from mat to the affine hull of type x."""
    offset, dirs = hull(x)
    diff = mat - offset
    coeffs = np.real(np.einsum("kji,ji->k", dirs.conj(), diff))
    return float(np.linalg.norm(diff - np.einsum("k,kij->ij", coeffs, dirs)))


def _factor_identity_part(X: np.ndarray, dims: tuple[int, ...], i: int) -> np.ndarray:
    """Conditional expectation onto identity on factor i."""
    k = len(dims)
    t = X.reshape(dims + dims)
    tr = np.trace(t, axis1=i, axis2=k + i)
    eye = np.eye(dims[i], dtype=complex) / dims[i]
    out = np.tensordot(tr, eye, axes=0)
    out = np.moveaxis(out, (-2, -1), (i, k + i))
    return out.reshape(X.shape)


def block_project(X: np.ndarray, dims: tuple[int, ...], bits: str) -> np.ndarray:
    """Component of X in the block labelled by an identity/traceless string."""
    out = X
    for i, bit in enumerate(bits):
        ident = _factor_identity_part(out, dims, i)
        out = ident if bit == "1" else out - ident
    return out


def oracle_semantics(x: TypeExpr) -> dict:
    """lambda, index set (full positions), and hull dimension, definitionally."""
    offset, dirs = hull(x)
    d = total_dim(x)
    dims = factor_dims(x)
    lam = float(np.trace(offset).real) / d
    delta = []
    for value in range(1 << len(dims)):
        bits = format(value, f"0{len(dims)}b") if dims else ""
        if bits == "1" * len(dims):
            continue
        hit = any(
            np.linalg.norm(block_project(v, dims, bits)) > BLOCK_TOL for v in dirs
        )
        if hit:
            delta.append(bits)
    block_dim = sum(
        prod(dims[i] ** 2 - 1 for i in range(len(dims)) if bits[i] == "0")
        for bits in delta
    )
    if block_dim != len(dirs):
        raise RuntimeError(
            f"block bookkeeping broken for {print_canonical(x)}: "
            f"{block_dim} != {len(dirs)}"
        )
    return {
        "lambda": lam,
        "delta": sorted(delta),
        "dim": int(len(dirs)),
    }


FROZEN_TYPES = [
    "A:2",
    "A:3",
    "A:2*B:2",
    "A:2*B:3",
    "A:2->B:2",
    "A:2->B:3",
    "A:2->I",
    "I->A:2",
    "(A:2->I)->I",
    "(A:2->B:2)->C:2",
    "A:2->(B:2->C:2)",
    "A:2*B:2->C:2",
    "(A:2->B:2)->(C:2->D:2)",
    "(A:2->B:3)->(C:3->D:2)",
]


def main(argv: list[str]) -> int:
    exprs: list[tuple[str, TypeExpr]] = []
    for text in argv[1:] or FROZEN_TYPES:
        exprs.append((text, parse_type(text)))
    if not argv[1:]:
        two_comb = make_comb([parse_type("A:2->B:2"), parse_type("C:2->D:2")])
        exprs.append(("2-comb of qubit teeth", two_comb))
        pair = tensor(parse_type("A:2->B:2"), parse_type("C:2->D:2"))
        exprs.append(("tensor of qubit channels", pair))
    print("# frozen oracle table (regenerate: python3 tests/oracles.py)")
    for label, expr in exprs:
        sem = oracle_semantics(expr)
        print(f'"{print_canonical(expr)}": {sem!r},  # {label}')
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
