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
    """Real HS coordinates of a Hermitian X in an orthonormal basis."""
    return np.real(np.einsum("kji,ji->k", basis.conj(), X))


def _apply_choi(M: np.ndarray, A: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Image of A under the map whose Choi matrix (input factor first) is M."""
    t = M.reshape(d_in, d_out, d_in, d_out)
    return np.einsum("mi,mjil->jl", A, t)


def hull(x: TypeExpr) -> tuple[np.ndarray, np.ndarray]:
    """Affine hull of the deterministic events: (offset, directions).

    The directions array has shape (k, d, d) and is orthonormal in HS inner
    product; the offset is one particular hull member candidate (the
    least-squares solution of the defining linear conditions).
    """
    d = total_dim(x)
    if isinstance(x, Elementary):
        offset = np.eye(d, dtype=complex) / d
        basis = herm_basis(d)
        # all traceless directions: drop the identity component
        eye_coords = _coords(np.eye(d, dtype=complex) / np.sqrt(d), basis)
        stack = []
        for vec in np.eye(d * d):
            vec = vec - np.dot(vec, eye_coords) * eye_coords
            stack.append(vec)
        u, s, vh = np.linalg.svd(np.array(stack))
        keep = vh[: int((s > RANK_TOL).sum())]
        dirs = np.einsum("kc,cij->kij", keep, basis)
        return offset, dirs
    off_t, dirs_t = hull(x.tail)
    off_h, dirs_h = hull(x.head)
    d_t, d_h = total_dim(x.tail), total_dim(x.head)
    basis = herm_basis(d)
    basis_h = herm_basis(d_h)
    # orthonormal basis of the complement of span(dirs_h) inside Herm(d_h)
    if len(dirs_h):
        coords_h = np.array([_coords(v, basis_h) for v in dirs_h])
        u, s, vh = np.linalg.svd(coords_h)
        rank = int((s > RANK_TOL).sum())
        comp = vh[rank:]
    else:
        comp = np.eye(d_h * d_h)
    inputs = [off_t] + list(dirs_t)
    rows = []
    rhs = []
    for idx, a in enumerate(inputs):
        # linear map: coords(M) -> complement-coords of image of a
        block = np.empty((comp.shape[0], d * d))
        for k, B in enumerate(basis):
            img = _apply_choi(B, a, d_t, d_h)
            block[:, k] = comp @ _coords(img, basis_h)
        rows.append(block)
        if idx == 0:
            rhs.append(comp @ _coords(off_h, basis_h))
        else:
            rhs.append(np.zeros(comp.shape[0]))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.linalg.norm(A @ sol - b))
    if resid > 1e-6:
        raise RuntimeError(
            f"hull conditions inconsistent for {print_canonical(x)}: "
            f"residual {resid}"
        )
    u, s, vh = np.linalg.svd(A)
    rank = int((s > RANK_TOL * (s[0] if len(s) else 1.0)).sum())
    null = vh[rank:]
    offset = np.einsum("c,cij->ij", sol, basis)
    dirs = np.einsum("kc,cij->kij", null, basis)
    return offset, dirs


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
