"""Definitional affine hull of the deterministic events of a type.

Independent of the package's index sets and block projectors: an elementary
layer's deterministic events span the unit-trace Hermitian slice, and M lies
in the hull of an arrow type exactly when the induced map carries the tail's
hull into the head's hull, a linear condition solved by least squares plus an
SVD nullspace.  This follows the oracle of the test suite, on the
benchmark's own type tuples; it is a copy so that a change to the tests
cannot change what the benchmark accepts.
"""

from __future__ import annotations

from math import prod

import numpy as np

from common import DEFECT, expect

RANK_TOL = 1e-8
DOMINANCE_TOL = 1e-9
HULL_TOL = 1e-8
# check_admissible stops Dykstra once its two iterates are this close, so a
# "yes" witness can fall short of M by about this much: a documented defect.
STOPPING_DISTANCE = 1e-6
DEFECT_ACCEPTS = "check_admissible accepts a barely infeasible input"
DEFECT_SHORT = "check_admissible's witness falls short of M within its stopping distance"


def total_dim(t) -> int:
    if t[0] == "E":
        return prod(d for _, d in t[1])
    return total_dim(t[1]) * total_dim(t[2])


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
    return np.real(np.einsum("kji,ji->k", basis.conj(), X))


def hull(t) -> tuple[np.ndarray, np.ndarray]:
    """(offset, orthonormal directions of shape (k, d, d))."""
    d = total_dim(t)
    basis = herm_basis(d)
    if t[0] == "E":
        eye = _coords(np.eye(d, dtype=complex) / np.sqrt(d), basis)
        traceless = np.eye(d * d) - np.outer(eye, eye)
        _, s, vh = np.linalg.svd(traceless)
        keep = vh[: int((s > RANK_TOL).sum())]
        return np.eye(d, dtype=complex) / d, np.einsum("kc,cij->kij", keep, basis)
    off_t, dirs_t = hull(t[1])
    off_h, dirs_h = hull(t[2])
    d_t, d_h = total_dim(t[1]), total_dim(t[2])
    basis_h = herm_basis(d_h)
    if len(dirs_h):
        _, s, vh = np.linalg.svd(np.array([_coords(v, basis_h) for v in dirs_h]))
        comp = vh[int((s > RANK_TOL).sum()):]
    else:
        comp = np.eye(d_h * d_h)
    # image of input a under the map with Choi B (input factor first)
    shaped = basis.reshape(len(basis), d_t, d_h, d_t, d_h)
    rows, rhs = [], []
    for idx, a in enumerate([off_t] + list(dirs_t)):
        images = np.einsum("mi,kmjil->kjl", a, shaped)
        rows.append(comp @ np.array([_coords(img, basis_h) for img in images]).T)
        target = _coords(off_h, basis_h) if idx == 0 else np.zeros(d_h * d_h)
        rhs.append(comp @ target)
    A, b = np.vstack(rows), np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    _, s, vh = np.linalg.svd(A)
    null = vh[int((s > RANK_TOL * (s[0] if len(s) else 1.0)).sum()):]
    return np.einsum("c,cij->ij", sol, basis), np.einsum("kc,cij->kij", null, basis)


def hull_residual(M: np.ndarray, h) -> float:
    """Frobenius distance from M to the affine hull, relative to max(1, ||M||)."""
    offset, dirs = h
    x = (M - offset).reshape(-1)
    if len(dirs):
        flat = dirs.reshape(len(dirs), -1)
        x = x - (flat.conj() @ x) @ flat
    return float(np.linalg.norm(x)) / max(1.0, float(np.linalg.norm(M)))


def min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((M + M.conj().T) / 2)[0])


def judge_witness(witness: np.ndarray, M: np.ndarray, h, admissible: bool,
                  near: float = 0.0) -> tuple[str, str]:
    """Outcome of a "yes" from check_admissible on M with the given witness.

    Right when the witness lies in the hull ``h`` and dominates M,
    min eig(R - M) >= -1e-9 max(1, ||M||), and M is ``admissible``.  A
    witness that misses M by no more than the stopping distance is the
    documented defect: on a known-no input that misses admissibility by
    ``near``, the defect of accepting it."""
    scale = max(1.0, float(np.linalg.norm(M, 2)))
    gap = min_eig(witness - M)
    resid = hull_residual(witness, h)
    if resid > HULL_TOL:
        return expect(False, f"witness off the hull by {resid:.2e}")
    if gap >= -DOMINANCE_TOL * scale:
        return expect(admissible, "dominating witness on a known no")
    if gap >= -2 * max(near, STOPPING_DISTANCE) * scale:
        return DEFECT, (DEFECT_SHORT if admissible else DEFECT_ACCEPTS)
    return expect(False, f"witness misses M by {gap:.2e}")
