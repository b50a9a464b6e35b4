"""Dense operator numerics: membership of Choi matrices in deterministic and
admissible event sets.

Conventions. A map event of type x -> y is represented by its Choi matrix
over H_x tensor H_y with the *input factors first*; the inverse isomorphism is
[Ch^-1(M)](O) = Tr_x[(O^T otimes I_y) M] with the transpose taken in the
computational basis. Factor order of a type is the in-order traversal of its
expression (tails before heads), matching type_ast.factor_dims.

Block projection onto the blocks of an index set J (see subspace_algebra)
is one change of basis: each factor's row and column axes are paired into
one axis of size d^2, and a real Householder reflection on it makes the first
coordinate the identity component vec(I)/sqrt(d) and the rest traceless. A
0/1 mask keeps the coordinates whose pattern (bit 1 where a factor is at its
first coordinate) lies in J, and the same reflections map back: cost
O(side^2 * sum of d^2), with the reflections and mask cached per (dims, J).

Matrix file format (JSON): {"dims": [d1, .., dk], "matrix": [[[re, im], ..]]},
row-major over the full product space; non-finite entries are refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Optional, Sequence, Union

import numpy as np

from hoq.semantics import lambda_recursive
from hoq.subspace_algebra import StringSet, complement_in_T, delta_normal_form
from hoq.type_ast import TypeExpr, factor_dims

HERM_TOL = 1e-10        # relative Frobenius bound enforced by HermOp
DEFAULT_TOL = 1e-9      # membership tolerance
DEFAULT_FEAS_TOL = 1e-6  # Dykstra stopping distance
DEFAULT_MAX_ITER = 10000

__all__ = [
    "HermOp",
    "MembershipReport",
    "FeasibilityReport",
    "identity_op",
    "partial_trace",
    "reorder_factors",
    "apply_inverse_choi",
    "check_deterministic",
    "check_admissible",
    "sample_deterministic",
    "oracle_deterministic",
    "max_admissible_scale",
    "random_channel_choi",
    "choi_from_kraus",
    "random_density",
    "matrix_to_json_obj",
    "matrix_from_json_obj",
    "load_matrix",
    "save_matrix",
    "HERM_TOL",
    "DEFAULT_TOL",
    "DEFAULT_FEAS_TOL",
    "DEFAULT_MAX_ITER",
]


def _fro(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat))


@dataclass(frozen=True, eq=False)
class HermOp:
    """A Hermitian operator over an ordered tuple of tensor factors.

    Construction refuses non-finite entries and enforces ||M - M^dag||_F <=
    HERM_TOL * ||M||_F; use raw ndarrays for operators that may legitimately
    fail that gate (the checkers accept both).
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"bad factor dims {dims}")
        mat = _coerce(self.matrix, dims)
        if _fro(mat - mat.conj().T) > HERM_TOL * _fro(mat):
            raise ValueError("matrix is not Hermitian within HERM_TOL")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]


OperatorLike = Union[HermOp, np.ndarray]


def _coerce(op: OperatorLike, dims: Sequence[int]) -> np.ndarray:
    """Return the finite raw matrix, checking dims when a HermOp is supplied."""
    dims = tuple(dims)
    side = prod(dims) if dims else 1
    if isinstance(op, HermOp):
        if op.dims != dims:
            raise ValueError(f"operator dims {op.dims} != expected {dims}")
        return op.matrix
    mat = np.asarray(op, dtype=complex)
    if mat.shape != (side, side):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    if not np.isfinite(mat).all():
        # NaN fails every comparison, so the tolerance gates would pass it
        raise ValueError("matrix has non-finite entries")
    return mat


def identity_op(dims: Sequence[int]) -> HermOp:
    dims = tuple(dims)
    return HermOp(dims, np.eye(prod(dims) if dims else 1, dtype=complex))


# --------------------------------------------------------------------------
# factor plumbing
# --------------------------------------------------------------------------


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
    side = prod(new_dims) if new_dims else 1
    return HermOp(new_dims, reduced.reshape(side, side))


def reorder_factors(O: HermOp, perm: Sequence[int]) -> HermOp:
    """Gather factors: new position i carries old position perm[i]."""
    k = len(O.dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation of range({k}): {perm}")
    t = O.matrix.reshape(O.dims + O.dims)
    axes = perm + [k + p for p in perm]
    new_dims = tuple(O.dims[p] for p in perm)
    side = prod(new_dims) if new_dims else 1
    return HermOp(new_dims, np.transpose(t, axes).reshape(side, side))


def apply_inverse_choi(M: HermOp, O: HermOp) -> HermOp:
    """Apply the map represented by Choi matrix M to the input operator O.

    M lives over (input factors, output factors); the split is inferred from
    O's factor count. Returns Tr_in[(O^T otimes I_out) M].
    """
    n_in = len(O.dims)
    if M.dims[:n_in] != O.dims:
        raise ValueError(
            f"input dims {O.dims} do not prefix the Choi dims {M.dims}"
        )
    d_in = prod(O.dims) if O.dims else 1
    out_dims = M.dims[n_in:]
    d_out = prod(out_dims) if out_dims else 1
    m = M.matrix.reshape(d_in, d_out, d_in, d_out)
    # R[j, l] = sum_{i,m} O[m, i] M[(m, j), (i, l)]
    result = np.einsum("mi,mjil->jl", O.matrix, m)
    return HermOp(out_dims, result)


# --------------------------------------------------------------------------
# block projections
# --------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _block_basis(
    dims: tuple[int, ...], J: StringSet
) -> tuple[list[int], list[np.ndarray], np.ndarray]:
    """The axis order pairing each factor's row and column axes, the
    reflection of each non-trivial pair axis, and the flat mask of J."""
    k = len(dims)
    order = [a for f in range(k) for a in (f, k + f)]
    reflections = []
    pattern = np.zeros((), dtype=np.int64)
    for d in dims:
        at_identity = np.arange(d * d) == 0
        pattern = np.add.outer(2 * pattern, at_identity)
        if d > 1:
            v = at_identity - np.eye(d).ravel() / np.sqrt(d)
            reflections.append(np.eye(d * d) - np.outer(v, v) * (2 / (v @ v)))
    mask = np.isin(pattern.ravel(), list(J.strings))
    for a in (*reflections, mask):
        a.setflags(write=False)
    return order, reflections, mask


def _reflect(t: np.ndarray, reflections: list[np.ndarray]) -> np.ndarray:
    """Reflect each pair axis in turn: contract the leading one and append it
    last, so one pass returns the axes to their order. The result is flat."""
    for h in reflections:
        t = t.reshape(h.shape[0], -1).T @ h
    return t.reshape(-1)


def _project_delta_matrix(
    mat: np.ndarray, dims: tuple[int, ...], J: StringSet
) -> np.ndarray:
    """Orthogonal projection onto the blocks in J. It is linear and keeps
    Hermitian operators Hermitian; it does not symmetrize its input."""
    side = mat.shape[0]
    if not J.strings:
        return np.zeros((side, side), dtype=complex)
    order, reflections, mask = _block_basis(dims, J)
    t = mat.reshape(dims + dims).transpose(order)
    paired = t.shape
    t = _reflect(_reflect(t, reflections) * mask, reflections)
    return t.reshape(paired).transpose(np.argsort(order)).reshape(side, side)


# --------------------------------------------------------------------------
# membership
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    verdict: bool
    lambda_measured: float
    lambda_expected: Fraction
    min_eigenvalue: float
    residual_outside_delta: float
    herm_residual: float
    tolerance: float


def check_deterministic(
    R: OperatorLike, x: TypeExpr, tol: float = DEFAULT_TOL
) -> MembershipReport:
    """Is R a deterministic event of type x?

    Checks, each within tol: Hermiticity (relative), positive semidefiniteness
    (min eigenvalue >= -tol), the identity coefficient Tr R / d == lambda_x,
    and vanishing of the component outside the admissible blocks (relative
    Frobenius residual over T minus Delta_x at the non-trivial factors).
    """
    dims = factor_dims(x)
    mat = _coerce(R, dims)
    norm = _fro(mat)
    herm_residual = _fro(mat - mat.conj().T) / max(1.0, norm)
    herm = (mat + mat.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(herm)[0]) if herm.size else 0.0
    side = herm.shape[0]
    lam_expected = lambda_recursive(x)
    lam_measured = float(np.trace(herm).real) / side
    delta, nf_dims = delta_normal_form(x)
    outside = _project_delta_matrix(herm, nf_dims.dims, complement_in_T(delta))
    residual = _fro(outside) / max(1.0, norm)
    verdict = (
        herm_residual <= tol
        and min_eig >= -tol
        and abs(lam_measured - float(lam_expected)) <= tol
        and residual <= tol
    )
    return MembershipReport(
        verdict=verdict,
        lambda_measured=lam_measured,
        lambda_expected=lam_expected,
        min_eigenvalue=min_eig,
        residual_outside_delta=residual,
        herm_residual=herm_residual,
        tolerance=tol,
    )


# --------------------------------------------------------------------------
# admissibility (feasibility of a dominating deterministic event)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: str  # "yes" | "no_certificate"
    witness: Optional[HermOp]
    iterations: int
    final_distance: float


def _psd_clip(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.conj().T


def check_admissible(
    M: OperatorLike,
    x: TypeExpr,
    tol: float = DEFAULT_FEAS_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FeasibilityReport:
    """Can M be dominated by a deterministic event of type x?

    M is admissible iff M >= 0 and some R in the deterministic affine slice
    satisfies R - M >= 0.  A non-PSD M (min eigenvalue < -tol) is rejected at
    the precheck.  Otherwise Dykstra's alternating projections run between
    the affine set {lambda_x I + Delta_x} and the shifted cone {Z : Z >= M};
    convergence of the two iterates to within tol certifies feasibility and
    reports the affine-side iterate as witness.
    """
    dims = factor_dims(x)
    mat = _coerce(M, dims)
    herm = (mat + mat.conj().T) / 2
    if float(np.linalg.eigvalsh(herm)[0]) < -tol:
        return FeasibilityReport("no_certificate", None, 0, float("inf"))
    lam = float(lambda_recursive(x))
    delta, nf_dims = delta_normal_form(x)
    side = herm.shape[0]
    eye = np.eye(side, dtype=complex)

    def onto_affine(z: np.ndarray) -> np.ndarray:
        return lam * eye + _project_delta_matrix(z, nf_dims.dims, delta)

    def onto_cone(z: np.ndarray) -> np.ndarray:
        return herm + _psd_clip(z - herm)

    y = herm.copy()
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    distance = float("inf")
    for iteration in range(1, max_iter + 1):
        a = onto_affine(y + p)
        p = y + p - a
        b = onto_cone(a + q)
        q = a + q - b
        y = b
        distance = _fro(a - b)
        if distance <= tol:
            return FeasibilityReport("yes", HermOp(dims, a), iteration, distance)
    return FeasibilityReport("no_certificate", None, max_iter, distance)


# --------------------------------------------------------------------------
# sampling and the definitional oracle
# --------------------------------------------------------------------------


def sample_deterministic(
    x: TypeExpr, seed: int = 0, spread: float = 1.0
) -> HermOp:
    """Draw a reproducible deterministic event of type x.

    A Gaussian Hermitian operator is projected onto the fluctuation blocks,
    scaled to operator norm 0.95 * spread * lambda_x (spread in (0, 1]) and
    added to lambda_x I, which keeps the result strictly positive and exactly
    inside the affine slice.
    """
    if not 0.0 < spread <= 1.0:
        raise ValueError(f"spread must lie in (0, 1], got {spread}")
    dims = factor_dims(x)
    side = prod(dims)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    g = (g + g.conj().T) / 2
    delta, nf_dims = delta_normal_form(x)
    fluct = _project_delta_matrix(g, nf_dims.dims, delta)
    lam = float(lambda_recursive(x))
    eigs = np.linalg.eigvalsh(fluct)
    op_norm = float(max(abs(eigs[0]), abs(eigs[-1]))) if eigs.size else 0.0
    base = lam * np.eye(side, dtype=complex)
    if op_norm < 1e-14:
        return HermOp(dims, base)
    return HermOp(dims, base + (0.95 * spread * lam / op_norm) * fluct)


def oracle_deterministic(
    M: OperatorLike,
    x: TypeExpr,
    y: TypeExpr,
    samples: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Definitional test for membership in the deterministic events of x -> y.

    Independent of the block characterization of the arrow type itself: M
    must be Hermitian and PSD within tol, and the induced map must carry
    sampled deterministic inputs of type x (plus lambda_x I itself) to
    operators passing check_deterministic for y.
    """
    dims = factor_dims(x) + factor_dims(y)
    mat = _coerce(M, dims)
    norm = _fro(mat)
    if _fro(mat - mat.conj().T) > tol * max(1.0, norm):
        return False
    herm = (mat + mat.conj().T) / 2
    if float(np.linalg.eigvalsh(herm)[0]) < -tol:
        return False
    choi = HermOp(dims, herm)
    lam_x = float(lambda_recursive(x))
    side_x = prod(factor_dims(x))
    probes = [HermOp(factor_dims(x), lam_x * np.eye(side_x, dtype=complex))]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        probe_seed = int(rng.integers(0, 2**63 - 1))
        spread = float(rng.uniform(0.1, 1.0))
        probes.append(sample_deterministic(x, seed=probe_seed, spread=spread))
    for probe in probes:
        image = apply_inverse_choi(choi, probe)
        if not check_deterministic(image.matrix, y, tol=tol).verdict:
            return False
    return True


def max_admissible_scale(
    M: OperatorLike, x: TypeExpr, tol: float = DEFAULT_TOL
) -> float:
    """Largest mu such that mu * M is admissible for type x.

    M must be PSD (ValueError otherwise) and nonzero.  The trace bound
    mu <= lambda_x * d / Tr(M) is probed first and returned exactly when
    feasible; otherwise the interval down to the always-feasible
    lambda_x / ||M||_op is bisected.
    """
    dims = factor_dims(x)
    mat = _coerce(M, dims)
    herm = (mat + mat.conj().T) / 2
    eigs = np.linalg.eigvalsh(herm)
    if float(eigs[0]) < -tol * max(1.0, _fro(herm)):
        raise ValueError("max_admissible_scale needs a PSD operator")
    trace = float(np.trace(herm).real)
    if trace <= tol:
        raise ValueError("max_admissible_scale needs a nonzero operator")
    lam = lambda_recursive(x)
    side = herm.shape[0]
    bound = float(lam * side) / trace

    def feasible(mu: float) -> bool:
        report = check_admissible(mu * herm, x, tol=DEFAULT_FEAS_TOL, max_iter=2000)
        return report.feasible == "yes"

    if feasible(bound):
        return bound
    lo = float(lam) / float(eigs[-1])  # mu * M <= lambda I certainly works
    hi = bound
    while hi - lo > tol * max(1.0, lo):
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# --------------------------------------------------------------------------
# random operators
# --------------------------------------------------------------------------


def choi_from_kraus(kraus: Sequence[np.ndarray]) -> HermOp:
    """Choi matrix (input factor first) of the channel with given Kraus ops."""
    ks = np.asarray(kraus, dtype=complex)
    if ks.ndim != 3:
        raise ValueError("expected a stack of Kraus matrices")
    _, d_out, d_in = ks.shape
    choi = np.einsum("kai,kbj->iajb", ks, ks.conj())
    side = d_in * d_out
    return HermOp((d_in, d_out), choi.reshape(side, side))


def random_channel_choi(
    d_in: int, d_out: int, rng: np.random.Generator, n_kraus: Optional[int] = None
) -> HermOp:
    """Choi matrix of a Haar-ish random channel (trace preserving by construction)."""
    n = n_kraus if n_kraus is not None else d_in * d_out
    g = rng.standard_normal((n, d_out, d_in)) + 1j * rng.standard_normal(
        (n, d_out, d_in)
    )
    s = np.einsum("kai,kaj->ij", g.conj(), g)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return choi_from_kraus(g @ inv_sqrt)


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# --------------------------------------------------------------------------
# matrix files
# --------------------------------------------------------------------------


def matrix_to_json_obj(O: HermOp) -> dict:
    return {
        "dims": list(O.dims),
        "matrix": [
            [[float(z.real), float(z.imag)] for z in row] for row in O.matrix
        ],
    }


def matrix_from_json_obj(obj: dict) -> HermOp:
    if not isinstance(obj, dict) or "dims" not in obj or "matrix" not in obj:
        raise ValueError("expected an object with 'dims' and 'matrix'")
    dims = tuple(int(d) for d in obj["dims"])
    rows = obj["matrix"]
    side = prod(dims) if dims else 1
    mat = np.zeros((side, side), dtype=complex)
    if len(rows) != side:
        raise ValueError(f"matrix has {len(rows)} rows, expected {side}")
    for i, row in enumerate(rows):
        if len(row) != side:
            raise ValueError(f"row {i} has {len(row)} entries, expected {side}")
        for j, pair in enumerate(row):
            re, im = pair
            mat[i, j] = complex(float(re), float(im))
    return HermOp(dims, mat)


def load_matrix(path: str) -> HermOp:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json_obj(json.load(fh))


def save_matrix(path: str, O: HermOp) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json_obj(O), fh)
        fh.write("\n")
