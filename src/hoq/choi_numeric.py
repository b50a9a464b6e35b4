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

Admissibility is certified from both sides. The deterministic events E of
the dual type x -> I form the slice {Tr E = 1 / lambda_x, no Delta_x
component}; each PSD one has Tr[R E] = 1 for every deterministic R of x, so
Tr[M E] > 1 proves that no R >= M exists, and mu <= 1 / Tr[M E] bounds the
admissible scale. The affine iterate a of a Dykstra run gives a witness and
a dual event at once: a is accepted when min eig(a - M) >= -DEFAULT_TOL *
max(1, ||M||_op), and the negative part of a - M, with its Delta_x
component removed and mixed with I / (lambda_x d) until PSD, is the dual
event. max_admissible_scale narrows an interval [lo, hi] with both and
returns lo.

Every operator enters once, through _hermitian: a raw matrix is checked for
shape and finiteness and passes as it is if it equals its adjoint entry for
entry; otherwise its residual ||M - M^dag||_F / max(1, ||M||_F) is measured
and only its Hermitian part goes on. A HermOp passed that gate within
HERM_TOL when built and holds its own Hermitian copy, so it is trusted.

Matrix file format (JSON): {"dims": [d1, .., dk], "matrix": [[[re, im], ..]]},
row-major over the full product space, dims JSON integers >= 1 and entries
JSON numbers; non-finite entries and sides above MAX_SIDE are refused.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Optional, Sequence, Union

import numpy as np

from hoq.semantics import lambda_recursive
from hoq.subspace_algebra import StringSet, _json_dims, complement_in_T, delta_normal_form
from hoq.tolerances import DEFAULT_FEAS_TOL, DEFAULT_MAX_ITER, DEFAULT_TOL
from hoq.type_ast import TypeExpr, factor_dims

HERM_TOL = 1e-10        # anti-Hermitian residual bound enforced by HermOp
# Largest matrix side sampled or loaded: a complex side-2048 matrix takes
# 64 MiB, and a check holds a few of them.
MAX_SIDE = 2048

__all__ = [
    "HermOp",
    "MembershipReport",
    "FeasibilityReport",
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
    "matrix_to_json_obj",
    "matrix_from_json_obj",
    "load_matrix",
    "HERM_TOL",
    "MAX_SIDE",
    "DEFAULT_TOL",
    "DEFAULT_FEAS_TOL",
    "DEFAULT_MAX_ITER",
]


def _fro(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat))


@dataclass(frozen=True, eq=False)
class HermOp:
    """A Hermitian operator over an ordered tuple of tensor factors.

    Construction passes _hermitian, refuses a residual above HERM_TOL and
    stores its own exactly Hermitian copy; use raw ndarrays for operators
    that may legitimately fail that gate (the checkers accept both).
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"bad factor dims {dims}")
        herm, residual = _hermitian(self.matrix, dims)
        if residual > HERM_TOL:
            raise ValueError("matrix is not Hermitian within HERM_TOL")
        if np.may_share_memory(herm, self.matrix):
            herm = herm.copy()
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", herm)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]


OperatorLike = Union[HermOp, np.ndarray]


def _hermitian(op: OperatorLike, dims: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """The Hermitian part of M = op over dims and its residual ||M - M^dag||_F
    / max(1, ||M||_F). M itself, with residual 0, when it equals its adjoint
    entry for entry; a HermOp with matching dims is trusted likewise."""
    if isinstance(op, HermOp):
        if op.dims != dims:
            raise ValueError(f"operator dims {op.dims} != expected {dims}")
        return op.matrix, 0.0
    mat = np.asarray(op, dtype=complex)
    side = prod(dims)
    if mat.shape != (side, side):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    if not np.isfinite(mat).all():
        # NaN fails every comparison, so the tolerance gates would pass it
        raise ValueError("matrix has non-finite entries")
    adjoint = mat.conj().T
    if (mat == adjoint).all():
        return mat, 0.0
    residual = _fro(mat - adjoint) / max(1.0, _fro(mat))
    return (mat + adjoint) / 2, residual


def _checked_side(dims: Sequence[int]) -> int:
    """The matrix side over ``dims``, refused above MAX_SIDE before any
    matrix of that side is allocated."""
    side = prod(dims)
    if side > MAX_SIDE:
        raise ValueError(f"matrix side {side} exceeds the limit {MAX_SIDE}")
    return side


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
    side = prod(new_dims)
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
    side = prod(new_dims)
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
    d_in = prod(O.dims)
    out_dims = M.dims[n_in:]
    d_out = prod(out_dims)
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
    herm, herm_residual = _hermitian(R, factor_dims(x))
    eigs = np.linalg.eigvalsh(herm)
    min_eig = float(eigs[0])
    side = herm.shape[0]
    lam_expected = lambda_recursive(x)
    lam_measured = float(np.trace(herm).real) / side
    delta, nf_dims = delta_normal_form(x)
    outside = _project_delta_matrix(herm, nf_dims, complement_in_T(delta))
    residual = _fro(outside) / max(1.0, _fro(eigs))  # ||eigs|| = ||herm||_F
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


# A certificate must beat its threshold by this relative margin, so that
# rounding in a trace or an eigendecomposition cannot make one.
_ROUNDING = 1e-10
# Dykstra iterations a single probe of max_admissible_scale may run.
_PROBE_MAX_ITER = 2000


def _psd_clip(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.conj().T


@dataclass(frozen=True)
class _Bounds:
    """What one check of a Dykstra run on M proves.

    ``witness`` lies in the deterministic slice and falls short of dominating
    M by ``shortfall`` = max(0, -min eig(witness - M)); ``gap`` is its
    Frobenius distance to {Z : Z >= M}.  Mixing it with lambda I gives a
    slice member dominating lambda / (lambda + shortfall) * M.  ``dual`` is a
    PSD deterministic event of the dual type x -> I, or None when the
    shortfall is within the caller's margin; Tr[M dual] = ``dual_value`` > 1
    proves that nothing in the slice dominates M.
    """

    iteration: int
    witness: np.ndarray
    shortfall: float
    gap: float
    dual: Optional[np.ndarray]
    dual_value: float


def _bounds(
    iteration: int, a: np.ndarray, herm: np.ndarray, margin: float,
    lam: float, delta: StringSet, nf_dims: tuple[int, ...],
) -> _Bounds:
    vals, vecs = np.linalg.eigh(a - herm)
    neg = np.clip(-vals, 0.0, None)
    shortfall, gap = float(neg[0]), _fro(neg)
    if shortfall <= margin:
        return _Bounds(iteration, a, shortfall, gap, None, 0.0)
    # the negative part N of a - M, moved into the dual slice
    # {E : Tr E = 1 / lambda, Delta component 0} and mixed with its uniform
    # member I / (lambda d) until it is PSD
    n = (vecs * neg) @ vecs.conj().T
    e = (n - _project_delta_matrix(n, nf_dims, delta)) / (lam * neg.sum())
    side = e.shape[0]
    uniform = 1.0 / (lam * side)
    low = float(np.linalg.eigvalsh(e)[0])
    if low < 0:
        t = -low / (uniform - low)
        e = (1 - t) * e + t * uniform * np.eye(side)
    return _Bounds(iteration, a, shortfall, gap, e, float(np.vdot(e, herm).real))


def _dykstra(
    herm: np.ndarray, lam: float, delta: StringSet, nf_dims: tuple[int, ...],
    max_iter: int, margin: float,
):
    """Dykstra's alternating projections between the slice {lambda I +
    Delta} and the cone {Z : Z >= herm}.  Yields the _Bounds of the affine
    iterate at iterations 1, 2, 4, ... and at max_iter; no dual event is
    built for a shortfall within margin.

    The affine step keeps no correction p = (1 - P_Delta)(y + p) - lambda I:
    P_Delta(p) = 0, as P_Delta(I) = 0 (e is not in Delta)."""
    eye = np.eye(herm.shape[0], dtype=complex)
    y = herm
    q = np.zeros_like(y)
    next_check = 1
    for iteration in range(1, max_iter + 1):
        a = lam * eye + _project_delta_matrix(y, nf_dims, delta)
        if iteration in (next_check, max_iter):
            if iteration == next_check:
                next_check *= 2
            yield _bounds(iteration, a, herm, margin, lam, delta, nf_dims)
        b = herm + _psd_clip(a + q - herm)
        q = a + q - b
        y = b


def check_admissible(
    M: OperatorLike,
    x: TypeExpr,
    tol: float = DEFAULT_FEAS_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FeasibilityReport:
    """Can M be dominated by a deterministic event of type x?

    M is admissible iff M >= 0 and some R in the deterministic affine slice
    satisfies R - M >= 0.  A raw M with residual above tol (see _hermitian)
    or a non-PSD M (min eigenvalue < -tol) is rejected at the precheck (0
    iterations, final_distance inf); tol sets only this precheck, as a
    witness must dominate M within DEFAULT_TOL * max(1, ||M||_op).  Every
    deterministic event E of the dual type x -> I is PSD with Tr[R E] = 1 on
    the slice, so Tr[M E] > 1 proves M inadmissible: the uniform one,
    I / (lambda_x d), rejects Tr M > lambda_x d before any iteration.
    Otherwise Dykstra's alternating projections run between the slice and
    the shifted cone {Z : Z >= M}; at checks (iterations 1, 2, 4, ... and
    max_iter) the affine iterate's negative part relative to M yields a dual
    event.  The answer is:

    * "yes" once the affine iterate R verifies min eig(R - M) >=
      -DEFAULT_TOL * max(1, ||M||_op); R is the witness and final_distance
      is the Frobenius distance from R to {Z : Z >= M};
    * "no_certificate" with iterations <= max_iter once a dual event has
      Tr[M E] > 1; final_distance is then (Tr[M E] - 1) / ||E||_F, a lower
      bound on the distance between the slice and {Z : Z >= M};
    * "no_certificate" at max_iter otherwise; final_distance is then the
      Frobenius distance from the last affine iterate to {Z : Z >= M}.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    dims = factor_dims(x)
    herm, herm_residual = _hermitian(M, dims)
    eigs = np.linalg.eigvalsh(herm)
    if herm_residual > tol or float(eigs[0]) < -tol:
        return FeasibilityReport("no_certificate", None, 0, float("inf"))
    delta, nf_dims = delta_normal_form(x)
    lam = float(lambda_recursive(x))
    side = herm.shape[0]
    excess = float(np.trace(herm).real) - lam * side
    if excess > _ROUNDING * lam * side:
        return FeasibilityReport("no_certificate", None, 0, excess / np.sqrt(side))
    margin = DEFAULT_TOL * max(1.0, float(eigs[-1]), -float(eigs[0]))
    gap = float("inf")
    for step in _dykstra(herm, lam, delta, nf_dims, max_iter, margin):
        if step.shortfall <= margin:
            return FeasibilityReport(
                "yes", HermOp(dims, step.witness), step.iteration, step.gap
            )
        if step.dual_value > 1 + _ROUNDING:
            lower = (step.dual_value - 1) / _fro(step.dual)
            return FeasibilityReport("no_certificate", None, step.iteration, lower)
        gap = step.gap
    return FeasibilityReport("no_certificate", None, max_iter, gap)


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
    side = _checked_side(dims)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    g = (g + g.conj().T) / 2
    delta, nf_dims = delta_normal_form(x)
    fluct = _project_delta_matrix(g, nf_dims, delta)
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
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    dims = factor_dims(x) + factor_dims(y)
    _checked_side(dims)
    herm, herm_residual = _hermitian(M, dims)
    if herm_residual > tol or float(np.linalg.eigvalsh(herm)[0]) < -tol:
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
        if not check_deterministic(image, y, tol=tol).verdict:
            return False
    return True


def max_admissible_scale(
    M: OperatorLike, x: TypeExpr, tol: float = DEFAULT_TOL
) -> float:
    """Largest mu such that mu * M is admissible for type x, from below.

    M must be Hermitian (residual within tol, see _hermitian), PSD and
    nonzero; ValueError otherwise.  The answer is kept in an interval [lo,
    hi] that starts at [lambda_x / ||M||_op, lambda_x d / Tr M]: mu M <=
    lambda_x I proves the lower end, and the uniform dual event I /
    (lambda_x d) of x -> I the upper one.  Probes run Dykstra on mu M, first
    at the upper end, then at midpoints.  A check whose affine iterate R
    falls short of mu M by s (min eig(R - mu M) = -s) raises lo to mu
    lambda_x / (lambda_x + s), witnessed by a mixture of R and lambda_x I; a
    dual event E of x -> I lowers hi to 1 / Tr[M E].  A probe ends once lo
    reaches mu (1 - tol) or hi drops below mu.  The search stops when hi -
    lo <= tol * max(1, lo), when a probe moves neither end (probes are
    deterministic, so the next would repeat it), or when a probe runs
    _PROBE_MAX_ITER iterations without ending, and returns lo: the result
    never exceeds the true scale beyond rounding.
    """
    herm, herm_residual = _hermitian(M, factor_dims(x))
    eigs = np.linalg.eigvalsh(herm)
    if herm_residual > tol or float(eigs[0]) < -tol * max(1.0, _fro(eigs)):
        raise ValueError("max_admissible_scale needs a Hermitian PSD operator")
    trace = float(np.trace(herm).real)
    if trace <= tol:
        raise ValueError("max_admissible_scale needs a nonzero operator")
    delta, nf_dims = delta_normal_form(x)
    lam = float(lambda_recursive(x))
    lo = lam / float(eigs[-1])
    hi = lam * herm.shape[0] / trace

    def closed() -> bool:
        return hi - lo <= tol * max(1.0, lo)

    mu = hi
    while not closed():
        before = (lo, hi)
        margin = DEFAULT_TOL * max(1.0, mu * float(eigs[-1]))
        for step in _dykstra(
            mu * herm, lam, delta, nf_dims, _PROBE_MAX_ITER, margin
        ):
            lo = max(lo, mu * lam / (lam + step.shortfall))
            if step.dual_value > 0:
                hi = min(hi, mu / step.dual_value)
            if closed() or lo >= mu * (1 - tol) or hi < mu:
                break
        else:
            break  # mu is neither witnessed nor refuted
        if (lo, hi) == before:
            break  # the next probe would repeat this one
        mu = (lo + hi) / 2
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


def _json_real(value: object) -> float:
    """A JSON number (not a bool or a string) within the float range; HermOp
    refuses the non-finite ones."""
    if type(value) is float or (
        type(value) is int and abs(value) <= sys.float_info.max
    ):
        return float(value)
    raise ValueError(f"matrix entries must be finite numbers, got {value!r:.40}")


def matrix_from_json_obj(obj: dict) -> HermOp:
    if not isinstance(obj, dict) or "dims" not in obj or "matrix" not in obj:
        raise ValueError("expected an object with 'dims' and 'matrix'")
    dims = _json_dims(obj["dims"])
    rows = obj["matrix"]
    side = prod(dims)
    # the shape is checked against the rows, and the side against MAX_SIDE,
    # before anything is allocated
    if len(rows) != side:
        raise ValueError(f"matrix has {len(rows)} rows, expected {side}")
    _checked_side(dims)
    entries = []
    for i, row in enumerate(rows):
        if len(row) != side:
            raise ValueError(f"row {i} has {len(row)} entries, expected {side}")
        entries.append([complex(_json_real(re), _json_real(im)) for re, im in row])
    return HermOp(dims, np.array(entries, dtype=complex).reshape(side, side))


def load_matrix(path: str) -> HermOp:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json_obj(json.load(fh))
