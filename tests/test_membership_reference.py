"""check_deterministic against the full-spectrum route it replaced.

``reference_check_deterministic`` is the former body of the package's
membership test: it takes the whole spectrum of every input, projects onto
the blocks outside Delta and back again, and normalizes the residual by the
norm of the spectrum.  The package now decides the linear conditions first,
reads the residual from the forward half of the projection, and takes the
spectrum only for inputs in the affine slice.  Both must give the same
verdicts and the same margins, on a grid of inputs around and away from the
slice; up to side 16 the verdicts are also pinned against the definitional
affine hull of tests/oracles.py.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from generators import type_strategy
from hoq.choi_numeric import (
    DEFAULT_TOL,
    MembershipReport,
    OperatorLike,
    _fro,
    _hermitian,
    _project_delta_matrix,
    check_deterministic,
    sample_deterministic,
)
from hoq.semantics import lambda_recursive
from hoq.subspace_algebra import complement_in_T, delta_normal_form
from hoq.type_ast import TypeExpr, factor_dims, make_comb, parse_type, print_canonical, total_dim

EPSILONS = (1e-12, 1e-10, 1e-9, 1e-8, 1e-6)
COMB4 = make_comb([parse_type("A:2->B:2")] * 4)


def reference_check_deterministic(
    R: OperatorLike, x: TypeExpr, tol: float = DEFAULT_TOL
) -> MembershipReport:
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


def _unit_hermitian(side: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    g = (g + g.conj().T) / 2
    return g / np.linalg.norm(g)


def _past_psd(lam: float, side: int, f: np.ndarray) -> np.ndarray:
    """lambda I + c f with c twice what turns the smallest eigenvalue
    negative; f is traceless and nonzero, so its smallest eigenvalue is."""
    c = 2 * lam / -float(np.linalg.eigvalsh(f)[0])
    return lam * np.eye(side, dtype=complex) + c * f


def membership_inputs(x: TypeExpr, seed: int) -> Iterator[tuple[str, np.ndarray]]:
    """Inputs on, near and away from the affine slice of x."""
    rng = np.random.default_rng(seed)
    side = total_dim(x)
    lam = float(lambda_recursive(x))
    delta, nf_dims = delta_normal_form(x)
    sample = sample_deterministic(x, seed=seed).matrix
    g = _unit_hermitian(side, rng)
    yield "sample", sample
    for eps in EPSILONS:
        yield f"sample+{eps:g}G", sample + eps * g
    yield "random", _unit_hermitian(side, rng) * side
    yield "scaled", 1.01 * lam * np.eye(side, dtype=complex)
    yield "skew", sample + 1e-3j * g
    inside = _project_delta_matrix(g, nf_dims, delta)
    if np.linalg.norm(inside) > 1e-8:
        yield "inside, not PSD", _past_psd(lam, side, inside)
    outside = _project_delta_matrix(g, nf_dims, complement_in_T(delta))
    if np.linalg.norm(outside) > 1e-8:
        yield "outside, not PSD", _past_psd(lam, side, outside)


def _linear_conditions_hold(report: MembershipReport) -> bool:
    tol = report.tolerance
    return (
        report.herm_residual <= tol
        and abs(report.lambda_measured - float(report.lambda_expected)) <= tol
        and report.residual_outside_delta <= tol
    )


def assert_agrees_with_reference(x: TypeExpr, seed: int) -> None:
    for label, mat in membership_inputs(x, seed):
        case = (print_canonical(x), seed, label)
        got = check_deterministic(mat, x)
        ref = reference_check_deterministic(mat, x)
        assert got.verdict == ref.verdict, case
        assert got.lambda_measured == ref.lambda_measured, case
        assert got.lambda_expected == ref.lambda_expected, case
        assert got.herm_residual == ref.herm_residual, case
        bound = 1e-12 * max(1.0, float(np.linalg.norm(mat)))
        assert abs(got.residual_outside_delta - ref.residual_outside_delta) <= bound, case
        if _linear_conditions_hold(got):
            assert got.min_eigenvalue == ref.min_eigenvalue, case
        else:
            assert got.min_eigenvalue is None, case


@given(type_strategy(), st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_package_agrees_with_the_full_spectrum_route(x, seed):
    assume(total_dim(x) <= 64)
    assert_agrees_with_reference(x, seed)


def test_four_tooth_comb_agrees_with_the_full_spectrum_route():
    assert total_dim(COMB4) == 256
    for seed in range(3):
        assert_agrees_with_reference(COMB4, seed)


# --------------------------------------------------------------------------
# the verdict against the definitional affine hull, away from the tolerance
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _hull(text: str) -> tuple[np.ndarray, np.ndarray]:
    return oracles.hull(parse_type(text))


def _oracle_margins(mat: np.ndarray, text: str) -> tuple[float, float, float]:
    """Relative anti-Hermitian residual, relative distance of the Hermitian
    part from the hull, and the negated smallest eigenvalue."""
    scale = max(1.0, float(np.linalg.norm(mat)))
    herm = (mat + mat.conj().T) / 2
    offset, dirs = _hull(text)
    diff = herm - offset
    coeffs = np.einsum("kij,ij->k", dirs.conj(), diff)
    off_hull = diff - np.einsum("k,kij->ij", coeffs, dirs)
    return (
        float(np.linalg.norm(mat - mat.conj().T)) / scale,
        float(np.linalg.norm(off_hull)) / scale,
        -float(np.linalg.eigvalsh(herm)[0]),
    )


@given(type_strategy(), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_verdict_matches_the_hull_oracle_away_from_the_edge(x, seed):
    assume(total_dim(x) <= 16)
    text = print_canonical(x)
    tol = DEFAULT_TOL
    for label, mat in membership_inputs(x, seed):
        margins = _oracle_margins(mat, text)
        if any(tol / 100 <= m <= tol * 100 for m in margins):
            continue
        expected = all(m <= tol for m in margins)
        assert check_deterministic(mat, x, tol=tol).verdict == expected, (text, seed, label)
