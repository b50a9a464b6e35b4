"""_dykstra keeps a correction for the cone step only.

Dykstra's method keeps one correction per set.  The affine step's would be
p = (1 - P_Delta)(y + p) - lambda I, which has no Delta component because
P_Delta(I) = 0, so projecting y alone gives the same affine iterates.  The
loop below is the method with both corrections; the two must agree.
"""

import numpy as np
import pytest

from hoq.choi_numeric import (
    _dykstra,
    _project_delta_matrix,
    _psd_clip,
    max_admissible_scale,
)
from hoq.semantics import lambda_recursive
from hoq.subspace_algebra import delta_normal_form
from hoq.type_ast import parse_type, total_dim

ITERATIONS = 256


def two_correction_iterates(herm, lam, delta, nf_dims, max_iter):
    eye = np.eye(herm.shape[0], dtype=complex)
    y, p, q = herm, np.zeros_like(herm), np.zeros_like(herm)
    for _ in range(max_iter):
        a = lam * eye + _project_delta_matrix(y + p, nf_dims, delta)
        yield a
        p = y + p - a
        b = herm + _psd_clip(a + q - herm)
        q = a + q - b
        y = b


@pytest.mark.parametrize(
    "text",
    ["(A:2->B:2)->C:2", "(A:2->B:3)->C:2", "(A:2->B:2)->(C:2->D:2)",
     "((A:2->B:2)->C:2)->D:2"],
)
def test_affine_iterates_match_the_two_correction_loop(text):
    x = parse_type(text)
    side = total_dim(x)
    delta, nf_dims = delta_normal_form(x)
    lam = float(lambda_recursive(x))
    rng = np.random.default_rng(side)
    v = rng.standard_normal(side) + 1j * rng.standard_normal(side)
    pure = np.outer(v, v.conj()) / np.vdot(v, v).real
    # just past its admissible scale the iterates keep moving for a long time
    herm = 1.01 * max_admissible_scale(pure, x) * pure
    reference = list(two_correction_iterates(herm, lam, delta, nf_dims, ITERATIONS))
    steps = list(_dykstra(herm, lam, delta, nf_dims, ITERATIONS, float("inf")))
    assert [s.iteration for s in steps] == [1, 2, 4, 8, 16, 32, 64, 128, 256]
    for step in steps:
        want = reference[step.iteration - 1]
        assert np.linalg.norm(step.witness - want) <= 1e-12 * np.linalg.norm(want)
    # the iterates move, so the comparison is not one of fixed points
    assert np.linalg.norm(reference[-1] - reference[0]) > 1e-2
