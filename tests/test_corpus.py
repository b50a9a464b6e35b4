"""The named objects of tests/corpus.py against their sources' verdicts."""

from fractions import Fraction

import numpy as np
import pytest

from corpus import (
    CORPUS,
    OCB,
    PR_BOX,
    QUBITS4,
    chsh_score,
    local_deterministic_boxes,
    pr_box,
)
from helpers import random_channel_choi
from hoq.choi_numeric import HermOp, check_deterministic, reorder_factors
from oracles import block_project, hull_residual

CLAIMS = [(obj, claim) for obj in CORPUS for claim in obj.claims]


def _as_typed(obj, claim):
    if claim.perm is None:
        return obj.matrix
    return reorder_factors(HermOp(obj.dims, obj.matrix), claim.perm).matrix


@pytest.mark.parametrize(
    "obj, claim", CLAIMS, ids=[f"{o.name}: {c.label}" for o, c in CLAIMS]
)
def test_claims_hold(obj, claim):
    mat = _as_typed(obj, claim)
    report = check_deterministic(mat, claim.type)
    assert report.verdict == claim.deterministic, obj.source
    if claim.deterministic:
        assert np.linalg.eigvalsh(mat)[0] >= -1e-12
        assert hull_residual(mat, claim.type) <= 1e-12
    else:
        # a linear condition rejects it, and one block carries the residual
        assert report.min_eigenvalue is None
        block = block_project(obj.matrix, obj.dims, claim.outside)
        expected = np.linalg.norm(block) / np.linalg.norm(obj.matrix)
        assert report.residual_outside_delta == pytest.approx(expected, abs=1e-12)


# -- the PR box and the CHSH certificate -------------------------------------


def _is_box(diagonal):
    """A distribution over the answers (x, y) for each question (a, b)."""
    p = dict(zip(QUBITS4, diagonal))
    return min(p.values()) >= 0 and all(
        sum(p[a, x, b, y] for x in (0, 1) for y in (0, 1)) == 1
        for a in (0, 1)
        for b in (0, 1)
    )


def test_the_pr_box_wins_every_round():
    assert _is_box(pr_box())
    assert chsh_score(pr_box()) == 1
    assert chsh_score(np.diag(PR_BOX.matrix)) == pytest.approx(1, abs=1e-15)


def test_local_deterministic_boxes_win_three_rounds_in_four():
    boxes = list(local_deterministic_boxes())
    assert len({tuple(box) for box in boxes}) == 16
    assert all(_is_box(box) for box in boxes)
    scores = [chsh_score(box) for box in boxes]
    assert all(isinstance(s, Fraction) for s in scores)
    assert max(scores) == Fraction(3, 4)


def test_random_quantum_product_channels_stay_local():
    rng = np.random.default_rng(1994)
    for _ in range(200):
        pair = np.kron(
            random_channel_choi(2, 2, rng).matrix, random_channel_choi(2, 2, rng).matrix
        )
        assert chsh_score(np.diag(pair).real) <= Fraction(3, 4) + 1e-12


# -- the OCB process ----------------------------------------------------------


def test_ocb_process_spectrum_and_residuals():
    assert np.allclose(
        np.unique(np.round(np.linalg.eigvalsh(OCB.matrix), 12)), [0.0, 0.5]
    )
    # either fixed order misses one signalling term, half of W's norm
    for claim in (c for c in OCB.claims if not c.deterministic):
        report = check_deterministic(_as_typed(OCB, claim), claim.type)
        assert report.residual_outside_delta == pytest.approx(0.5, abs=1e-12)
