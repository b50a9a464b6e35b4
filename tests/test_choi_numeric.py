"""Concrete operator checks: membership, feasibility, sampling, plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from generators import type_strategy
from helpers import (
    choi_from_kraus,
    identity_op,
    partial_trace,
    random_channel_choi,
    random_density,
    save_matrix,
)
from hoq import choi_numeric
from hoq.choi_numeric import (
    DEFAULT_FEAS_TOL,
    HermOp,
    _dykstra,
    _project_delta_matrix,
    apply_inverse_choi,
    check_admissible,
    check_deterministic,
    load_matrix,
    matrix_from_json_obj,
    matrix_to_json_obj,
    max_admissible_scale,
    oracle_deterministic,
    reorder_factors,
    sample_deterministic,
)
from hoq.semantics import lambda_recursive
from hoq.subspace_algebra import (
    complement_in_T,
    delta_normal_form,
    delta_of_type,
    perp_in_W,
)
from hoq.type_ast import bar, factor_dims, make_comb, parse_type, tensor, total_dim
from oracles import hull_residual

SZ = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture
def nprng():
    return np.random.default_rng(20240917)


def random_herm(rng, side):
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return (g + g.conj().T) / 2


# -- HermOp ---------------------------------------------------------------


def test_hermop_validation():
    with pytest.raises(ValueError):
        HermOp((2, 0), np.eye(1))
    with pytest.raises(ValueError):
        HermOp((2,), np.eye(3))
    with pytest.raises(ValueError):
        HermOp((2,), np.array([[0, 1], [0, 0]], dtype=complex))
    op = HermOp((2, 3), np.eye(6))
    assert op.side == 6 and op.dims == (2, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermop_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        HermOp((2,), np.array([[bad, 0], [0, 1]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "check",
    [check_deterministic, check_admissible, max_admissible_scale],
    ids=lambda f: f.__name__,
)
def test_checkers_refuse_non_finite_ndarray(check, bad):
    m = np.eye(4, dtype=complex) / 2
    m[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        check(m, parse_type("A:2->B:2"))


def test_hermop_stores_an_exactly_hermitian_matrix(nprng):
    m = random_herm(nprng, 4)
    m[0, 1] += 1e-12  # within HERM_TOL
    op = HermOp((2, 2), m)
    assert np.array_equal(op.matrix, op.matrix.conj().T)


def test_hermop_never_shares_the_callers_buffer(nprng):
    m = random_herm(nprng, 4)  # exactly Hermitian: passes the gate as it is
    for given in (m, m[:, :]):
        op = HermOp((2, 2), given)
        assert np.array_equal(op.matrix, m)
        assert not np.shares_memory(op.matrix, m)
    op = HermOp((2, 2), m)
    m[0, 0] += 1.0
    assert op.matrix[0, 0] == m[0, 0] - 1.0


def _exactly_hermitian_inputs(nprng):
    x = parse_type("(A:2->B:2)->C:2")
    state = np.zeros((8, 8), dtype=complex)
    state[0, 0] = 1.0
    yield x, sample_deterministic(x, seed=2).matrix
    yield x, state
    rho = random_density(8, nprng)
    yield x, 0.15 * (rho + rho.conj().T)  # exactly Hermitian by construction
    yield parse_type("A:2->B:2"), 0.5 * np.eye(4, dtype=complex)


def test_exactly_hermitian_raw_input_matches_its_hermop(nprng):
    for x, m in _exactly_hermitian_inputs(nprng):
        assert np.array_equal(m, m.conj().T)
        op = HermOp(factor_dims(x), m)
        raw_report = check_deterministic(m, x)
        assert raw_report == check_deterministic(op, x)
        assert raw_report.herm_residual == 0.0
        raw, wrapped = check_admissible(m, x), check_admissible(op, x)
        assert (raw.feasible, raw.iterations, raw.final_distance) == (
            wrapped.feasible, wrapped.iterations, wrapped.final_distance
        )
        assert (raw.witness is None) == (wrapped.witness is None)
        if raw.witness is not None:
            assert np.array_equal(raw.witness.matrix, wrapped.witness.matrix)
        assert max_admissible_scale(m, x) == max_admissible_scale(op, x)


def test_hermop_scalar():
    op = identity_op(())
    assert op.side == 1 and op.matrix[0, 0] == 1


# -- factor plumbing ------------------------------------------------------


def test_partial_trace_values(nprng):
    a = random_herm(nprng, 2)
    b = random_herm(nprng, 3)
    op = HermOp((2, 3), np.kron(a, b))
    left = partial_trace(op, [1])
    assert left.dims == (2,)
    assert np.allclose(left.matrix, a * np.trace(b))
    right = partial_trace(op, [0])
    assert np.allclose(right.matrix, b * np.trace(a))
    both = partial_trace(op, [0, 1])
    assert both.dims == ()
    assert np.allclose(both.matrix, np.trace(a) * np.trace(b))
    with pytest.raises(ValueError):
        partial_trace(op, [2])


def test_reorder_factors_swaps_kron(nprng):
    a = random_herm(nprng, 2)
    b = random_herm(nprng, 3)
    op = HermOp((2, 3), np.kron(a, b))
    swapped = reorder_factors(op, (1, 0))
    assert swapped.dims == (3, 2)
    assert np.allclose(swapped.matrix, np.kron(b, a))
    with pytest.raises(ValueError):
        reorder_factors(op, (0, 0))


def test_reorder_then_trace_commutes(nprng):
    m = random_herm(nprng, 8)
    op = HermOp((2, 2, 2), m)
    perm = (2, 0, 1)
    # tracing new position 0 == tracing old position perm[0]
    lhs = partial_trace(reorder_factors(op, perm), [0])
    rhs = reorder_factors(partial_trace(op, [perm[0]]), (0, 1))
    assert np.allclose(lhs.matrix, rhs.matrix)


def test_apply_inverse_choi_identity_channel(nprng):
    choi = choi_from_kraus([np.eye(2, dtype=complex)])
    o = HermOp((2,), random_herm(nprng, 2))
    image = apply_inverse_choi(choi, o)
    assert np.allclose(image.matrix, o.matrix)


def test_apply_inverse_choi_trace_collapse(nprng):
    # the map rho -> Tr(rho) I/d has Choi I/d
    d = 3
    choi = HermOp((d, d), np.eye(d * d, dtype=complex) / d)
    o = HermOp((d,), random_herm(nprng, d))
    image = apply_inverse_choi(choi, o)
    assert np.allclose(image.matrix, np.trace(o.matrix) * np.eye(d) / d)


def test_apply_inverse_choi_dim_guard():
    choi = choi_from_kraus([np.eye(2, dtype=complex)])
    with pytest.raises(ValueError):
        apply_inverse_choi(choi, identity_op((3,)))


def test_choi_from_kraus_trace_preserving(nprng):
    for d_in, d_out in [(2, 2), (2, 3), (3, 2)]:
        choi = random_channel_choi(d_in, d_out, nprng)
        reduced = partial_trace(choi, [1])
        assert np.allclose(reduced.matrix, np.eye(d_in)), (d_in, d_out)


# -- deterministic membership --------------------------------------------


def test_channel_chois_are_deterministic(nprng):
    x = parse_type("A:2->B:3")
    for _ in range(5):
        choi = random_channel_choi(2, 3, nprng)
        assert check_deterministic(choi, x).verdict


@given(type_strategy(dims=(1, 2, 3), max_leaves=4))
@settings(max_examples=60)
def test_uniform_element_is_deterministic(x):
    if total_dim(x) > 16:
        return
    lam = float(lambda_recursive(x))
    report = check_deterministic(lam * np.eye(total_dim(x)), x)
    assert report.verdict
    assert report.lambda_measured == pytest.approx(lam, abs=1e-12)
    assert report.residual_outside_delta <= 1e-12


def test_effect_normalization():
    x = parse_type("A:2->I")
    assert check_deterministic(np.eye(2, dtype=complex), x).verdict
    report = check_deterministic(np.eye(2, dtype=complex) / 2, x)
    assert not report.verdict
    assert report.lambda_measured == pytest.approx(0.5)
    assert float(report.lambda_expected) == 1.0


def test_rejections_populate_report(nprng):
    x = parse_type("A:2->B:2")
    lam = 0.5
    base = lam * np.eye(4, dtype=complex)
    # non-Hermitian
    skew = base + 1e-3 * np.array(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex
    )
    r = check_deterministic(skew, x)
    assert not r.verdict and r.herm_residual > 1e-9
    # support outside the admissible blocks: identity on the output factor,
    # traceless on the input factor
    leak = base + 1e-3 * np.kron(SZ, np.eye(2))
    r = check_deterministic(leak, x)
    assert not r.verdict and r.residual_outside_delta > 1e-9
    assert r.herm_residual <= 1e-12
    # trace off
    r = check_deterministic(1.01 * base, x)
    assert not r.verdict
    # negative eigenvalue with trace and blocks fine: scale fluctuation to
    # overshoot the identity part
    fluct = np.kron(SZ, SZ)  # inside Delta for A->B (both traceless)
    r = check_deterministic(base + 0.6 * fluct, x)
    assert not r.verdict and r.min_eigenvalue < -1e-9


def test_tolerance_is_honored():
    x = parse_type("A:2->B:2")
    bad = 0.5 * np.eye(4, dtype=complex) + 1e-7 * np.kron(SZ, np.eye(2))
    assert not check_deterministic(bad, x, tol=1e-9).verdict
    assert check_deterministic(bad, x, tol=1e-4).verdict


def test_product_channels_pass_tensor_type(nprng):
    xtens = tensor(parse_type("A:2->B:2"), parse_type("C:2->D:2"))
    m1 = random_channel_choi(2, 2, nprng)
    m2 = random_channel_choi(2, 2, nprng)
    # route 1: kron of the two Chois is already laid out (A, B, C, D)
    direct = np.kron(m1.matrix, m2.matrix)
    assert check_deterministic(direct, xtens).verdict
    # route 2: joint Kraus products give the (A, C, B, D) layout; reorder
    k1 = np.eye(2, dtype=complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    joint = choi_from_kraus([np.kron(k1, h)])
    rewired = reorder_factors(
        HermOp((2, 2, 2, 2), joint.matrix), (0, 2, 1, 3)
    )
    assert check_deterministic(rewired.matrix, xtens).verdict
    assert np.allclose(
        rewired.matrix,
        np.kron(choi_from_kraus([k1]).matrix, choi_from_kraus([h]).matrix),
    )


def test_swap_channel_fails_tensor_type():
    xtens = tensor(parse_type("A:2->B:2"), parse_type("C:2->D:2"))
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    choi = choi_from_kraus([swap])
    rewired = reorder_factors(HermOp((2, 2, 2, 2), choi.matrix), (0, 2, 1, 3))
    report = check_deterministic(rewired.matrix, xtens)
    assert not report.verdict
    assert report.residual_outside_delta > 1e-3


# -- admissibility ---------------------------------------------------------


def test_admissible_uniform(nprng):
    x = parse_type("A:2->B:2")
    lam = float(lambda_recursive(x))
    report = check_admissible(lam * np.eye(4, dtype=complex), x)
    assert report.feasible == "yes"
    assert report.final_distance < DEFAULT_FEAS_TOL
    assert report.iterations >= 1
    w = report.witness
    assert w is not None
    # the witness sits in the affine slice and dominates the input
    assert check_deterministic(w.matrix, x, tol=1e-5).verdict
    gap = np.linalg.eigvalsh(w.matrix - lam * np.eye(4))[0]
    assert gap >= -1e-5


def test_admissible_rejects_double_uniform():
    x = parse_type("A:2->B:2")
    report = check_admissible(np.eye(4, dtype=complex), x, max_iter=3000)
    assert report.feasible == "no_certificate"
    assert report.witness is None
    assert report.final_distance > DEFAULT_FEAS_TOL


def test_admissible_runs_out_of_iterations():
    # a pure state at 0.999 of its witnessed scale is admissible, so no dual
    # event refutes it, and 16 iterations find no witness either
    x = parse_type("(A:2->B:2)->C:2")
    rng = np.random.default_rng(0)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    m = np.outer(v, v.conj()) / np.vdot(v, v).real
    m *= 0.999 * max_admissible_scale(m, x)
    report = check_admissible(m, x, max_iter=16)
    assert report.feasible == "no_certificate" and report.witness is None
    assert report.iterations == 16
    assert 0 < report.final_distance < float("inf")


def test_admissible_precheck_non_psd():
    x = parse_type("A:2")
    report = check_admissible(-np.eye(2, dtype=complex), x)
    assert report.feasible == "no_certificate"
    assert report.iterations == 0
    assert report.final_distance == float("inf")


def skewed_channel():
    """Half a sampled A:2->B:2 event with 0.05 added to one off-diagonal
    entry: ||M - M^dag||_F is about 12% of ||M||_F."""
    x = parse_type("A:2->B:2")
    m = 0.5 * sample_deterministic(x, seed=3).matrix
    m[0, 1] += 0.05
    return m, x


def test_admissible_precheck_non_hermitian():
    report = check_admissible(*skewed_channel())
    assert report.feasible == "no_certificate" and report.witness is None
    assert report.iterations == 0
    assert report.final_distance == float("inf")


def test_max_admissible_scale_uniform():
    x = parse_type("A:2->B:2")
    lam = float(lambda_recursive(x))
    eye = np.eye(4, dtype=complex)
    assert max_admissible_scale(lam * eye, x) == 1.0
    assert max_admissible_scale(2 * lam * eye, x) == 0.5


def test_max_admissible_scale_rank_deficient():
    # a pure state scales up to exactly 1 inside the state slice
    x = parse_type("A:2")
    proj = np.diag([1.0, 0.0]).astype(complex)
    assert max_admissible_scale(proj, x) == pytest.approx(1.0, abs=1e-6)


def test_max_admissible_scale_guards():
    x = parse_type("A:2")
    with pytest.raises(ValueError):
        max_admissible_scale(-np.eye(2, dtype=complex), x)
    with pytest.raises(ValueError):
        max_admissible_scale(np.zeros((2, 2), dtype=complex), x)


def test_max_admissible_scale_refuses_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        max_admissible_scale(*skewed_channel())


# -- sampling and the definitional oracle ----------------------------------


def test_sample_deterministic_reproducible():
    x = parse_type("(A:2->B:2)->C:2")
    a = sample_deterministic(x, seed=7)
    b = sample_deterministic(x, seed=7)
    c = sample_deterministic(x, seed=8)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.allclose(a.matrix, c.matrix)


@pytest.mark.parametrize(
    "text", ["A:2", "A:2->B:2", "A:2->B:3", "(A:2->B:2)->C:2", "A:2->I"]
)
def test_sample_deterministic_members(text):
    x = parse_type(text)
    lam = float(lambda_recursive(x))
    for seed in range(4):
        r = sample_deterministic(x, seed=seed)
        assert check_deterministic(r, x).verdict, (text, seed)
        # strictly positive by construction
        assert np.linalg.eigvalsh(r.matrix)[0] >= 0.05 * lam - 1e-12


def test_sample_deterministic_spread():
    x = parse_type("A:2->B:2")
    with pytest.raises(ValueError):
        sample_deterministic(x, spread=0.0)
    with pytest.raises(ValueError):
        sample_deterministic(x, spread=1.5)
    tight = sample_deterministic(x, seed=3, spread=0.1)
    loose = sample_deterministic(x, seed=3, spread=1.0)
    dev_tight = np.linalg.norm(tight.matrix - 0.5 * np.eye(4))
    dev_loose = np.linalg.norm(loose.matrix - 0.5 * np.eye(4))
    assert dev_tight < dev_loose


# -- block projector ----------------------------------------------------------

PROJECTOR_TYPES = {
    "effect": parse_type("A:2->I"),
    "state_input": parse_type("I->A:2"),
    "dual_effect": parse_type("(A:2->I)->I"),
    "qutrit_channel": parse_type("A:3->B:3"),
    "mixed_dims": parse_type("A:2*B:3->C:4"),
    "channel_pair": tensor(parse_type("A:2->B:2"), parse_type("C:2->D:2")),
    "comb4": make_comb([parse_type("A:2->B:2")] * 4),
}


def projector_inputs(rng, side):
    """A Hermitian, a generic complex and a generic real matrix: the
    projector runs on real and imaginary parts apart, and does not
    symmetrize."""
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return [(g + g.conj().T) / 2, g, g.real]


@pytest.mark.parametrize("which", ["delta", "outside"])
@pytest.mark.parametrize("name", sorted(PROJECTOR_TYPES))
def test_projector_matches_block_oracle(name, which):
    x = PROJECTOR_TYPES[name]
    dims = factor_dims(x)
    delta = delta_of_type(x)
    J = delta if which == "delta" else complement_in_T(delta)
    for X in projector_inputs(np.random.default_rng(len(dims)), total_dim(x)):
        scale = np.linalg.norm(X)
        expected = sum(
            (oracles.block_project(X, dims, b) for b in J.as_bitstrings()),
            np.zeros_like(X),
        )
        got = _project_delta_matrix(X, dims, J)
        assert got.dtype == X.dtype
        assert np.linalg.norm(got - expected) <= 1e-12 * scale
        rest = _project_delta_matrix(X, dims, perp_in_W(J))
        assert np.linalg.norm(got + rest - X) <= 1e-12 * scale


def test_oracle_agrees_with_block_checker(nprng):
    x = parse_type("A:2")
    y = parse_type("B:2")
    arrow = parse_type("A:2->B:2")
    cases = [
        choi_from_kraus([np.eye(2, dtype=complex)]).matrix,
        np.eye(4, dtype=complex) / 2,  # trace collapse channel
        sample_deterministic(arrow, seed=5).matrix,
        np.eye(4, dtype=complex) / 4,  # wrong normalization
        choi_from_kraus([np.diag([1.0, 0.5]).astype(complex)]).matrix,  # not TP
        random_herm(nprng, 4),  # generic: almost surely not a member
    ]
    for mat in cases:
        direct = check_deterministic(mat, arrow).verdict
        probed = oracle_deterministic(mat, x, y, samples=10, seed=1)
        assert direct == probed, mat


def test_oracle_rejects_non_psd():
    x = parse_type("A:2")
    y = parse_type("B:2")
    mat = 0.5 * np.eye(4, dtype=complex)
    mat[0, 0] = -0.1
    assert not oracle_deterministic(mat, x, y)


def test_oracle_draws_no_probe_after_the_first_failure(monkeypatch, nprng):
    drawn = []
    sample = choi_numeric.sample_deterministic

    def counted(x, seed, spread):
        drawn.append((seed, spread))
        return sample(x, seed=seed, spread=spread)

    monkeypatch.setattr(choi_numeric, "sample_deterministic", counted)
    x, y = parse_type("A:2"), parse_type("B:2")
    channel = random_channel_choi(2, 2, nprng).matrix
    # lambda_x I already maps half a channel to trace 1/2
    assert not oracle_deterministic(0.5 * channel, x, y, samples=50)
    assert drawn == []
    assert oracle_deterministic(channel, x, y, samples=50, seed=3)
    rng = np.random.default_rng(3)
    assert drawn == [
        (int(rng.integers(0, 2**63 - 1)), float(rng.uniform(0.1, 1.0)))
        for _ in range(50)
    ]


# -- matrix files ----------------------------------------------------------


def test_matrix_json_round_trip(tmp_path, nprng):
    op = HermOp((2, 2), random_herm(nprng, 4))
    path = tmp_path / "op.json"
    save_matrix(str(path), op)
    back = load_matrix(str(path))
    assert back.dims == op.dims
    assert np.allclose(back.matrix, op.matrix)
    obj = matrix_to_json_obj(op)
    assert set(obj) == {"dims", "matrix"}
    again = matrix_from_json_obj(obj)
    assert np.allclose(again.matrix, op.matrix)


def test_matrix_json_errors():
    with pytest.raises(ValueError):
        matrix_from_json_obj({"dims": [2]})
    with pytest.raises(ValueError):
        matrix_from_json_obj({"dims": [2], "matrix": [[[1, 0]]]})
    with pytest.raises(ValueError):
        matrix_from_json_obj(
            {"dims": [2], "matrix": [[[1, 0]], [[0, 0], [1, 0]]]}
        )


def test_random_density_is_density(nprng):
    rho = random_density(3, nprng)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_matrix_json_checks_rows_before_allocating():
    # a side of 10^10 would not fit in memory; the row count is refused first
    with pytest.raises(ValueError, match="0 rows, expected 10000000000"):
        matrix_from_json_obj({"dims": [100000, 100000], "matrix": []})


def test_sides_above_the_limit_are_refused_before_allocating():
    limit = choi_numeric.MAX_SIDE
    # matching empty rows: the side is refused before any row is read
    with pytest.raises(ValueError, match="exceeds the limit"):
        matrix_from_json_obj({"dims": [limit + 1], "matrix": [[]] * (limit + 1)})
    with pytest.raises(ValueError, match="row 0 has 0 entries"):
        matrix_from_json_obj({"dims": [limit], "matrix": [[]] * limit})
    # a side of 2^20: the dense sample would need 16 TiB
    with pytest.raises(ValueError, match="exceeds the limit"):
        sample_deterministic(parse_type("A:1024->B:1024"))
    with pytest.raises(ValueError, match="exceeds the limit"):
        oracle_deterministic(
            np.eye(1, dtype=complex), parse_type("A:1024"), parse_type("B:1024")
        )


# -- admissibility certificates, pinned against the definitional hull --------


CERTIFICATE_TYPES = ["A:2->I", "A:3", "A:2->B:2", "(A:2->B:2)->C:2", "A:2*B:2->C:2"]


@pytest.mark.parametrize("text", CERTIFICATE_TYPES)
def test_dual_events_lie_in_the_dual_hull(text):
    x = parse_type(text)
    side = total_dim(x)
    delta, nf_dims = delta_normal_form(x)
    lam = float(lambda_recursive(x))
    rng = np.random.default_rng(side)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    m = g @ g.conj().T / np.trace(g @ g.conj().T).real
    duals = [
        step.dual
        # below and above the trace bound lambda d, where states are refused
        for trace in (0.9 * lam * side, 1.1 * lam * side)
        for step in _dykstra(trace * m, lam, delta, nf_dims, 64, margin=0.0)
        if step.dual is not None
    ]
    assert duals
    for e in duals:
        assert np.linalg.eigvalsh(e)[0] >= -1e-12 * np.linalg.norm(e)
        assert hull_residual(e, bar(x)) <= 1e-9 * max(1.0, np.linalg.norm(e))


@settings(max_examples=40, deadline=None)
@given(
    text=st.sampled_from(CERTIFICATE_TYPES),
    seed=st.integers(0, 2**32 - 1),
    top=st.floats(0.0, 1.0),
)
def test_dominated_inputs_are_admissible_with_a_verified_witness(text, seed, top):
    x = parse_type(text)
    side = total_dim(x)
    rng = np.random.default_rng(seed)
    r = sample_deterministic(x, seed=seed).matrix
    vals, vecs = np.linalg.eigh(r)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    k = g @ g.conj().T
    k *= top / np.linalg.eigvalsh(k)[-1]  # 0 <= K, ||K|| = top <= 1
    m = root @ k @ root
    report = check_admissible(m, x)
    assert report.feasible == "yes"
    w = report.witness.matrix
    assert hull_residual(w, x) <= 1e-9
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    assert np.linalg.eigvalsh(w - m)[0] >= -1e-9 * scale


def test_barely_inadmissible_effect_is_not_accepted():
    x = parse_type("A:2->I")
    report = check_admissible((1 + 1e-7) * np.diag([1.0, 0.0]).astype(complex), x)
    assert report.feasible == "no_certificate"
    assert report.witness is None
    # the dual event diag(1, 0) refutes it at the first check; the distance
    # from the slice {I} to {Z >= M} is exactly 1e-7
    assert report.iterations == 1
    assert report.final_distance == pytest.approx(1e-7, rel=1e-6)


@pytest.mark.parametrize("text", ["A:2->B:2", "(A:2->B:2)->C:2", "A:2*B:2->C:2"])
def test_inadmissible_pure_state_is_refuted_early(nprng, text):
    # a pure operator below the trace bound: only a dual event can refute it
    x = parse_type(text)
    side = total_dim(x)
    v = nprng.standard_normal(side) + 1j * nprng.standard_normal(side)
    lam = float(lambda_recursive(x))
    m = 0.99 * lam * side * np.outer(v, v.conj()) / (v.conj() @ v)
    report = check_admissible(m, x)
    assert report.feasible == "no_certificate"
    assert 1 <= report.iterations <= 64
    assert report.final_distance > 0


def test_scale_of_a_channel_projector_does_not_overshoot():
    x = parse_type("A:2->B:2")
    scale = max_admissible_scale(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), x)
    assert 1 - 1e-6 <= scale <= 1


@pytest.mark.parametrize(
    "text, seed, tol",
    [
        ("(A:2->B:2)->C:2", 0, 1e-2),
        ("(A:2->B:2)->C:2", 8, 1e-4),
        ("A:2->B:2", 0, 1e-2),
        ("A:2->B:2", 1, 1e-4),
    ],
)
def test_scale_search_with_a_coarse_tol_ends(monkeypatch, text, seed, tol):
    # with a coarse tol a probe can stop before it moves either end; the
    # search must end there rather than repeat the same probe forever
    x = parse_type(text)
    side = total_dim(x)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    m = g @ g.conj().T / np.trace(g @ g.conj().T).real
    dykstra, probes = choi_numeric._dykstra, []

    def counted(*args, **kwargs):
        probes.append(None)
        assert len(probes) <= 64, "the scale search repeats its probes"
        return dykstra(*args, **kwargs)

    monkeypatch.setattr(choi_numeric, "_dykstra", counted)
    scale = max_admissible_scale(m, x, tol=tol)
    lam = float(lambda_recursive(x))
    assert lam / np.linalg.eigvalsh(m)[-1] <= scale <= lam * side * (1 + 1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_scale_of_an_effect_is_at_most_the_inverse_norm(nprng, d):
    x = parse_type(f"A:{d}->I")
    g = random_herm(nprng, d)
    m = g @ g
    bound = 1 / np.linalg.eigvalsh(m)[-1]
    scale = max_admissible_scale(m, x)
    assert bound * (1 - 1e-6) <= scale <= bound * (1 + 1e-12)  # rounding


def test_trace_certificate_rejects_before_any_iteration(nprng):
    x = parse_type("A:4->B:4")
    lam = float(lambda_recursive(x))
    g = random_herm(nprng, 16)
    m = g @ g
    m *= 1.5 * lam * 16 / np.trace(m).real
    report = check_admissible(m, x)
    assert report.feasible == "no_certificate"
    assert report.iterations == 0
    # the uniform dual event gives the distance bound (Tr M - lambda d) / sqrt(d)
    assert report.final_distance == pytest.approx(0.5 * lam * 16 / 4)
