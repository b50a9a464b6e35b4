"""Comb closed forms, two-sided layout, normalization, and composition."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from comb_routes import comb_arrow_delta, comb_tensor_delta
from helpers import random_channel_choi
from hoq.choi_numeric import (
    HermOp,
    check_deterministic,
    reorder_factors,
    sample_deterministic,
)
from hoq.comb_toolkit import (
    CombSpec,
    check_comb_normalization,
    comb_delta_closed,
    comb_equiv_permutation,
    comb_lambda_closed,
    expand_slot_perm,
    random_comb_choi,
)
from hoq.semantics import check_equiv, lambda_recursive
from hoq.subspace_algebra import StringSet, delta_of_type, normal_form
from hoq.type_ast import (
    Arrow,
    factor_dims,
    make_comb,
    parse_type,
    tensor,
)

BASES = {
    "elementary": "A:2",
    "channel": "A:2->B:2",
    "supermap": "(A:2->B:2)->C:2",
    "mixed-dims": "A:2->B:3",
}


@pytest.fixture
def nprng():
    return np.random.default_rng(20240917)


def uniform_spec(text: str, n: int) -> CombSpec:
    return CombSpec.uniform(parse_type(text), n)


# -- spec plumbing ---------------------------------------------------------


def test_comb_spec_validation():
    base = parse_type("A:2->B:2")
    with pytest.raises(ValueError):
        CombSpec(0, ())
    with pytest.raises(ValueError):
        CombSpec(2, (base,))
    spec = CombSpec.uniform(base, 3)
    assert spec.derived == make_comb([base, base, base])


# -- closed forms vs the recursion ------------------------------------------

MIXED_TEETH = ["I", "A:2*B:3", "A:2->I", "(A:2->B:2)->C:2", "A:3->(B:2->C:2)"]


def test_closed_forms_on_mixed_teeth():
    # every sequence of up to three teeth, and seeded draws of four and five
    teeth = [parse_type(t) for t in MIXED_TEETH]
    rng = random.Random(6)
    combs = [c for n in (1, 2, 3) for c in itertools.product(teeth, repeat=n)]
    combs += [tuple(rng.choices(teeth, k=n)) for n in (4, 5) for _ in range(40)]
    for bases in combs:
        spec = CombSpec(len(bases), bases)
        assert comb_delta_closed(spec) == delta_of_type(spec.derived), bases
        assert comb_lambda_closed(spec) == lambda_recursive(spec.derived), bases
    # pinned against the oracle: an effect, the trivial system and a qubit
    # as teeth, ((A:2->I)->I)->B:2
    spec = CombSpec(3, tuple(parse_type(t) for t in ["A:2->I", "I", "B:2"]))
    x = spec.derived
    dims = factor_dims(x)
    ref = oracles.oracle_semantics(x)
    assert float(comb_lambda_closed(spec)) == pytest.approx(ref["lambda"], abs=1e-9)
    assert normal_form(comb_delta_closed(spec), dims) == normal_form(
        StringSet.from_bitstrings(len(dims), ref["delta"]), dims
    )


@pytest.mark.parametrize("kind", sorted(BASES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_delta_matches_recursion(kind, n):
    spec = uniform_spec(BASES[kind], n)
    assert comb_delta_closed(spec) == delta_of_type(spec.derived)


@pytest.mark.parametrize("kind", sorted(BASES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_lambda_matches_recursion(kind, n):
    spec = uniform_spec(BASES[kind], n)
    lam = comb_lambda_closed(spec)
    assert isinstance(lam, Fraction)
    assert lam == lambda_recursive(spec.derived)


def test_closed_forms_on_nonuniform_channel_teeth():
    teeth = tuple(
        parse_type(t) for t in ["A:2->B:3", "C:3->D:2", "E:2->F:2"]
    )
    spec = CombSpec(3, teeth)
    assert comb_delta_closed(spec) == delta_of_type(spec.derived)
    assert comb_lambda_closed(spec) == lambda_recursive(spec.derived)


def test_single_tooth_comb_is_the_base():
    base = parse_type("A:2->B:2")
    spec = CombSpec.uniform(base, 1)
    assert spec.derived == base
    assert comb_delta_closed(spec) == delta_of_type(base)
    assert comb_lambda_closed(spec) == lambda_recursive(base)


# -- two-sided layout -------------------------------------------------------


def test_comb_equiv_permutation_frozen():
    assert comb_equiv_permutation(1) == (0, 1)
    assert comb_equiv_permutation(2) == (2, 0, 1, 3)
    assert comb_equiv_permutation(3) == (4, 2, 0, 1, 3, 5)
    assert comb_equiv_permutation(4) == (6, 4, 2, 0, 1, 3, 5, 7)
    with pytest.raises(ValueError):
        comb_equiv_permutation(0)


def test_expand_slot_perm():
    assert expand_slot_perm((2, 0, 1, 3), (1, 1, 1, 1)) == (2, 0, 1, 3)
    assert expand_slot_perm((2, 0, 1, 3), (1, 2, 1, 1)) == (3, 0, 1, 2, 4)
    assert expand_slot_perm((1, 0), (2, 3)) == (2, 3, 4, 0, 1)
    with pytest.raises(ValueError):
        expand_slot_perm((0, 0), (1, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_comb_equivalent_to_wire_chain(n):
    # an n-comb of qubit channels against the chain of 2n elementary wires,
    # aligned by the two-sided permutation: same lambda, same index data
    tooth = parse_type("A:2->B:2")
    comb = make_comb([tooth] * n)
    wires = make_comb([parse_type("E:2")] * (2 * n))
    perm = comb_equiv_permutation(n)
    v = check_equiv(comb, wires, perm=perm)
    assert v.equivalent
    # and the alignment is required: identity fails for n >= 2
    if n >= 2:
        assert not check_equiv(comb, wires, perm=tuple(range(2 * n))).equivalent


# -- normalization checks ----------------------------------------------------


def two_sided_perm(spec: CombSpec) -> tuple[int, ...]:
    sizes = []
    for base in spec.bases:
        sizes.append(len(factor_dims(base.tail)))
        sizes.append(len(factor_dims(base.head)))
    return expand_slot_perm(comb_equiv_permutation(spec.n), sizes)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_uniform_element_passes_normalization(n):
    spec = uniform_spec("A:2->B:2", n)
    lam = float(comb_lambda_closed(spec))
    side = 4**n
    dims = (2,) * (2 * n)
    assert check_comb_normalization(
        HermOp(dims, lam * np.eye(side, dtype=complex)), spec
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampled_members_pass_normalization(n):
    spec = uniform_spec("A:2->B:2", n)
    perm = two_sided_perm(spec)
    for seed in range(3):
        r = sample_deterministic(spec.derived, seed=seed)
        assert check_comb_normalization(
            reorder_factors(r, perm), spec, tol=1e-8
        ), seed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_networks_pass_both_routes(nprng, n):
    spec = uniform_spec("A:2->B:2", n)
    perm = two_sided_perm(spec)
    back = tuple(np.argsort(perm))
    for _ in range(3):
        r = random_comb_choi(spec, nprng)
        assert check_comb_normalization(r, spec, tol=1e-8)
        assert check_deterministic(
            reorder_factors(r, back), spec.derived, tol=1e-8
        ).verdict


def test_memoryless_product_is_not_a_member(nprng):
    # kron of independent tooth channels sits in the comb layout; a 2-comb
    # member must let the first output feed the second input, which the
    # product cannot certify under telescoping
    spec = uniform_spec("A:2->B:2", 2)
    perm = two_sided_perm(spec)
    c1 = random_channel_choi(2, 2, nprng)
    c2 = random_channel_choi(2, 2, nprng)
    product = HermOp((2, 2, 2, 2), np.kron(c1.matrix, c2.matrix))
    assert not check_comb_normalization(
        reorder_factors(product, perm), spec, tol=1e-8
    )
    assert not check_deterministic(product, spec.derived, tol=1e-8).verdict


def test_normalization_guards(nprng):
    spec = uniform_spec("A:2->B:2", 2)
    with pytest.raises(ValueError):
        check_comb_normalization(HermOp((2, 2), np.eye(4)), spec)
    with pytest.raises(ValueError):
        check_comb_normalization(
            HermOp((2,) * 4, np.eye(16)), uniform_spec("A:2", 4)
        )
    negative = HermOp((2,) * 4, -np.eye(16, dtype=complex))
    assert not check_comb_normalization(negative, spec)


def test_normalization_builds_no_hermop(nprng, monkeypatch):
    spec = uniform_spec("A:2->B:2", 4)
    r = random_comb_choi(spec, nprng)
    built = []
    post_init = HermOp.__post_init__

    def counted(self):
        built.append(self.dims)
        post_init(self)

    monkeypatch.setattr(HermOp, "__post_init__", counted)
    assert check_comb_normalization(r, spec, tol=1e-8)
    assert built == []


@pytest.mark.parametrize("n", [1, 2, 4])
def test_normalization_verdicts_on_a_perturbed_network(nprng, n):
    spec = uniform_spec("A:2->B:2", n)
    r = random_comb_choi(spec, nprng)
    assert check_comb_normalization(r, spec, tol=1e-8)
    rest = np.eye(r.side // 2)
    # the first tooth's input marginal is no longer proportional to I
    p0 = np.diag([1.0, 0.0])
    tilted = HermOp(r.dims, r.matrix + 1e-3 * np.kron(p0, rest))
    assert not check_comb_normalization(tilted, spec, tol=1e-8)
    # Z on the first and last wires leaves every partial trace as it is,
    # so only the PSD test can refuse this
    z = np.diag([1.0, -1.0])
    zz = np.kron(np.kron(z, np.eye(r.side // 4)), z)
    assert np.allclose(np.trace(zz.reshape(r.side // 2, 2, r.side // 2, 2),
                                axis1=1, axis2=3), 0)
    skewed = HermOp(r.dims, r.matrix + 2.0 * zz)
    assert np.linalg.eigvalsh(skewed.matrix)[0] < -0.5
    assert not check_comb_normalization(skewed, spec, tol=1e-8)


def test_random_comb_choi_mixed_dims(nprng):
    teeth = tuple(parse_type(t) for t in ["A:2->B:3", "C:3->D:2"])
    spec = CombSpec(2, teeth)
    r = random_comb_choi(spec, nprng)
    assert r.dims == (3, 2, 3, 2)  # (A_2, A_1, B_1, B_2)
    assert check_comb_normalization(r, spec, tol=1e-8)
    back = tuple(np.argsort(two_sided_perm(spec)))
    assert check_deterministic(
        reorder_factors(r, back), spec.derived, tol=1e-8
    ).verdict


# -- composition -------------------------------------------------------------


def _comb_type(n: int, dims: tuple[int, int]):
    def tooth():
        d_in, d_out = dims
        text = []
        text.append("I" if d_in == 1 else f"P:{d_in}")
        text.append("I" if d_out == 1 else f"Q:{d_out}")
        return parse_type(f"{text[0]}->{text[1]}")

    return make_comb([tooth() for _ in range(n)])


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_tensor_of_combs_two_routes(m, n):
    xt = tensor(_comb_type(m, (2, 2)), _comb_type(n, (2, 2)))
    expected = normal_form(delta_of_type(xt), factor_dims(xt))[0]
    assert comb_tensor_delta(m, n, (2, 2)) == expected


def test_tensor_of_combs_mixed_dims():
    xt = tensor(_comb_type(2, (2, 3)), _comb_type(1, (3, 2)))
    expected = normal_form(delta_of_type(xt), factor_dims(xt))[0]
    assert comb_tensor_delta(2, 1, (2, 3), (3, 2)) == expected


def test_tensor_of_combs_with_trivial_wires():
    # measurement-shaped teeth: outputs are trivial
    xt = tensor(_comb_type(1, (2, 1)), _comb_type(2, (2, 1)))
    expected = normal_form(delta_of_type(xt), factor_dims(xt))[0]
    assert comb_tensor_delta(1, 2, (2, 1)) == expected


def test_tensor_route_matches_frozen_non_signalling_set():
    # frozen from tests/oracles.py: tensor of two qubit channels
    got = comb_tensor_delta(1, 1, (2, 2))
    assert got.as_bitstrings() == [
        "0000",
        "0010",
        "0011",
        "1000",
        "1010",
        "1011",
        "1100",
        "1110",
    ]


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_arrow_of_combs_two_routes(n, m):
    xa = Arrow(_comb_type(n, (2, 2)), _comb_type(m, (2, 2)))
    expected = normal_form(delta_of_type(xa), factor_dims(xa))[0]
    assert comb_arrow_delta(n, m, (2, 2)) == expected


def test_arrow_of_combs_mixed_dims():
    xa = Arrow(_comb_type(1, (3, 2)), _comb_type(2, (2, 3)))
    expected = normal_form(delta_of_type(xa), factor_dims(xa))[0]
    assert comb_arrow_delta(1, 2, (3, 2), (2, 3)) == expected


def test_composition_guards():
    with pytest.raises(ValueError):
        comb_tensor_delta(0, 1, (2, 2))
    with pytest.raises(ValueError):
        comb_arrow_delta(1, 1, (2, 2, 2))
