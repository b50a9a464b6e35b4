"""Acceptance run: one criterion per test, one printed PASS/FAIL line each.

Every criterion states its own tolerance and, where relevant, a time budget.
Random draws are seeded so the run is reproducible.
"""

import random
import time
from fractions import Fraction
from math import prod

import numpy as np

from generators import random_type
from helpers import (
    choi_from_kraus,
    extend_by,
    k_exponents,
    partial_trace,
    random_channel_choi,
    random_density,
)
from hoq.choi_numeric import (
    HermOp,
    check_admissible,
    check_deterministic,
    max_admissible_scale,
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
from hoq.inverse_search import SearchSpec, inverse_search
from hoq.semantics import check_equiv, lambda_recursive, upsilon
from hoq.subspace_algebra import (
    StringSet,
    complement_in_T,
    delta_of_type,
    perp_in_W,
)
from hoq.type_ast import (
    Arrow,
    Atom,
    Elementary,
    bar,
    factor_dims,
    make_comb,
    parse_type,
    tensor,
)


def report(num: int, description: str, elapsed: float = None) -> None:
    timing = "" if elapsed is None else f"  [{elapsed:.3f}s]"
    print(f"criterion {num:02d}: {description} PASS{timing}", flush=True)


def bits(n, strings):
    return StringSet.from_bitstrings(n, strings)


def random_kraus(d_in, d_out, n, rng):
    g = rng.standard_normal((n, d_out, d_in)) + 1j * rng.standard_normal(
        (n, d_out, d_in)
    )
    s = np.einsum("kai,kaj->ij", g.conj(), g)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return g @ inv_sqrt


def test_c01_channel_characterization_exact_and_fast():
    x = parse_type("A:2->B:2")
    upsilon(x)  # warm any lazy imports/caches before timing
    t0 = time.perf_counter()
    lam = lambda_recursive(x)
    delta = delta_of_type(x)
    elapsed = time.perf_counter() - t0
    assert lam == Fraction(1, 2)
    assert delta == bits(2, ["00", "10"])
    assert complement_in_T(delta) == bits(2, ["01"])
    assert perp_in_W(delta) == bits(2, ["01", "11"])
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    report(1, "qubit channel: exact lambda, index set, complements, <1ms", elapsed)


def test_c02_effect_type_normalization():
    x = parse_type("A:2->I")
    assert delta_of_type(x) == StringSet(2, frozenset())
    assert lambda_recursive(x) == 1
    assert check_deterministic(np.eye(2, dtype=complex), x, tol=1e-9).verdict
    assert not check_deterministic(
        np.eye(2, dtype=complex) / 2, x, tol=1e-9
    ).verdict
    report(2, "effect type: empty index set, unit scale, identity is the "
              "unique shape")


def test_c03_lambda_recursion_vs_closed_form():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        x = random_type(rng, 6, dims=(1, 2, 3, 5))
        ks = k_exponents(x)
        dims = factor_dims(x)
        closed = prod(
            (Fraction(1, d) if k else Fraction(1) for d, k in zip(dims, ks)),
            start=Fraction(1),
        )
        assert lambda_recursive(x) == closed, x
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, "scale recursion == exponent closed form, 1000 random types", elapsed)


def test_c04_involution_and_currying():
    rng = random.Random(202)
    t0 = time.perf_counter()
    for _ in range(500):
        x = random_type(rng, 3, dims=(1, 2, 3))
        y = random_type(rng, 3, dims=(1, 2, 3))
        z = random_type(rng, 3, dims=(1, 2, 3))
        assert check_equiv(bar(bar(x)), x).equivalent, x
        assert check_equiv(
            Arrow(x, Arrow(y, z)), Arrow(tensor(x, y), z)
        ).equivalent, (x, y, z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, "double dual and currying equivalences, 500 random triples", elapsed)


def test_c05_tensor_laws():
    rng = random.Random(303)
    t0 = time.perf_counter()
    for _ in range(100):
        a = Atom(chr(65 + rng.randrange(8)), rng.choice([2, 3]))
        b = Atom("Z", rng.choice([2, 3]))
        ea, eb = Elementary((a,)), Elementary((b,))
        assert check_equiv(tensor(ea, eb), Elementary((a, b))).equivalent
    for _ in range(100):
        x = random_type(rng, 2, dims=(1, 2, 3))
        y = random_type(rng, 2, dims=(1, 2, 3))
        assert check_equiv(tensor(x, y), tensor(y, x)).equivalent, (x, y)
    for _ in range(100):
        x = random_type(rng, 2, dims=(1, 2, 3))
        y = random_type(rng, 2, dims=(1, 2, 3))
        z = random_type(rng, 2, dims=(1, 2, 3))
        assert check_equiv(
            tensor(tensor(x, y), z), tensor(x, tensor(y, z))
        ).equivalent, (x, y, z)
    elapsed = time.perf_counter() - t0
    report(5, "tensor laws: elementary fusion, commutativity, associativity, "
              "300 instances", elapsed)


def test_c06_comb_closed_forms():
    t0 = time.perf_counter()
    for text in ["A:2", "A:2->B:2", "(A:2->B:2)->C:2"]:
        base = parse_type(text)
        for n in range(1, 7):
            spec = CombSpec.uniform(base, n)
            assert comb_delta_closed(spec) == delta_of_type(spec.derived), (
                text,
                n,
            )
            assert comb_lambda_closed(spec) == lambda_recursive(
                spec.derived
            ), (text, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, "comb closed forms == recursion, three base shapes, n<=6", elapsed)


def test_c07_comb_two_sided_equivalence():
    tooth = parse_type("A:2->B:2")
    wire = parse_type("E:2")
    for n in range(1, 5):
        comb = make_comb([tooth] * n)
        chain = make_comb([wire] * (2 * n))
        assert lambda_recursive(comb) == lambda_recursive(chain), n
        v = check_equiv(comb, chain, perm=comb_equiv_permutation(n))
        assert v.equivalent, n
    report(7, "n-comb == 2n-wire chain under the two-sided permutation, n<=4")


def test_c08_sampled_and_network_combs():
    t0 = time.perf_counter()
    spec = CombSpec.uniform(parse_type("A:2->B:2"), 3)
    perm = expand_slot_perm(comb_equiv_permutation(3), (1,) * 6)
    back = tuple(np.argsort(perm))
    for seed in range(50):
        r = sample_deterministic(spec.derived, seed=seed)
        assert check_comb_normalization(
            reorder_factors(r, perm), spec, tol=1e-8
        ), seed
    rng = np.random.default_rng(404)
    for case in range(50):
        r = random_comb_choi(spec, rng)
        assert check_comb_normalization(r, spec, tol=1e-8), case
        assert check_deterministic(
            reorder_factors(r, back), spec.derived, tol=1e-8
        ).verdict, case
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, "qubit 3-combs: 50 sampled + 50 sequential networks pass both "
              "routes", elapsed)


def test_c09_membership_vs_independent_predicate():
    x = parse_type("A:2->B:2")
    rng = np.random.default_rng(505)
    tol = 1e-9

    def oracle(mat: np.ndarray) -> bool:
        herm = (mat + mat.conj().T) / 2
        if np.linalg.norm(mat - herm) > tol * max(1.0, np.linalg.norm(mat)):
            return False
        if np.linalg.eigvalsh(herm)[0] < -tol:
            return False
        reduced = partial_trace(HermOp((2, 2), herm), [1]).matrix
        gap = np.linalg.norm(reduced - np.eye(2))
        return gap <= tol * max(1.0, np.linalg.norm(herm))

    cases = []
    for _ in range(25):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        cases.append((g + g.conj().T) / 2)
    for _ in range(25):
        cases.append(random_channel_choi(2, 2, rng).matrix)
    for i in range(25):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noise = (g + g.conj().T) / 2
        noise *= 1e-12 / np.linalg.norm(noise)
        cases.append(random_channel_choi(2, 2, rng).matrix + noise)
    for i in range(25):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noise = (g + g.conj().T) / 2
        noise *= 1e-6 / np.linalg.norm(noise)
        cases.append(random_channel_choi(2, 2, rng).matrix + noise)
    assert len(cases) == 100
    disagreements = 0
    accepted = 0
    for mat in cases:
        mine = check_deterministic(mat, x, tol=tol).verdict
        theirs = oracle(mat)
        disagreements += mine != theirs
        accepted += mine
    assert disagreements == 0
    # the strata behave as designed: channels and tiny perturbations pass
    assert accepted == 50
    report(9, "100 stratified 4x4 operators: verdicts match the partial-trace "
              "predicate, 0 disagreements")


def test_c10_product_channels_and_swap():
    xtens = tensor(parse_type("A:2->B:2"), parse_type("C:2->D:2"))
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    for case in range(50):
        k1 = random_kraus(2, 2, 2, rng)
        k2 = random_kraus(2, 2, 2, rng)
        joint = choi_from_kraus(
            [np.kron(a, b) for a in k1 for b in k2]
        )  # layout (A, C, B, D)
        rewired = reorder_factors(
            HermOp((2, 2, 2, 2), joint.matrix), (0, 2, 1, 3)
        )
        assert check_deterministic(rewired.matrix, xtens, tol=1e-9).verdict, case
        # the joint Choi factorizes; both routes to the layout agree
        direct = np.kron(
            choi_from_kraus(list(k1)).matrix, choi_from_kraus(list(k2)).matrix
        )
        assert np.linalg.norm(rewired.matrix - direct) < 1e-9, case
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    rewired = reorder_factors(
        HermOp((2, 2, 2, 2), choi_from_kraus([swap]).matrix), (0, 2, 1, 3)
    )
    assert not check_deterministic(rewired.matrix, xtens, tol=1e-9).verdict
    elapsed = time.perf_counter() - t0
    report(10, "50 product channels pass the tensor type; the swap channel "
               "does not", elapsed)


def test_c11_feasibility_suite():
    for text in ["A:2", "A:2->B:2", "(A:2->B:2)->C:2"]:
        x = parse_type(text)
        lam = float(lambda_recursive(x))
        side = prod(factor_dims(x))
        eye = np.eye(side, dtype=complex)
        feas = check_admissible(lam * eye, x)
        assert feas.feasible == "yes", text
        assert feas.final_distance < 1e-6, text
        assert feas.witness is not None
        assert (
            abs(max_admissible_scale(2 * lam * eye, x) - 0.5) <= 1e-3
        ), text
        hard = lam * eye.copy()
        hard[0, 0] = -1e-5
        rejected = check_admissible(hard, x)
        assert rejected.feasible == "no_certificate", text
        assert rejected.iterations == 0, text
    report(11, "uniform element feasible (<1e-6 witness gap), double scale "
               "bisects to 0.5, negative operators rejected at the precheck")


def test_c12_inverse_search_no_go():
    t0 = time.perf_counter()
    spec = SearchSpec(
        dims=(2, 2),
        target=bits(2, ["00"]),
        max_depth=4,
        max_trivial_leaves=2,
    )
    res = inverse_search(spec)
    elapsed = time.perf_counter() - t0
    assert res.matches == ()
    assert res.exhausted
    assert elapsed < 60.0
    report(12, "no bounded type realizes the isolated fully-traceless string",
           elapsed)


def test_c13_extension_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    texts = ["A:2", "A:2->B:2", "(A:2->B:2)->C:2", "A:2->(B:2->C:2)"]
    types = [parse_type(t) for t in texts]

    # transpose invariance: membership is blind to global transposition
    for i in range(200):
        x = types[i % 4]
        side = prod(factor_dims(x))
        if i % 2 == 0:
            mat = sample_deterministic(x, seed=i).matrix
        else:
            g = rng.standard_normal((side, side)) + 1j * rng.standard_normal(
                (side, side)
            )
            mat = (g + g.conj().T) / 2
        direct = check_deterministic(mat, x, tol=1e-8).verdict
        flipped = check_deterministic(mat.T, x, tol=1e-8).verdict
        assert direct == flipped, i
        assert direct == (i % 2 == 0), i

    # partial-trace determinism: dropping a bystander stays deterministic
    for i in range(200):
        x = types[i % 4]
        ext = extend_by(x, Atom("Z", 2))
        r = sample_deterministic(ext, seed=i)
        reduced = partial_trace(r, [len(r.dims) - 1])
        assert check_deterministic(reduced.matrix, x, tol=1e-8).verdict, i

    # product-with-state closure: adjoining a state extends determinism
    for i in range(200):
        x = types[i % 4]
        ext = extend_by(x, Atom("Z", 2))
        r = sample_deterministic(x, seed=i)
        rho = random_density(2, rng)
        grown = np.kron(r.matrix, rho)
        assert check_deterministic(grown, ext, tol=1e-8).verdict, i

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(13, "transpose invariance, bystander tracing, state adjunction: "
               "200 cases each", elapsed)
