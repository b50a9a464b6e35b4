"""Workload ``membership``: deterministic-event checks at sides 4 to 256.

Every round runs, on each of seven types (qubit-channel combs with 1 to 4
teeth, A:3->B:3, the tensor of two qubit channels and the supermap type
(A:2->B:2)->(C:2->D:2)):

* check_deterministic on a known-yes input, on a random Hermitian matrix and
  on the known-yes input plus a Hermitian perturbation of norm 1e-6;
* sample_deterministic, whose output must pass check_comb_normalization
  (combs) or lie in the definitional affine hull and be PSD (the others);

and three more checks: a known-yes input with a bystander state adjoined, on
the 1- and 2-tooth combs, and the swap channel against the tensor type.  The
operations at side 256 are spaced evenly through the round.

Known-yes inputs never touch the block projector: sequential networks from
random_comb_choi reordered to the type's layout, Kraus channels, products of
Kraus channels, and products with a state.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

import hoq.choi_numeric as cn
import hoq.comb_toolkit as cb
import hoq.type_ast as ta

import mats
import oracle
import typegen as tg
from common import Op, expect, spread, stream_key

NAME = "membership"
TOL = 1e-9
SAMPLE_TOL = 1e-8


QUBIT_CHANNEL = tg.arrow(tg.layer("A", 2), tg.layer("B", 2))
TYPES = {
    "comb1": tg.comb(QUBIT_CHANNEL, 1),
    "comb2": tg.comb(QUBIT_CHANNEL, 2),
    "comb3": tg.comb(QUBIT_CHANNEL, 3),
    "comb4": tg.comb(QUBIT_CHANNEL, 4),
    "channel3": tg.arrow(tg.layer("A", 3), tg.layer("B", 3)),
    "tensor": tg.tensor(QUBIT_CHANNEL, tg.arrow(tg.layer("C", 2), tg.layer("D", 2))),
    "supermap": tg.arrow(QUBIT_CHANNEL, tg.arrow(tg.layer("C", 2), tg.layer("D", 2))),
}
COMB_TEETH = {"comb1": 1, "comb2": 2, "comb3": 3, "comb4": 4}
BYSTANDER = ("Z", 4)
BYSTANDER_TYPES = ("comb1", "comb2")
# Operations at side 256 take nearly all of a round's time; the others run in
# even turns between them.
HEAVY = "_comb4"


@lru_cache(maxsize=None)
def parsed(text: str):
    return ta.parse_type(text)


@lru_cache(maxsize=None)
def _hull(name: str):
    return oracle.hull(TYPES[name])


def _comb_spec(name: str):
    if name == "channel3":
        return cb.CombSpec.uniform(parsed("A:3->B:3"), 1)
    return cb.CombSpec.uniform(parsed("A:2->B:2"), COMB_TEETH[name])


def _two_sided(n: int) -> tuple[int, ...]:
    return cb.expand_slot_perm(cb.comb_equiv_permutation(n), (1,) * (2 * n))


def known_yes(name: str, rng: np.random.Generator) -> np.ndarray:
    if name in COMB_TEETH:
        n = COMB_TEETH[name]
        net = cb.random_comb_choi(_comb_spec(name), rng)
        back = tuple(int(i) for i in np.argsort(_two_sided(n)))
        return mats.reorder(net.matrix, net.dims, back)
    if name == "channel3":
        return mats.choi(mats.kraus_channel(3, 3, 3, rng))
    if name == "tensor":
        return np.kron(mats.choi(mats.kraus_channel(2, 2, 2, rng)),
                       mats.choi(mats.kraus_channel(2, 2, 2, rng)))
    # supermap: a 2-tooth network C -> A, then B -> D, laid out as (A, B, C, D)
    net = cb.random_comb_choi(_comb_spec("comb2"), rng)
    return mats.reorder(net.matrix, net.dims, (1, 2, 0, 3))


def swap_channel() -> np.ndarray:
    """Choi of the two-qubit swap (A, C) -> (B, D), laid out as (A, B, C, D)."""
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    return mats.reorder(mats.choi(swap[None]), (2, 2, 2, 2), (0, 2, 1, 3))


def _check_op(kind: str, text: str, mat: np.ndarray, expected: bool) -> Op:
    x = parsed(text)
    return Op(kind, lambda: cn.check_deterministic(mat, x, tol=TOL).verdict,
              lambda got: expect(got is expected, f"{text}: verdict {got}"), (text, mat))


def _sample_op(name: str, seed: int) -> Op:
    text = tg.render(TYPES[name])
    x = parsed(text)

    def check(got):
        mat = got.matrix
        if name in COMB_TEETH or name == "channel3":
            n = COMB_TEETH.get(name, 1)
            ok = cb.check_comb_normalization(
                cn.reorder_factors(got, _two_sided(n)), _comb_spec(name), tol=SAMPLE_TOL)
            return expect(ok, f"{text}: sample fails comb normalization")
        resid, low = oracle.hull_residual(mat, _hull(name)), oracle.min_eig(mat)
        return expect(resid <= SAMPLE_TOL and low >= -TOL,
                      f"{text}: sample off the hull by {resid:.2e}, min eig {low:.2e}")

    return Op(f"sample_{name}", lambda: cn.sample_deterministic(x, seed=seed), check,
              (text, seed))


def make_round(seed: int, idx: int, ctx=None, warm: bool = False) -> list[Op]:
    rng = np.random.default_rng(stream_key(NAME, seed, idx, warm))
    ops = []
    for name, t in TYPES.items():
        text = tg.render(t)
        yes = known_yes(name, rng)
        side = yes.shape[0]
        ops.append(_check_op(f"yes_{name}", text, yes, True))
        if warm:
            ops.append(_sample_op(name, int(rng.integers(2**31))))
            continue
        ops.append(_check_op(f"random_{name}", text, mats.hermitian(side, rng), False))
        ops.append(_check_op(f"perturbed_{name}", text,
                             mats.perturbed(yes, 1e-6, rng), False))
        ops.append(_sample_op(name, int(rng.integers(2**31))))
    if not warm:
        for name in BYSTANDER_TYPES:
            grown = np.kron(known_yes(name, rng), mats.density(BYSTANDER[1], rng))
            text = tg.render(tg.extend_by(TYPES[name], BYSTANDER))
            ops.append(_check_op(f"bystander_{name}", text, grown, True))
        ops.append(_check_op("swap_tensor", tg.render(TYPES["tensor"]), swap_channel(), False))
    heavy = [op for op in ops if op.kind.endswith(HEAVY)]
    return spread([op for op in ops if not op.kind.endswith(HEAVY)], heavy)


def warmup_ops(seed: int, ctx=None) -> list[Op]:
    """A known-yes check and a sample on every type, from the warm-up stream."""
    return make_round(seed, 0, ctx, warm=True)
