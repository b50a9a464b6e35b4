"""Workload ``admissibility``: check_admissible and max_admissible_scale at
sides 2 to 16.

Types: A:2->I, A:2->B:2, A:4->I, (A:2->B:2)->C:2 and A:4->B:4.  Every round
runs 58 operations: the first three strata below CHEAP_REPEATS times on fresh
inputs (12 operations each time), the other strata once (10 operations, run
in even turns with the cheap ones):

* on every type a boundary-feasible M = R^1/2 K R^1/2 with R deterministic,
  0 <= K <= I and ||K|| = 1 (known yes);
* on two types a matrix with a negative eigenvalue (known no, rejected at
  the precheck);
* the scale of a deterministic R (exactly 1) on three types and of
  2 lambda I (0.5) on two;
* PSD matrices with Tr M = 1.5 lambda d on four types (known no by the trace
  argument), which run Dykstra to its iteration limit;
* rank-one effects (1 + eps) P on A:2->I for eps in {1e-7, 3e-7, 3e-6, 1e-5}
  (known no).  Dykstra's first distance is eps here, so the two smallest are
  accepted below its 1e-6 stopping distance: a documented defect.  The same
  stopping distance now and then leaves the witness of a boundary-feasible
  input short of M, the same defect on a known yes;
* the scale of a random effect (1 / ||M||, eigenvalue ratio 2) and of
  diag(1,0,0,0) on A:2->B:2
  (exactly 1), both by bisection.  The bisection overshoots by about 1e-6, a
  documented defect.

A "yes" counts as right only with a witness R that dominates M,
min eig(R - M) >= -1e-9 max(1, ||M||), and lies in the definitional affine
hull.  A reported scale counts as right inside [s (1 - 1e-4), s (1 + 1e-9)].
The strata and eps values are fixed, so every seed has the same share of
defects.  R is the identity for effects, a Kraus channel for channels and a
sequential network from random_comb_choi for (A:2->B:2)->C:2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

import hoq.choi_numeric as cn
import hoq.comb_toolkit as cb
import hoq.type_ast as ta

import mats
import oracle
import typegen as tg
from common import DEFECT, Op, expect, ok, spread, stream_key

NAME = "admissibility"
SCALE_LOW, SCALE_HIGH = 1e-4, 1e-9
EPSILONS = (1e-7, 3e-7, 3e-6, 1e-5)
# The strata without a Dykstra run are repeated this many times a round, on
# fresh inputs: the eight Dykstra runs of a round take nearly all of its time,
# and the repeats give the median latency enough samples at no real cost.
CHEAP_REPEATS = 4

DEFECT_OVERSHOOT = "max_admissible_scale overshoots the true scale"


TYPES = {
    "effect2": tg.arrow(tg.layer("A", 2), tg.TRIVIAL),
    "channel2": tg.arrow(tg.layer("A", 2), tg.layer("B", 2)),
    "effect4": tg.arrow(tg.layer("A", 4), tg.TRIVIAL),
    "comb_c": tg.arrow(tg.arrow(tg.layer("A", 2), tg.layer("B", 2)), tg.layer("C", 2)),
    "channel4": tg.arrow(tg.layer("A", 4), tg.layer("B", 4)),
}
NON_PSD = ("effect2", "channel4")
SCALE_DET = ("effect2", "comb_c", "channel4")
SCALE_DOUBLE = ("channel2", "channel4")
TRACE_INFEASIBLE = ("effect2", "effect4", "channel2", "channel4")


@lru_cache(maxsize=None)
def parsed(name: str):
    return ta.parse_type(tg.render(TYPES[name]))


@lru_cache(maxsize=None)
def hull(name: str):
    return oracle.hull(TYPES[name])


def _lam(name: str) -> Fraction:
    return tg.lambda_closed(TYPES[name])


def _side(name: str) -> int:
    return oracle.total_dim(TYPES[name])


def deterministic(name: str, rng: np.random.Generator) -> np.ndarray:
    """A deterministic event built without the package's sampler or projector."""
    if name.startswith("effect"):
        return np.eye(_side(name), dtype=complex)
    if name.startswith("channel"):
        d = int(name[-1])
        return mats.choi(mats.kraus_channel(d, d, d, rng))
    # (A:2->B:2)->C:2: prepare A, then a channel B -> C with memory
    spec = cb.CombSpec(2, (ta.parse_type("A:2->B:2"), ta.parse_type("I->C:2")))
    return cb.random_comb_choi(spec, rng).matrix


def _feasibility_op(kind: str, name: str, mat: np.ndarray, expected: bool,
                    near: float = 0.0) -> Op:
    """check_admissible with known answer ``expected``; ``near`` > 0 marks a
    known-no input that misses admissibility by that relative margin."""
    x = parsed(name)

    def check(report):
        if report.feasible != "yes":
            return expect(not expected, f"{name}: {report.feasible} on a known yes")
        if report.witness is None:
            return expect(False, f"{name}: yes without a witness")
        outcome, detail = oracle.judge_witness(report.witness.matrix, mat, hull(name),
                                               expected, near)
        return outcome, detail if outcome == DEFECT else f"{name}: {detail}"

    return Op(kind, lambda: cn.check_admissible(mat, x), check, (name, mat))


def _scale_op(kind: str, name: str, mat: np.ndarray, true: float) -> Op:
    x = parsed(name)

    def check(got):
        got = float(got)
        if true * (1 - SCALE_LOW) <= got <= true * (1 + SCALE_HIGH):
            return ok()
        if true * (1 + SCALE_HIGH) < got <= true * (1 + SCALE_LOW):
            return DEFECT, DEFECT_OVERSHOOT
        return expect(False, f"{name}: scale {got!r}, true {true!r}")

    return Op(kind, lambda: cn.max_admissible_scale(mat, x), check, (name, mat))


def _cheap_strata(rng: np.random.Generator) -> list[Op]:
    """The strata that need no Dykstra run: boundary-feasible inputs, non-PSD
    inputs and the scales of deterministic events and of 2 lambda I."""
    ops = []
    dets = {name: deterministic(name, rng) for name in TYPES}
    for name, det in dets.items():
        side = _side(name)
        k = mats.with_spectrum(np.concatenate([[1.0], rng.uniform(0, 1, side - 1)]), rng)
        root = mats.psd_sqrt(det)
        ops.append(_feasibility_op(f"boundary_{name}", name, root @ k @ root, True))
    for name in NON_PSD:
        v = mats.unitary(_side(name), rng)[:, :1]
        dip = dets[name] - (np.linalg.norm(dets[name], 2) + 0.1) * (v @ v.conj().T)
        ops.append(_feasibility_op(f"non_psd_{name}", name, dip, False))
    for name in SCALE_DET:
        ops.append(_scale_op(f"scale_det_{name}", name, dets[name], 1.0))
    for name in SCALE_DOUBLE:
        lam = float(_lam(name))
        ops.append(_scale_op(f"scale_double_{name}", name,
                             2 * lam * np.eye(_side(name)), 0.5))
    return ops


def make_round(seed: int, idx: int, ctx=None, warm: bool = False) -> list[Op]:
    rng = np.random.default_rng(stream_key(NAME, seed, idx, warm))
    cheap = []
    for _ in range(1 if warm else CHEAP_REPEATS):
        cheap += _cheap_strata(rng)
    ops = []
    for name in TRACE_INFEASIBLE[:1] if warm else TRACE_INFEASIBLE:
        side = _side(name)
        m = mats.with_spectrum(rng.uniform(0.1, 1.0, side), rng)
        m *= 1.5 * side * float(_lam(name)) / np.trace(m).real
        ops.append(_feasibility_op(f"trace_no_{name}", name, m, False))
    if warm:
        return cheap + ops
    for eps in EPSILONS:
        v = mats.unitary(2, rng)[:, :1]
        ops.append(_feasibility_op(f"effect_eps{eps:g}", "effect2",
                                   (1 + eps) * (v @ v.conj().T), False, near=eps))
    # a fixed eigenvalue ratio keeps the bisection's length the same for every seed
    top = rng.uniform(0.5, 1.0)
    ops.append(_scale_op("scale_effect", "effect2",
                         mats.with_spectrum(np.array([top, top / 2]), rng), 1.0 / top))
    ops.append(_scale_op("scale_diag", "channel2",
                         np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), 1.0))
    return spread(cheap, ops)


def warmup_ops(seed: int, ctx=None) -> list[Op]:
    """The cheap strata plus one infeasible input at side 2."""
    return make_round(seed, 0, ctx, warm=True)
