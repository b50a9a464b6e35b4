"""Workload ``exact``: the type algebra alone.

Every round holds the same mix (18 operations):

* 4 double-dual and 4 currying law checks on random types of depth <= 3,
* 3 tensor-commutativity and 2 tensor-associativity checks at depth <= 2,
* 3 known-false pairs (a type against itself plus a bystander qubit),
  each law instance of the factor count its slot schedules (SIZE_SCHEDULE),
* 1 comb check: closed forms against the recursion, cycling through uniform
  combs of A:2->B:2 (n <= 8) and (A:2->B:2)->C:2 (n <= 6),
* 1 inverse search, cycling through targets of known small types and the
  isolated fully-traceless string that no bounded type realizes.

At 18 operations a round the tail percentile falls in the middle of the
latencies of the third-largest comb, not at the edge between two comb sizes.

The size schedules stay within 12 tensor factors (index sets of at most 4096
strings): every Delta computed here is kept in the package's unbounded cache
for the life of the process, and without a bound a run grows past a gigabyte.
Commutativity needs a permutation search, so its instances also stay within
the package's alignment cap of 8 non-trivial factors.  The comb teeth carry
labels drawn once per run, so the recursion misses the cache the first time
each comb size appears and hits it afterwards.
"""

from __future__ import annotations

from functools import lru_cache

import hoq.comb_toolkit as cb
import hoq.inverse_search as inv
import hoq.semantics as sem
import hoq.subspace_algebra as sa
import hoq.type_ast as ta

import typegen as tg
from common import Op, expect, py_rng, stream_key

NAME = "exact"

MAX_ALIGNED = 8

COMB_CASES = [("A:2->B:2", n) for n in range(1, 9)] + [
    ("(A:2->B:2)->C:2", n) for n in range(1, 7)
]

# (target type, max_depth, trivial leaves); None marks the no-go target.
INVERSE_CASES = [
    ("A:2->B:2", 3, 2),
    ("A:2->I", 3, 2),
    ("(A:2->I)->B:2", 3, 2),
    ("A:2*B:2", 3, 2),
    ("A:2->B:3", 3, 2),
    ("(A:2->B:2)->C:2", 3, 2),
    ("A:2->(B:2->C:2)", 3, 2),
    (None, 4, 2),
]

_COMB_BASES = {
    "A:2->B:2": lambda p, q, r: tg.arrow(tg.layer(p, 2), tg.layer(q, 2)),
    "(A:2->B:2)->C:2": lambda p, q, r: tg.arrow(
        tg.arrow(tg.layer(p, 2), tg.layer(q, 2)), tg.layer(r, 2)),
}

# The cost of a law check grows steeply with the number of tensor factors, so
# a few large draws would decide a run's figures.  Each law slot therefore has
# a factor count fixed by its position, and the seed chooses a type of that
# size: every seed gets the same spread of sizes.  The counts are the
# generator's own distribution read at 16 evenly spaced quantiles (20,000
# draws per kind); the rare extremes outside them are left out.
SIZE_SCHEDULE = {
    "double_dual": (1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6),
    "currying": (5, 7, 7, 8, 8, 9, 9, 9, 10, 10, 10, 11, 11, 12, 12, 12),
    "tensor_comm": (4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 8, 8),
    "tensor_assoc": (8, 8, 9, 9, 9, 9, 10, 10, 10, 10, 10, 11, 11, 11, 12, 12),
    "known_false": (1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6),
}


def _double_dual(rng):
    x = tg.random_type(rng, 3)
    return (tg.bar(tg.bar(x)), x), tg.factor_count(x)


def _currying(rng):
    x, y, z = (tg.random_type(rng, 3) for _ in range(3))
    rhs = tg.arrow(tg.tensor(x, y), z)
    return (tg.arrow(x, tg.arrow(y, z)), rhs), tg.factor_count(rhs)


def _tensor_comm(rng):
    x, y = tg.random_type(rng, 2), tg.random_type(rng, 2)
    lhs = tg.tensor(x, y)
    # commutativity needs a permutation search, capped by the package
    size = tg.factor_count(lhs) if tg.nontrivial_count(lhs) <= MAX_ALIGNED else 0
    return (lhs, tg.tensor(y, x)), size


def _tensor_assoc(rng):
    x, y, z = (tg.random_type(rng, 2) for _ in range(3))
    lhs = tg.tensor(tg.tensor(x, y), z)
    return (lhs, tg.tensor(x, tg.tensor(y, z))), tg.factor_count(lhs)


def _known_false(rng):
    x = tg.random_type(rng, 3)
    return (x, tg.extend_by(x, ("Bystander", 2))), tg.factor_count(x)


# kind -> (instances per round, draw returning ((lhs, rhs), size), expected)
LAWS = {
    "double_dual": (4, _double_dual, True),
    "currying": (4, _currying, True),
    "tensor_comm": (3, _tensor_comm, True),
    "tensor_assoc": (2, _tensor_assoc, True),
    "known_false": (3, _known_false, False),
}


def _draw_sized(rng, draw, size):
    while True:
        pair, got = draw(rng)
        if got == size:
            return pair


def _law_op(kind: str, lhs, rhs, expected: bool) -> Op:
    left, right = tg.render(lhs), tg.render(rhs)

    def run():
        return sem.check_equiv(ta.parse_type(left), ta.parse_type(right)).equivalent

    return Op(kind, run, lambda got: expect(got is expected, f"{left} vs {right}: {got}"),
              (left, right))


def _comb_op(base_name: str, n: int, labels: tuple[str, str, str]) -> Op:
    base = _COMB_BASES[base_name](*labels)
    base_text = tg.render(base)
    want_size = tg.COMB_DELTA_SIZES[base_name][n]
    want_lambda = tg.lambda_closed(tg.comb(base, n))

    def run():
        spec = cb.CombSpec.uniform(ta.parse_type(base_text), n)
        return (cb.comb_delta_closed(spec), sa.delta_of_type(spec.derived),
                cb.comb_lambda_closed(spec), sem.lambda_recursive(spec.derived))

    def check(got):
        closed, rec, lam_closed, lam_rec = got
        return expect(
            closed == rec and len(rec) == want_size
            and lam_closed == lam_rec == want_lambda,
            f"comb {base_text} n={n}: |closed|={len(closed)} |rec|={len(rec)} "
            f"lambda {lam_closed} / {lam_rec}, want {want_size} and {want_lambda}",
        )

    return Op("comb", run, check, (base_text, n))


@lru_cache(maxsize=None)
def _inverse_target(text):
    """Reference preparation: the normal-form data of the known type."""
    if text is None:
        return (2, 2), sa.StringSet.from_bitstrings(2, ["00"])
    s = sem.upsilon(ta.parse_type(text))
    return tuple(s.dims), s.delta


def _inverse_op(case) -> Op:
    text, depth, trivial = case
    dims, delta = _inverse_target(text)

    def run():
        return inv.inverse_search(inv.SearchSpec(
            dims=dims, target=delta, max_depth=depth, max_trivial_leaves=trivial))

    def check(got):
        if text is None:
            return expect(got.matches == () and got.exhausted,
                          f"no-go target matched {got.matches}")
        return expect(text in got.matches and got.exhausted,
                      f"{text} missing from {got.matches}")

    return Op("inverse", run, check, case)


def make_round(seed: int, idx: int, ctx=None, warm: bool = False) -> list[Op]:
    rng = py_rng(stream_key(NAME, seed, idx, warm))
    ops = []
    for kind, (per_round, draw, expected) in LAWS.items():
        schedule = SIZE_SCHEDULE[kind]
        for j in range(per_round):
            size = schedule[(idx * per_round + j) % len(schedule)]
            lhs, rhs = _draw_sized(rng, draw, size)
            ops.append(_law_op(kind, lhs, rhs, expected))
    # comb labels depend on the seed only, so one run reuses them
    tag = ("w" if warm else "s") + str(seed % 1_000_000)
    labels = (f"P{tag}", f"Q{tag}", f"R{tag}")
    ops.append(_comb_op(*COMB_CASES[idx % len(COMB_CASES)], labels))
    ops.append(_inverse_op(INVERSE_CASES[idx % len(INVERSE_CASES)]))
    return ops


def warmup_ops(seed: int, ctx=None) -> list[Op]:
    """One round of every operation kind, on the warm-up input stream."""
    return make_round(seed, 0, ctx, warm=True)
