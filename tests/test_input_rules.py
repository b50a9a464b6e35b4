"""The integer and permutation rules of hoq.type_ast at every entry that takes
a count, a factor dimension or a factor alignment: a bool or a number that
is not integral raises TypeError and is never truncated, while numpy
integers pass and are stored as ints."""

from fractions import Fraction

import numpy as np
import pytest

from hoq.choi_numeric import (
    HermOp,
    check_admissible,
    oracle_deterministic,
    reorder_factors,
)
from hoq.comb_toolkit import CombSpec, comb_equiv_permutation, expand_slot_perm
from hoq.inverse_search import SearchSpec
from hoq.semantics import check_equiv
from hoq.subspace_algebra import StringSet, permute
from hoq.type_ast import parse_type

EYE4 = np.eye(4, dtype=complex)
AB = parse_type("A:2*B:2")
BA = parse_type("B:2*A:2")
CHANNEL = parse_type("A:2->B:2")
TARGET = StringSet.from_bitstrings(2, ["00"])


def spec(**overrides) -> SearchSpec:
    return SearchSpec(**{"dims": (2, 2), "target": TARGET, "max_depth": 3, **overrides})


REFUSED = {
    "check_equiv perm": lambda: check_equiv(AB, BA, perm=[1.7, 0.2]),
    "HermOp float dims": lambda: HermOp((2.9, 2), EYE4),
    "HermOp bool dim": lambda: HermOp((True, 4), EYE4),
    "SearchSpec float dims": lambda: spec(dims=(2.9, 2.2), max_depth=3.5),
    "SearchSpec float depth": lambda: spec(max_depth=3.5),
    "SearchSpec bool depth": lambda: spec(max_depth=True),
    "SearchSpec float leaves": lambda: spec(max_trivial_leaves=1.0),
    "SearchSpec float lambda": lambda: spec(target_lambda=0.1),
    "CombSpec float teeth": lambda: CombSpec(2.0, (CHANNEL, CHANNEL)),
    "CombSpec.uniform bool teeth": lambda: CombSpec.uniform(CHANNEL, True),
    "comb_equiv_permutation bool": lambda: comb_equiv_permutation(True),
    "reorder_factors perm": lambda: reorder_factors(HermOp((2, 2), EYE4), [1.5, 0]),
    "permute perm": lambda: permute(TARGET, (1.0, 0.0)),
    "expand_slot_perm perm": lambda: expand_slot_perm((1.0, 0.0), (1, 1)),
    "check_admissible max_iter": lambda: check_admissible(
        EYE4 / 2, CHANNEL, max_iter=2.5
    ),
    "oracle_deterministic samples": lambda: oracle_deterministic(
        EYE4 / 2, parse_type("A:2"), parse_type("B:2"), samples=1.5
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_non_integers_raise_type_error(case):
    with pytest.raises(TypeError, match="must be"):
        REFUSED[case]()


def test_numpy_integers_pass_as_ints():
    two = np.int64(2)
    op = HermOp((two, np.int32(2)), EYE4)
    assert op.dims == (2, 2) and {type(d) for d in op.dims} == {int}
    swap = tuple(np.argsort([1, 0]))
    assert reorder_factors(op, swap).dims == (2, 2)
    assert check_equiv(AB, BA, perm=swap).permutation == (1, 0)
    assert permute(StringSet.from_bitstrings(2, ["01"]), swap).as_bitstrings() == ["10"]
    assert expand_slot_perm(swap, (1, 2)) == (1, 2, 0)
    s = spec(dims=(two, two), max_depth=np.int64(3), max_trivial_leaves=np.uint8(1))
    assert (s.dims, s.max_depth, s.max_trivial_leaves) == ((2, 2), 3, 1)
    assert type(s.max_depth) is int and {type(d) for d in s.dims} == {int}
    assert CombSpec(two, (CHANNEL, CHANNEL)).n == 2


@pytest.mark.parametrize("value", [1, Fraction(1, 4), "1/4"])
def test_exact_target_lambda_is_accepted(value):
    assert spec(target_lambda=value).target_lambda == Fraction(value)
