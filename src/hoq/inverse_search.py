"""Bounded search for types that realize a prescribed fluctuation index set.

The forward direction (type -> index set) is delta_of_type.  This module runs
the opposite direction: given factor dimensions and a normal-form index set,
enumerate every type expression within explicit structural bounds, prune by
the dimension recursion, and report exactly which candidates reproduce the
target.  The search is bounded, so an empty result is evidence of a no-go
within the bounds, not a proof that no type exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from string import ascii_uppercase
from typing import Callable, Iterator, Optional, Sequence

from hoq.semantics import delta_dimension, find_alignment, upsilon
from hoq.subspace_algebra import StringSet, dim_of_delta
from hoq.type_ast import (
    Arrow,
    Atom,
    Elementary,
    TypeExpr,
    print_canonical,
)

__all__ = [
    "ENUMERATION_CAP",
    "EnumerationCapExceeded",
    "SearchSpec",
    "SearchResult",
    "estimate_candidates",
    "enumerate_types",
    "inverse_search",
]

# Hard ceiling on how many candidate trees a single search may walk.  The
# estimate below counts leaves as distinguishable, so it upper-bounds the
# number of trees actually yielded after deduplication.
ENUMERATION_CAP = 2_000_000

# How often the optional progress callback fires (in examined candidates).
PROGRESS_STRIDE = 5_000

# "I" is reserved for the trivial layer, so it is not available as a label.
_LEAF_LABELS = tuple(c for c in ascii_uppercase if c != "I")


class EnumerationCapExceeded(RuntimeError):
    """The bounded candidate space is still too large to walk."""


@dataclass(frozen=True)
class SearchSpec:
    """What to look for and how far to look.

    ``dims`` lists the non-trivial factor dimensions, in the order the
    caller's ``target`` strings index them.  ``target`` must be in normal
    form over exactly those factors and must not contain the all-identity
    string.  ``max_depth`` bounds the arrow-tree depth (a leaf has depth 1,
    an arrow one more than its deeper side).  Up to ``max_trivial_leaves``
    one-dimensional leaves may be inserted on top of the mandatory factors.
    When ``target_lambda`` is set, matches must also reproduce that exact
    identity coefficient.
    """

    dims: tuple[int, ...]
    target: StringSet
    max_depth: int
    max_trivial_leaves: int = 2
    allow_permutations: bool = False
    target_lambda: Optional[Fraction] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims:
            raise ValueError("dims must name at least one non-trivial factor")
        if any(d < 2 for d in self.dims):
            raise ValueError(f"factor dimensions must be >= 2: {self.dims}")
        if len(self.dims) > len(_LEAF_LABELS):
            raise ValueError(
                f"at most {len(_LEAF_LABELS)} factors supported, "
                f"got {len(self.dims)}"
            )
        if not isinstance(self.target, StringSet):
            raise TypeError("target must be a StringSet")
        if self.target.length != len(self.dims):
            raise ValueError(
                f"target strings have length {self.target.length}, "
                f"expected {len(self.dims)}"
            )
        e = (1 << len(self.dims)) - 1
        if e in self.target.strings:
            raise ValueError("target must not contain the all-identity string")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_trivial_leaves < 0:
            raise ValueError("max_trivial_leaves must be >= 0")
        if self.target_lambda is not None:
            lam = Fraction(self.target_lambda)
            if lam <= 0:
                raise ValueError("target_lambda must be positive")
            object.__setattr__(self, "target_lambda", lam)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a bounded inverse search.

    ``matches`` holds canonical type strings, sorted, so results do not
    depend on enumeration scheduling.  ``exhausted`` records whether the
    whole bounded space was covered; a capped run reports False.
    ``pruned_count`` counts candidates discarded by the dimension recursion
    before any index set was built.
    """

    matches: tuple[str, ...]
    exhausted: bool
    pruned_count: int

    def to_json_obj(self) -> dict:
        return {
            "matches": list(self.matches),
            "exhausted": self.exhausted,
            "pruned_count": self.pruned_count,
        }


@cache
def _tree_count(leaves: int, depth: int) -> int:
    """Trees over `leaves` distinguishable leaves with depth <= `depth`."""
    if leaves == 1:
        return 1 if depth >= 1 else 0
    if depth < 2:
        return 0
    return sum(
        comb(leaves, k) * _tree_count(k, depth - 1) * _tree_count(leaves - k, depth - 1)
        for k in range(1, leaves)
    )


@cache
def _partition_count(n: int, blocks: int) -> int:
    """Set partitions of n items into exactly `blocks` blocks (Stirling)."""
    if n == 0:
        return 1 if blocks == 0 else 0
    if blocks == 0 or blocks > n:
        return 0
    return blocks * _partition_count(n - 1, blocks) + _partition_count(
        n - 1, blocks - 1
    )


def estimate_candidates(spec: SearchSpec) -> int:
    """Upper bound on the number of candidates enumerate_types walks.

    Counts leaves as distinguishable; deduplication of identical trivial
    leaves only shrinks the true stream, so this bound is safe for the cap
    check.
    """
    n = len(spec.dims)
    total = 0
    for blocks in range(1, n + 1):
        shapes = sum(
            _tree_count(blocks + k, spec.max_depth)
            for k in range(spec.max_trivial_leaves + 1)
        )
        total += _partition_count(n, blocks) * shapes
    return total


def _set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """All set partitions of `items`, in a fixed deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], list(items[1:])
    for part in _set_partitions(rest):
        yield [[first]] + [list(b) for b in part]
        for i in range(len(part)):
            grown = [list(b) for b in part]
            grown[i] = [first] + grown[i]
            yield grown


def _trees_over(leaves: Sequence[TypeExpr], max_depth: int) -> Iterator[TypeExpr]:
    """All arrow trees using every leaf exactly once, depth <= max_depth.

    Leaves are addressed by bitmask position; sub-results are memoized per
    (mask, depth budget) so shared subtrees are built once.
    """
    n = len(leaves)
    memo: dict[tuple[int, int], tuple[TypeExpr, ...]] = {}

    def build(mask: int, budget: int) -> tuple[TypeExpr, ...]:
        key = (mask, budget)
        if key in memo:
            return memo[key]
        picked = [i for i in range(n) if mask >> i & 1]
        out: list[TypeExpr] = []
        if len(picked) == 1:
            if budget >= 1:
                out.append(leaves[picked[0]])
        elif budget >= 2:
            sub = (mask - 1) & mask
            while sub:
                rest = mask ^ sub
                if rest:
                    for tail in build(sub, budget - 1):
                        for head in build(rest, budget - 1):
                            out.append(Arrow(tail, head))
                sub = (sub - 1) & mask
        memo[key] = tuple(out)
        return memo[key]

    full = (1 << n) - 1
    yield from build(full, max_depth)


def enumerate_types(
    spec: SearchSpec, cap: int = ENUMERATION_CAP
) -> Iterator[TypeExpr]:
    """Every type within the spec's structural bounds, deduplicated.

    Leaves are elementary layers: the mandatory factors are grouped by a set
    partition (atoms inside a block sorted by label), and up to
    ``max_trivial_leaves`` standalone one-dimensional leaves are added.
    Arrow trees over the leaves are produced in both operand orders.  The
    stream follows a fixed deterministic order and suppresses duplicates by
    canonical string; the candidate count is estimated up front and
    :class:`EnumerationCapExceeded` is raised before the first yield when it
    exceeds ``cap``.
    """
    estimate = estimate_candidates(spec)
    if estimate > cap:
        raise EnumerationCapExceeded(
            f"estimated {estimate} candidates exceeds cap {cap}"
        )
    atoms = [Atom(_LEAF_LABELS[i], d) for i, d in enumerate(spec.dims)]
    trivial = Elementary((Atom("I", 1),))
    seen: set[str] = set()
    for part in _set_partitions(range(len(atoms))):
        blocks = [
            Elementary(tuple(atoms[i] for i in sorted(block))) for block in part
        ]
        blocks.sort(key=print_canonical)
        for extra in range(spec.max_trivial_leaves + 1):
            leaves = blocks + [trivial] * extra
            for tree in _trees_over(leaves, spec.max_depth):
                text = print_canonical(tree)
                if text not in seen:
                    seen.add(text)
                    yield tree


def inverse_search(
    spec: SearchSpec,
    cap: int = ENUMERATION_CAP,
    prune: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SearchResult:
    """Find every bounded type whose index data reproduces the target.

    Candidates are walked via enumerate_types.  With ``prune`` on (the
    default), a candidate is discarded without building its index set unless
    the dimension recursion matches the target's total dimension; pruning
    never removes a true match because equal index sets over equal factor
    dimensions force equal dimensions.  Survivors must reproduce the target
    exactly after normal form — against the caller's factor order, or up to
    a factor permutation when ``allow_permutations`` is set — and must match
    ``target_lambda`` when one is given.

    ``progress``, if given, is called as progress(examined, pruned) every
    PROGRESS_STRIDE candidates.  A capped enumeration yields no candidates
    and reports ``exhausted=False``.
    """
    target_dim = dim_of_delta(spec.target, spec.dims)
    matches: list[str] = []
    pruned = 0
    examined = 0
    exhausted = True
    try:
        for cand in enumerate_types(spec, cap=cap):
            examined += 1
            if progress is not None and examined % PROGRESS_STRIDE == 0:
                progress(examined, pruned)
            if prune and delta_dimension(cand) != target_dim:
                pruned += 1
                continue
            sem = upsilon(cand)
            if spec.target_lambda is not None and sem.lambda_ != spec.target_lambda:
                continue
            if tuple(sem.dims) == spec.dims and sem.delta == spec.target:
                matches.append(print_canonical(cand))
                continue
            if spec.allow_permutations:
                perm = find_alignment(
                    sem.delta, tuple(sem.dims), spec.target, spec.dims
                )
                if perm is not None:
                    matches.append(print_canonical(cand))
    except EnumerationCapExceeded:
        exhausted = False
    if progress is not None:
        progress(examined, pruned)
    return SearchResult(
        matches=tuple(sorted(set(matches))),
        exhausted=exhausted,
        pruned_count=pruned,
    )
