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
# number of distinct trees actually yielded.
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

    Counts leaves as distinguishable; identical trivial leaves only shrink
    the true stream, so this bound is safe for the cap check.
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


def _trees_over(
    blocks: Sequence[TypeExpr], max_trivial: int, max_depth: int
) -> Iterator[TypeExpr]:
    """Every arrow tree of depth <= max_depth that uses each block once and
    0 to max_trivial trivial leaves I, each tree exactly once.

    Trivial leaves are interchangeable, so a subtree is fixed by its block
    bitmask and its number of trivial leaves; sub-results are memoized per
    (mask, trivial count, depth budget), and an arrow splits both between
    tail and head in every way but an empty side.
    """
    trivial = Elementary((Atom("I", 1),))

    @cache
    def build(mask: int, t: int, budget: int) -> tuple[TypeExpr, ...]:
        out: list[TypeExpr] = []
        if mask.bit_count() + t == 1:
            if budget >= 1:
                out.append(blocks[mask.bit_length() - 1] if mask else trivial)
        elif budget >= 2:
            for sub in (s for s in range(mask + 1) if s & mask == s):
                for ts in range(t + 1):
                    if (sub or ts) and (sub != mask or ts != t):
                        for tail in build(sub, ts, budget - 1):
                            for head in build(mask ^ sub, t - ts, budget - 1):
                                out.append(Arrow(tail, head))
        return tuple(out)

    full = (1 << len(blocks)) - 1
    for t in range(max_trivial + 1):
        yield from build(full, t, max_depth)


def enumerate_types(
    spec: SearchSpec, cap: int = ENUMERATION_CAP
) -> Iterator[TypeExpr]:
    """Every type within the spec's structural bounds, each exactly once.

    Leaves are elementary layers: the mandatory factors are grouped by a set
    partition (atoms inside a block sorted by label), and up to
    ``max_trivial_leaves`` standalone one-dimensional leaves are added.
    Arrow trees over the leaves are produced in both operand orders, in a
    fixed deterministic order; the candidate count is estimated up front and
    :class:`EnumerationCapExceeded` is raised before the first yield when it
    exceeds ``cap``.
    """
    estimate = estimate_candidates(spec)
    if estimate > cap:
        raise EnumerationCapExceeded(
            f"estimated {estimate} candidates exceeds cap {cap}"
        )
    atoms = [Atom(_LEAF_LABELS[i], d) for i, d in enumerate(spec.dims)]
    for part in _set_partitions(range(len(atoms))):
        blocks = [
            Elementary(tuple(atoms[i] for i in sorted(block))) for block in part
        ]
        blocks.sort(key=print_canonical)
        yield from _trees_over(blocks, spec.max_trivial_leaves, spec.max_depth)


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
            if spec.allow_permutations:
                hit = find_alignment(
                    sem.delta, tuple(sem.dims), spec.target, spec.dims
                ) is not None
            else:
                hit = tuple(sem.dims) == spec.dims and sem.delta == spec.target
            if hit:
                matches.append(print_canonical(cand))
    except EnumerationCapExceeded:
        exhausted = False
    if progress is not None:
        progress(examined, pruned)
    return SearchResult(
        matches=tuple(sorted(matches)),
        exhausted=exhausted,
        pruned_count=pruned,
    )
