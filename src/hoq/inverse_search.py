"""Bounded search for types that realize a prescribed fluctuation index set.

The forward direction (type -> index set) is delta_of_type.  This module runs
the opposite direction: given factor dimensions and a normal-form index set,
enumerate every type expression within explicit structural bounds, prune by
the dimension recursion, and report exactly which candidates reproduce the
target.  The search is bounded, so an empty result is evidence of a no-go
within the bounds, not a proof that no type exists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from string import ascii_uppercase
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from hoq.semantics import delta_dimension, find_alignment, upsilon
from hoq.subspace_algebra import StringSet, dim_of_delta
from hoq.type_ast import (
    TRIVIAL_LABEL,
    Arrow,
    Atom,
    Elementary,
    TypeExpr,
    _check_int,
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

# Hard ceiling on how many candidate trees a single search may walk,
# compared with the exact count of estimate_candidates before the first one.
ENUMERATION_CAP = 2_000_000

# How often the optional progress callback fires (in examined candidates).
PROGRESS_STRIDE = 5_000

# The trivial label is reserved for the trivial layer, so it is not
# available as a leaf label.
_LEAF_LABELS = tuple(c for c in ascii_uppercase if c != TRIVIAL_LABEL)


class EnumerationCapExceeded(RuntimeError):
    """The bounded candidate space is still too large to walk."""


class SearchSpec:
    """What to look for and how far to look.

    ``dims`` lists the non-trivial factor dimensions, in the order the
    caller's ``target`` strings index them.  ``target`` must be in normal
    form over exactly those factors and must not contain the all-identity
    string.  ``max_depth`` bounds the arrow-tree depth (a leaf has depth 1,
    an arrow one more than its deeper side).  Up to ``max_trivial_leaves``
    one-dimensional leaves may be inserted on top of the mandatory factors.
    When ``target_lambda`` is set, matches must also reproduce that exact
    identity coefficient; it is an ``int``, a ``Fraction`` or a ``str``
    such as ``"1/2"``, and a ``float`` raises TypeError.  Dims and bounds
    pass the integer rule of ``type_ast._check_int``.
    """

    __slots__ = (
        "dims",
        "target",
        "max_depth",
        "max_trivial_leaves",
        "allow_permutations",
        "target_lambda",
    )

    def __init__(
        self,
        dims: Sequence[int],
        target: StringSet,
        max_depth: int,
        max_trivial_leaves: int = 2,
        allow_permutations: bool = False,
        target_lambda: Optional[Fraction] = None,
    ) -> None:
        dims = tuple([_check_int(d, 2, "factor dimension") for d in dims])
        if not dims:
            raise ValueError("dims must name at least one non-trivial factor")
        if len(dims) > len(_LEAF_LABELS):
            raise ValueError(
                f"at most {len(_LEAF_LABELS)} factors supported, got {len(dims)}"
            )
        if not isinstance(target, StringSet):
            raise TypeError("target must be a StringSet")
        if target.length != len(dims):
            raise ValueError(
                f"target strings have length {target.length}, "
                f"expected {len(dims)}"
            )
        e = (1 << len(dims)) - 1
        if e in target:
            raise ValueError("target must not contain the all-identity string")
        if target_lambda is not None:
            if isinstance(target_lambda, float):
                # 0.1 is 3602879701896397/2**55, which no type's lambda equals
                raise TypeError(f"target_lambda must be exact, got {target_lambda!r}")
            target_lambda = Fraction(target_lambda)
            if target_lambda <= 0:
                raise ValueError("target_lambda must be positive")
        self.dims = dims
        self.target = target
        self.max_depth = _check_int(max_depth, 1, "max_depth")
        self.max_trivial_leaves = _check_int(
            max_trivial_leaves, 0, "max_trivial_leaves"
        )
        self.allow_permutations = allow_permutations
        self.target_lambda = target_lambda


class SearchResult(NamedTuple):
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


def _holds_too_many(leaves: int, depth: int) -> bool:
    """Whether `leaves` leaves overflow a tree of depth `depth`, which holds
    at most 2^(depth-1) of them; compared by bit length, so a huge depth
    costs nothing."""
    return (leaves - 1).bit_length() >= depth


def _effective_bounds(spec: SearchSpec) -> tuple[int, int]:
    """The (trivial leaves, depth) bounds the search actually walks.

    A tree of depth D holds at most 2^(D-1) leaves, one of them a factor
    block, so more than 2^(D-1) - 1 trivial leaves never fit; and a tree of
    m leaves is at most m deep, so a depth above the factors plus the
    trivial leaves reaches no further tree.  Clamping both leaves the
    candidate set, and its order, as the spec's bounds give it.
    """
    trivial = spec.max_trivial_leaves
    if _holds_too_many(trivial + 1, spec.max_depth):
        # here max_depth is at most the bit length of max_trivial_leaves
        trivial = (1 << (spec.max_depth - 1)) - 1
    return trivial, min(spec.max_depth, len(spec.dims) + trivial)


@cache
def _tree_count(blocks: int, trivial: int, depth: int) -> int:
    """How many trees _trees_over builds over `blocks` distinguishable leaves
    and `trivial` identical ones within depth `depth`: its splits, counted."""
    if blocks + trivial == 1:
        return 1 if depth >= 1 else 0
    if depth < 2 or _holds_too_many(blocks + trivial, depth):
        return 0
    return sum(
        comb(blocks, k)
        * _tree_count(k, ts, depth - 1)
        * _tree_count(blocks - k, trivial - ts, depth - 1)
        for k in range(blocks + 1)
        for ts in range(trivial + 1)
        if (k or ts) and (k != blocks or ts != trivial)
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
    """The number of candidates enumerate_types yields, exact up to
    ENUMERATION_CAP.

    Each set partition of the factors into blocks gives distinct leaves, and
    trees over them are counted as _trees_over builds them, with identical
    trivial leaves counted once.  Terms are added in increasing number of
    trivial leaves, and the count stops at the first partial total above
    ENUMERATION_CAP: past the cap it returns that total, a number above the
    cap but not the exact count.
    """
    n = len(spec.dims)
    max_trivial, max_depth = _effective_bounds(spec)
    total = 0
    for k in range(max_trivial + 1):
        for blocks in range(1, n + 1):
            total += _partition_count(n, blocks) * _tree_count(
                blocks, k, max_depth
            )
            if total > ENUMERATION_CAP:
                return total
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
    tail and head in every way but an empty side.  The budget is at least 1.
    """
    trivial = Elementary((Atom(TRIVIAL_LABEL, 1),))

    @cache
    def build(mask: int, t: int, budget: int) -> tuple[TypeExpr, ...]:
        leaves = mask.bit_count() + t
        if _holds_too_many(leaves, budget):
            return ()
        if leaves == 1:
            return (blocks[mask.bit_length() - 1] if mask else trivial,)
        out: list[TypeExpr] = []
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


def enumerate_types(spec: SearchSpec) -> Iterator[TypeExpr]:
    """Every type within the spec's structural bounds, each exactly once.

    Leaves are elementary layers: the mandatory factors are grouped by a set
    partition (atoms inside a block sorted by label), and up to
    ``max_trivial_leaves`` standalone one-dimensional leaves are added.
    Arrow trees over the leaves are produced in both operand orders, in a
    fixed deterministic order; the candidates are counted up front and
    :class:`EnumerationCapExceeded` is raised before the first yield when
    there are more than ENUMERATION_CAP.
    """
    count = estimate_candidates(spec)
    if count > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{count} candidates exceed the cap {ENUMERATION_CAP}"
        )
    max_trivial, max_depth = _effective_bounds(spec)
    atoms = [Atom(_LEAF_LABELS[i], d) for i, d in enumerate(spec.dims)]
    for part in _set_partitions(range(len(atoms))):
        blocks = [
            Elementary(tuple(atoms[i] for i in sorted(block))) for block in part
        ]
        blocks.sort(key=print_canonical)
        yield from _trees_over(blocks, max_trivial, max_depth)


def inverse_search(
    spec: SearchSpec,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SearchResult:
    """Find every bounded type whose index data reproduces the target.

    Candidates are walked via enumerate_types.  A candidate is discarded
    without building its index set unless the dimension recursion matches
    the target's total dimension; pruning never removes a true match
    because equal index sets over equal factor dimensions force equal
    dimensions.  Survivors must reproduce the target exactly after normal
    form — against the caller's factor order, or up to a factor permutation
    when ``allow_permutations`` is set — and must match ``target_lambda``
    when one is given.

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
        for cand in enumerate_types(spec):
            examined += 1
            if progress is not None and examined % PROGRESS_STRIDE == 0:
                progress(examined, pruned)
            if delta_dimension(cand) != target_dim:
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
