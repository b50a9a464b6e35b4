"""Exact characterization data for types and decidable type equivalence.

Every deterministic event of a type x is λ_x·I plus a fluctuation from the
block direct sum indexed by delta_of_type(x).  This module computes the exact
rational λ_x, packages the index data over the non-trivial factors as
:class:`TypeSemantics`, and decides whether two types have the same semantics
up to a relabelling of tensor factors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple, Optional, Sequence

from hoq.subspace_algebra import StringSet, delta_normal_form, permute
from hoq.type_ast import Elementary, TypeExpr, _check_perm, total_dim

__all__ = [
    "TypeSemantics",
    "EquivalenceVerdict",
    "AlignmentCapExceeded",
    "ALIGNMENT_CAP",
    "lambda_recursive",
    "delta_dimension",
    "upsilon",
    "find_alignment",
    "check_equiv",
]

# Permutation search is factorial; above this many non-trivial factors we
# refuse loudly instead of silently answering "not equivalent".
ALIGNMENT_CAP = 8


class AlignmentCapExceeded(ValueError):
    """Equivalence would need a permutation search beyond the supported size."""


# Bound of each of the caches on lambda_recursive and delta_dimension.  Like
# the Delta cache (subspace_algebra._DELTA_CACHE_SIZE) they are keyed by the
# interned type node, which hashes by identity, and their references keep
# recurring types alive in the weak tables of type_ast, so their values
# survive between calls.
_LAMBDA_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_LAMBDA_CACHE_SIZE)
def lambda_recursive(x: TypeExpr) -> Fraction:
    """The exact identity coefficient λ_x.

    Elementary layer: 1/d.  Arrow: λ_head / (d_tail · λ_tail).  Results are
    cached per type node.

    Every λ_x is 1/D_x for a divisor D_x of the total dimension d_x (true of
    1/d, and kept by the arrow step), so the arrow step is the integer
    D_head · (d_tail / D_tail), with an exact division and no gcd.
    """
    if isinstance(x, Elementary):
        return Fraction(1, total_dim(x))
    lam_tail = lambda_recursive(x.tail)
    lam_head = lambda_recursive(x.head)
    d_tail = total_dim(x.tail)
    return Fraction(1, lam_head.denominator * (d_tail // lam_tail.denominator))


@lru_cache(maxsize=_LAMBDA_CACHE_SIZE)
def delta_dimension(x: TypeExpr) -> int:
    """Dimension of the fluctuation span of x, without building string sets.

    Satisfies delta_dimension(x) == dim_of_delta(delta_of_type(x),
    factor_dims(x)) but runs in time linear in the tree, so it is usable as a
    cheap pruning key when scanning large families of candidate types.

    Elementary layer of total dimension d contributes d**2 - 1 (zero when the
    layer is trivial).  For an arrow with tail dimension d_t, head dimension
    d_h and child values a_t, a_h:

        a = a_h * (1 + a_t) + d_h**2 * (d_t**2 - 1 - a_t)

    Results are cached per type node.
    """
    if isinstance(x, Elementary):
        return total_dim(x) ** 2 - 1
    a_tail = delta_dimension(x.tail)
    a_head = delta_dimension(x.head)
    d_tail = total_dim(x.tail)
    d_head = total_dim(x.head)
    return a_head * (1 + a_tail) + d_head**2 * (d_tail**2 - 1 - a_tail)


class TypeSemantics(NamedTuple):
    """Everything membership checks need to know about a type.

    ``lambda_`` is exact (serialized under the key "lambda"); ``delta`` and
    ``dims`` are in normal form (trivial factors dropped); ``total_dim`` is
    the dimension of the full Hilbert space, trivial factors included.
    """

    lambda_: Fraction
    delta: StringSet
    dims: tuple[int, ...]
    total_dim: int


def upsilon(x: TypeExpr) -> TypeSemantics:
    """Compute the semantics triple of a type; ``delta`` and ``dims`` come
    from the Delta recursion run over the non-trivial factors only."""
    delta, dims = delta_normal_form(x)
    return TypeSemantics(
        lambda_=lambda_recursive(x),
        delta=delta,
        dims=dims,
        total_dim=total_dim(x),
    )


class EquivalenceVerdict(NamedTuple):
    """Outcome of check_equiv.

    When ``equivalent`` is true, ``permutation`` is a factor alignment on the
    normal-formed positions: position i of the second type corresponds to
    position permutation[i] of the first, so gathering the first type's index
    data along it reproduces the second's.
    """

    equivalent: bool
    permutation: Optional[tuple[int, ...]]


def find_alignment(
    delta_x: StringSet,
    dims_x: Sequence[int],
    delta_y: StringSet,
    dims_y: Sequence[int],
) -> Optional[tuple[int, ...]]:
    """Least permutation carrying (delta_x, dims_x) onto (delta_y, dims_y).

    Gather convention: candidate perm matches when dims_y[i] == dims_x[perm[i]]
    for all i and permute(delta_x, perm) == delta_y.  Identity is tried first;
    None when no alignment exists; :class:`AlignmentCapExceeded` when more
    than ``ALIGNMENT_CAP`` positions would have to be searched.
    """
    dims_x = tuple(dims_x)
    dims_y = tuple(dims_y)
    k = len(dims_x)
    if len(dims_y) != k or delta_x.length != k or delta_y.length != k:
        return None
    if dims_x == dims_y and delta_x == delta_y:
        return tuple(range(k))
    if sorted(dims_x) != sorted(dims_y) or len(delta_x) != len(delta_y):
        return None
    if k > ALIGNMENT_CAP:
        raise AlignmentCapExceeded(
            f"{k} non-trivial factors exceed the search cap {ALIGNMENT_CAP}; "
            f"pass an explicit permutation"
        )
    for cand in permutations(range(k)):
        if dims_y != tuple(dims_x[p] for p in cand):
            continue
        if permute(delta_x, cand) == delta_y:
            return cand
    return None


def check_equiv(
    x: TypeExpr,
    y: TypeExpr,
    perm: Optional[Sequence[int]] = None,
    search: bool = True,
) -> EquivalenceVerdict:
    """Decide x ≡ y: equal λ and matching index data under a factor alignment.

    With an explicit ``perm`` only that alignment is verified, and with
    ``search`` off only the identity.  Otherwise find_alignment reports the
    lexicographically least witness, trying the identity first; more than
    ``ALIGNMENT_CAP`` non-trivial factors raise :class:`AlignmentCapExceeded`
    rather than guessing.
    """
    sx = upsilon(x)
    sy = upsilon(y)
    k = len(sx.dims)
    if perm is not None:
        perm = _check_perm(perm, k)
    if sx.lambda_ != sy.lambda_ or len(sy.dims) != k:
        return EquivalenceVerdict(False, None)
    if perm is not None:
        ok = sy.dims == tuple(sx.dims[p] for p in perm) and (
            permute(sx.delta, perm) == sy.delta
        )
    elif not search:
        perm = tuple(range(k))
        ok = sx.dims == sy.dims and sx.delta == sy.delta
    else:
        perm = find_alignment(sx.delta, sx.dims, sy.delta, sy.dims)
        ok = perm is not None
    return EquivalenceVerdict(ok, perm if ok else None)
