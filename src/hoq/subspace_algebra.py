"""Bitstring index sets for block decompositions of operator spaces.

An operator space over factors of dimensions (d_1, .., d_k) splits into
orthogonal blocks L_b indexed by bitstrings b of length k: bit 1 at position i
means "proportional to the identity on factor i", bit 0 means "traceless on
factor i".  Strings are displayed left to right in factor order; internally
they are stored as integers with the leftmost factor in the highest bit.

W is the full set {0,1}^k, e the all-ones string (the identity block) and
T = W \\ {e}.  Concatenation of index sets mirrors the tensor product of the
underlying spaces; the empty string (k = 0) is its neutral element.  One
recursion gives a type's index set over all atom positions or over the
non-trivial (d > 1) ones only; more than 24 positions raise CapacityError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from hoq.type_ast import Arrow, Elementary, TypeExpr, factor_dims

MAX_FACTORS = 64
# W is materialized string by string, so it is refused beyond this length:
# 2^24 strings already take about a gigabyte.
MAX_EXPLICIT_FACTORS = 24


class CapacityError(ValueError):
    """More tensor factors than the index representation supports."""


def bits_to_int(bits: str) -> int:
    if bits and (set(bits) - {"0", "1"}):
        raise ValueError(f"not a bitstring: {bits!r}")
    return int(bits, 2) if bits else 0


def int_to_bits(value: int, length: int) -> str:
    return format(value, f"0{length}b") if length else ""


@dataclass(frozen=True)
class StringSet:
    """A set of index strings of a common length."""

    length: int
    strings: frozenset[int]

    def __post_init__(self) -> None:
        if self.length < 0 or self.length > MAX_FACTORS:
            raise CapacityError(
                f"string length {self.length} outside [0, {MAX_FACTORS}]"
            )
        if not isinstance(self.strings, frozenset):
            object.__setattr__(self, "strings", frozenset(self.strings))
        lo, hi = min(self.strings, default=0), max(self.strings, default=0)
        if lo < 0 or hi >= 1 << self.length:
            bad = lo if lo < 0 else hi
            raise ValueError(f"string {bad} does not fit length {self.length}")

    @staticmethod
    def from_bitstrings(length: int, bitstrings: Iterable[str]) -> "StringSet":
        vals = set()
        for b in bitstrings:
            if len(b) != length:
                raise ValueError(f"{b!r} has length {len(b)}, expected {length}")
            vals.add(bits_to_int(b))
        return StringSet(length, frozenset(vals))

    def as_bitstrings(self) -> list[str]:
        return [int_to_bits(s, self.length) for s in sorted(self.strings)]

    def __len__(self) -> int:
        return len(self.strings)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.strings))

    def __contains__(self, item: object) -> bool:
        if isinstance(item, str):
            return len(item) == self.length and bits_to_int(item) in self.strings
        return item in self.strings


def _everything(length: int) -> frozenset[int]:
    """The strings of W at the given length, refused beyond
    MAX_EXPLICIT_FACTORS positions: there they are a memory hazard, not an
    index set."""
    if not 0 <= length <= MAX_EXPLICIT_FACTORS:
        raise CapacityError(f"refusing to materialize 2^{length} strings")
    return frozenset(range(1 << length))


def full_sets(length: int) -> tuple[StringSet, StringSet, StringSet]:
    """Return (W, T, e) at the given length: everything, everything but the
    all-ones string, and the all-ones singleton.  At length 0, W = e = {ε}
    and T is empty."""
    e = (1 << length) - 1
    everything = _everything(length)
    return (
        StringSet(length, everything),
        StringSet(length, everything - {e}),
        StringSet(length, frozenset({e})),
    )


def complement_in_T(J: StringSet) -> StringSet:
    """T \\ J.  The all-ones string must not be in J."""
    e = (1 << J.length) - 1
    if e in J.strings:
        raise ValueError("complement_in_T: the identity string is not in T")
    return StringSet(J.length, _everything(J.length) - J.strings - {e})


def perp_in_W(J: StringSet) -> StringSet:
    """W \\ J."""
    return StringSet(J.length, _everything(J.length) - J.strings)


def union(a: StringSet, b: StringSet) -> StringSet:
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    return StringSet(a.length, a.strings | b.strings)


def intersection(a: StringSet, b: StringSet) -> StringSet:
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    return StringSet(a.length, a.strings & b.strings)


def concat(a: StringSet, b: StringSet) -> StringSet:
    """Pairwise concatenation {uv : u in a, v in b}; lengths add."""
    length = a.length + b.length
    if length > MAX_FACTORS:
        raise CapacityError(f"concatenated length {length} exceeds {MAX_FACTORS}")
    if not a.strings or not b.strings:
        return StringSet(length, frozenset())
    shift = b.length
    return StringSet(
        length, frozenset((u << shift) | v for u in a.strings for v in b.strings)
    )


def permute(J: StringSet, perm: Sequence[int]) -> StringSet:
    """Reindex factors: output position i reads input position perm[i]."""
    if sorted(perm) != list(range(J.length)):
        raise ValueError(f"not a permutation of range({J.length}): {perm}")
    ell = J.length
    out = set()
    for s in J.strings:
        v = 0
        for i, p in enumerate(perm):
            bit = (s >> (ell - 1 - p)) & 1
            v |= bit << (ell - 1 - i)
        out.add(v)
    return StringSet(ell, frozenset(out))


def normal_form(
    J: StringSet, dims: Sequence[int]
) -> tuple[StringSet, tuple[int, ...]]:
    """Drop trivial (d = 1) positions.

    Strings that are traceless on a one-dimensional factor index a
    zero-dimensional block, so only strings with bit 1 at every trivial
    position survive; those bits are then removed.  Idempotent: applying it
    to its own output changes nothing.
    """
    dims = tuple(dims)
    if len(dims) != J.length:
        raise ValueError(f"{len(dims)} dims for strings of length {J.length}")
    keep = [i for i, d in enumerate(dims) if d > 1]
    if len(keep) == len(dims):
        return J, dims
    ell = J.length
    out = set()
    for s in J.strings:
        ok = True
        for i, d in enumerate(dims):
            if d == 1 and not (s >> (ell - 1 - i)) & 1:
                ok = False
                break
        if not ok:
            continue
        v = 0
        for j, i in enumerate(keep):
            bit = (s >> (ell - 1 - i)) & 1
            v |= bit << (len(keep) - 1 - j)
        out.add(v)
    return StringSet(len(keep), frozenset(out)), tuple(dims[i] for i in keep)


def dim_of_delta(J: StringSet, dims: Sequence[int]) -> int:
    """Real dimension of the direct sum of the blocks indexed by J."""
    dims = tuple(dims)
    if len(dims) != J.length:
        raise ValueError(f"{len(dims)} dims for strings of length {J.length}")
    ell = J.length
    total = 0
    for s in J.strings:
        term = 1
        for i, d in enumerate(dims):
            if not (s >> (ell - 1 - i)) & 1:
                term *= d * d - 1
        total += term
    return total


# --------------------------------------------------------------------------
# the index set of a type
# --------------------------------------------------------------------------

# At 4096 entries large comb index sets were evicted between uses and rebuilt.
_DELTA_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_DELTA_CACHE_SIZE)
def _delta(x: TypeExpr, full: bool) -> StringSet:
    """The Delta recursion over all atom positions (``full``) or over the
    non-trivial ones; only the elementary layer's width depends on it."""
    if isinstance(x, Elementary):
        k = len(x.atoms) if full else sum(a.dim > 1 for a in x.atoms)
        if all(a.dim == 1 for a in x.atoms):
            return StringSet(k, frozenset())
        return StringSet(k, _everything(k) - {(1 << k) - 1})
    if isinstance(x, Arrow):
        d_tail, d_head = _delta(x.tail, full), _delta(x.head, full)
        return union(
            concat(StringSet(d_tail.length, _everything(d_tail.length)), d_head),
            concat(complement_in_T(d_tail), perp_in_W(d_head)),
        )
    raise TypeError(f"not a type expression: {x!r}")


def _refuse_beyond_capacity(positions: int, what: str) -> None:
    """Refuse a type before its index set is built: past
    MAX_EXPLICIT_FACTORS positions the sets along the recursion no longer
    fit in memory."""
    if positions > MAX_EXPLICIT_FACTORS:
        raise CapacityError(
            f"the type has {positions} {what}; index sets "
            f"are built explicitly up to {MAX_EXPLICIT_FACTORS}"
        )


def delta_of_type(x: TypeExpr) -> StringSet:
    """Index set of the fluctuation space of deterministic events of ``x``,
    over *all* atom positions (delta_normal_form: the same recursion without
    the trivial ones).  Elementary layer: every non-identity pattern, i.e. T
    over its atoms — except that an all-trivial group contributes the empty
    set, so the trivial type has an empty index set exactly.  Arrow x -> y:
    W_x · D_y  ∪  (T_x \\ D_x) · (W_y \\ D_y).  More than
    MAX_EXPLICIT_FACTORS atom positions raise CapacityError."""
    _refuse_beyond_capacity(len(factor_dims(x)), "factor positions")
    return _delta(x, True)


def delta_normal_form(x: TypeExpr) -> tuple[StringSet, tuple[int, ...]]:
    """The recursion of delta_of_type over the non-trivial factors only (an
    all-trivial layer has length 0: W = {ε}, T = ∅), and their dims; equals
    normal_form(delta_of_type(x), factor_dims(x)) without building the
    latter.  More than MAX_EXPLICIT_FACTORS non-trivial positions raise
    CapacityError."""
    dims = tuple(d for d in factor_dims(x) if d > 1)
    _refuse_beyond_capacity(len(dims), "non-trivial factor positions")
    return _delta(x, False), dims


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _json_dims(value: object) -> tuple[int, ...]:
    """Dims from an index-set or matrix file: JSON integers >= 1 only."""
    if not isinstance(value, list) or any(type(d) is not int or d < 1 for d in value):
        raise ValueError(f"dims must be a list of integers >= 1, got {value!r}")
    return tuple(value)


def from_json_obj(obj: dict) -> tuple[StringSet, tuple[int, ...]]:
    if not isinstance(obj, dict) or "strings" not in obj or "dims" not in obj:
        raise ValueError("expected an object with 'strings' and 'dims'")
    dims = _json_dims(obj["dims"])
    strings = obj["strings"]
    if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
        raise ValueError(f"strings must be a list of bitstrings, got {strings!r}")
    return StringSet.from_bitstrings(len(dims), strings), dims
