"""Bitstring index sets for block decompositions of operator spaces.

An operator space over factors of dimensions (d_1, .., d_k) splits into
orthogonal blocks L_b indexed by bitstrings b of length k: bit 1 at position i
means "proportional to the identity on factor i", bit 0 means "traceless on
factor i".  Strings are displayed left to right in factor order; internally
they are integers with the leftmost factor in the highest bit, and a set of
strings of length k is one int of 2^k bits with bit s set when string s is in
it, so the set algebra runs as whole-integer operations.

W is the full set {0,1}^k, e the all-ones string (the identity block) and
T = W \\ {e}.  Concatenation of index sets mirrors the tensor product of the
underlying spaces; the empty string (k = 0) is its neutral element.  It shifts
and ORs the right operand's bitmap into place: by doubling when the left
operand is W, once per string when it holds few, and by widening its binary
digits as text otherwise.  One recursion gives a type's index set over all
atom positions or over the non-trivial (d > 1) ones only; it runs on bare
(length, bitmap) pairs and wraps its result in a StringSet once, at the top.
More than 24 positions raise CapacityError.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from hoq.type_ast import Arrow, Elementary, TypeExpr, _check_perm, factor_dims

MAX_FACTORS = 24
# An index set over k positions is one int of 2^k bits, so the largest one
# takes 2 MB; the recursion's intermediates stay within a few times that.


class CapacityError(ValueError):
    """More tensor factors than the index representation supports."""


def bits_to_int(bits: str) -> int:
    if bits and (set(bits) - {"0", "1"}):
        raise ValueError(f"not a bitstring: {bits!r}")
    return int(bits, 2) if bits else 0


def int_to_bits(value: int, length: int) -> str:
    return format(value, f"0{length}b") if length else ""


def _check_length(length: int) -> None:
    if not 0 <= length <= MAX_FACTORS:
        raise CapacityError(f"string length {length} outside [0, {MAX_FACTORS}]")


def _bitmap(length: int, members: Iterable[int]) -> int:
    """The bitmap of the given strings, which must fit ``length``."""
    chars = bytearray(b"0" * (1 << length))
    for s in members:
        chars[s] = 49  # "1"
    chars.reverse()
    return int(chars, 2)


class StringSet:
    """A set of index strings of a common length, held as a bitmap: bit s of
    ``bits`` is set exactly when string s is in the set.

    ``StringSet(length, strings)`` validates its input; the set operations
    below build their results unchecked, as they only produce strings that
    fit.  Iteration yields the strings in ascending order.
    """

    __slots__ = ("length", "bits")
    length: int
    bits: int

    def __init__(self, length: int, strings: Iterable[int]) -> None:
        _check_length(length)
        strings = tuple(strings)
        for s in strings:
            if not 0 <= s < 1 << length:
                raise ValueError(f"string {s} does not fit length {length}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "bits", _bitmap(length, strings))

    @classmethod
    def _of(cls, length: int, bits: int) -> "StringSet":
        new = object.__new__(cls)
        object.__setattr__(new, "length", length)
        object.__setattr__(new, "bits", bits)
        return new

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StringSet is immutable")

    def __reduce__(self):
        return StringSet._of, (self.length, self.bits)

    @staticmethod
    def from_bitstrings(length: int, bitstrings: Iterable[str]) -> "StringSet":
        vals = []
        for b in bitstrings:
            if len(b) != length:
                raise ValueError(f"{b!r} has length {len(b)}, expected {length}")
            vals.append(bits_to_int(b))
        return StringSet(length, vals)

    @property
    def strings(self) -> frozenset[int]:
        return frozenset(self)

    def as_bitstrings(self) -> list[str]:
        return [int_to_bits(s, self.length) for s in self]

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        text = format(self.bits, "b")[::-1]  # character s stands for string s
        s = text.find("1")
        while s >= 0:
            yield s
            s = text.find("1", s + 1)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, str):
            if len(item) != self.length:
                return False
            item = bits_to_int(item)
        if not isinstance(item, int) or not 0 <= item < 1 << self.length:
            return False
        return bool(self.bits >> item & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StringSet):
            return NotImplemented
        return self.length == other.length and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.length, self.bits))

    def __repr__(self) -> str:
        return f"StringSet.from_bitstrings({self.length}, {self.as_bitstrings()})"


def full_sets(length: int) -> tuple[StringSet, StringSet, StringSet]:
    """Return (W, T, e) at the given length: everything, everything but the
    all-ones string, and the all-ones singleton.  At length 0, W = e = {ε}
    and T is empty."""
    _check_length(length)
    e = 1 << ((1 << length) - 1)  # the bit of the all-ones string
    return (
        StringSet._of(length, 2 * e - 1),
        StringSet._of(length, e - 1),
        StringSet._of(length, e),
    )


def complement_in_T(J: StringSet) -> StringSet:
    """T \\ J.  The all-ones string must not be in J."""
    e = 1 << ((1 << J.length) - 1)
    if J.bits & e:
        raise ValueError("complement_in_T: the identity string is not in T")
    return StringSet._of(J.length, (e - 1) ^ J.bits)


def perp_in_W(J: StringSet) -> StringSet:
    """W \\ J."""
    return StringSet._of(J.length, ((1 << (1 << J.length)) - 1) ^ J.bits)


def union(a: StringSet, b: StringSet) -> StringSet:
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    return StringSet._of(a.length, a.bits | b.bits)


# A left operand of at most this many strings is concatenated by one shift-OR
# per string, a denser one by text widening.  Timed on random left operands of
# 3 to 8 positions: with right operands of 6 positions or more the shift-ORs
# were faster up to 32 strings, with 3 or fewer text widening was faster from
# 8 strings on, by about 2 us a call.  Bounds from 4 to 64 gave the exact
# workload and the 24-position combs the same time within noise.
_SPARSE_STRINGS = 16


def _repeat(bits: int, width: int, copies: int) -> int:
    """``copies`` (a power of two) copies of a ``width``-bit block, side by
    side, built by doubling the filled part."""
    filled, total = width, width * copies
    while filled < total:
        bits |= bits << filled
        filled <<= 1
    return bits


def _concat_bits(a_length: int, a_bits: int, b_length: int, b_bits: int) -> int:
    """The bitmap of concat on bare (length, bitmap) pairs."""
    count = a_bits.bit_count()
    if count == 1 << a_length:  # a is W: b's bitmap in every block
        return _repeat(b_bits, 1 << b_length, count)
    if count <= _SPARSE_STRINGS:  # b's bitmap shifted into each block of a
        bits = 0
        while a_bits:
            low = a_bits & -a_bits
            bits |= b_bits << ((low.bit_length() - 1) << b_length)
            a_bits ^= low
        return bits
    text = format(a_bits, "b")
    if b_length < 2:  # a block of one or two bits: one digit in base 2 or 4
        return int(text.replace("1", str(b_bits)), 2 << b_length)
    # a block of 2^len(b) bits: 2^len(b) / 4 hex digits
    digits = 1 << (b_length - 2)
    block = format(b_bits, f"0{digits}x")
    return int(text.replace("0", "0" * digits).replace("1", block), 16)


def concat(a: StringSet, b: StringSet) -> StringSet:
    """Pairwise concatenation {uv : u in a, v in b}; lengths add.

    String uv is u * 2^len(b) + v, so the result holds b's bitmap in each
    2^len(b)-bit block that a selects.  The method follows a's shape: when a
    is W, b's bitmap is repeated by doubling; when a holds at most
    _SPARSE_STRINGS strings, it is shifted into each of their blocks and
    ORed; otherwise each binary digit of a is widened to its block as digits
    of a power-of-two base, and the text is read back as one int."""
    length = a.length + b.length
    if length > MAX_FACTORS:
        raise CapacityError(f"concatenated length {length} exceeds {MAX_FACTORS}")
    return StringSet._of(length, _concat_bits(a.length, a.bits, b.length, b.bits))


def _gather(
    J: StringSet, length: int, moves: list[tuple[int, int]], need: int = 0
) -> StringSet:
    """The strings of J that have every bit of ``need`` set, each rebuilt
    from the bits that ``moves`` (source shift, target shift) carry over."""
    out = []
    for s in J:
        if s & need == need:
            v = 0
            for src, dst in moves:
                v |= (s >> src & 1) << dst
            out.append(v)
    return StringSet._of(length, _bitmap(length, out))


def permute(J: StringSet, perm: Sequence[int]) -> StringSet:
    """Reindex factors: output position i reads input position perm[i]."""
    perm = _check_perm(perm, J.length)
    ell = J.length
    return _gather(J, ell, [(ell - 1 - p, ell - 1 - i) for i, p in enumerate(perm)])


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
    ell = J.length
    keep = [i for i, d in enumerate(dims) if d > 1]
    if len(keep) == ell:
        return J, dims
    trivial = sum(1 << (ell - 1 - i) for i, d in enumerate(dims) if d == 1)
    moves = [(ell - 1 - i, len(keep) - 1 - j) for j, i in enumerate(keep)]
    return _gather(J, len(keep), moves, trivial), tuple(dims[i] for i in keep)


def dim_of_delta(J: StringSet, dims: Sequence[int]) -> int:
    """Real dimension of the direct sum of the blocks indexed by J."""
    dims = tuple(dims)
    if len(dims) != J.length:
        raise ValueError(f"{len(dims)} dims for strings of length {J.length}")
    ell = J.length
    weights = [(ell - 1 - i, d * d - 1) for i, d in enumerate(dims)]
    total = 0
    for s in J:
        term = 1
        for shift, w in weights:
            if not s >> shift & 1:
                term *= w
        total += term
    return total


# --------------------------------------------------------------------------
# the index set of a type
# --------------------------------------------------------------------------

# At 4096 entries large comb index sets were evicted between uses and rebuilt.
_DELTA_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_DELTA_CACHE_SIZE)
def _delta(x: TypeExpr, full: bool) -> tuple[int, int]:
    """The Delta recursion over all atom positions (``full``) or over the
    non-trivial ones; only the elementary layer's width depends on it.  It
    returns the (length, bitmap) pair of the index set: W_tail · D_head is
    D_head's bitmap repeated by doubling, and the complements T \\ D and
    W \\ D are XORs against the masks of T and W."""
    if isinstance(x, Elementary):
        k = len(x.atoms) if full else sum(a.dim > 1 for a in x.atoms)
        if all(a.dim == 1 for a in x.atoms):
            return k, 0
        return k, (1 << ((1 << k) - 1)) - 1  # T
    if isinstance(x, Arrow):
        tail_length, d_tail = _delta(x.tail, full)
        head_length, d_head = _delta(x.head, full)
        blocks, width = 1 << tail_length, 1 << head_length
        t_tail, w_head = (1 << (blocks - 1)) - 1, (1 << width) - 1
        # W_x · D_y  ∪  (T_x \ D_x) · (W_y \ D_y)
        bits = _repeat(d_head, width, blocks) | _concat_bits(
            tail_length, t_tail ^ d_tail, head_length, w_head ^ d_head
        )
        return tail_length + head_length, bits
    raise TypeError(f"not a type expression: {x!r}")


def _refuse_beyond_capacity(positions: int, what: str) -> None:
    """Refuse a type before its index set is built: no index set spans more
    than MAX_FACTORS positions."""
    if positions > MAX_FACTORS:
        raise CapacityError(
            f"the type has {positions} {what}; index sets "
            f"span at most {MAX_FACTORS}"
        )


def delta_of_type(x: TypeExpr) -> StringSet:
    """Index set of the fluctuation space of deterministic events of ``x``,
    over *all* atom positions (delta_normal_form: the same recursion without
    the trivial ones).  Elementary layer: every non-identity pattern, i.e. T
    over its atoms — except that an all-trivial group contributes the empty
    set, so the trivial type has an empty index set exactly.  Arrow x -> y:
    W_x · D_y  ∪  (T_x \\ D_x) · (W_y \\ D_y).  More than MAX_FACTORS atom
    positions raise CapacityError."""
    _refuse_beyond_capacity(len(factor_dims(x)), "factor positions")
    return StringSet._of(*_delta(x, True))


def delta_normal_form(x: TypeExpr) -> tuple[StringSet, tuple[int, ...]]:
    """The recursion of delta_of_type over the non-trivial factors only (an
    all-trivial layer has length 0: W = {ε}, T = ∅), and their dims; equals
    normal_form(delta_of_type(x), factor_dims(x)) without building the
    latter.  More than MAX_FACTORS non-trivial positions raise
    CapacityError."""
    dims = tuple(d for d in factor_dims(x) if d > 1)
    _refuse_beyond_capacity(len(dims), "non-trivial factor positions")
    return StringSet._of(*_delta(x, False)), dims


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _json_dims(value: object) -> tuple[int, ...]:
    """Dims from an index-set or matrix file: JSON integers >= 1 only.  This
    is stricter than the integer rule of ``type_ast._check_int`` on purpose:
    a file holds no numpy integers, and its ``2.0`` is refused."""
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
