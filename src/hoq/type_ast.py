"""Core type language for higher-order quantum maps.

A *type* names a convex set of operators (events) on a tensor product of
finite-dimensional Hilbert spaces.  Types are built from dimension-labelled
atoms by grouping (tensor juxtaposition inside an elementary layer) and the
arrow constructor ``x -> y`` (maps from events of type ``x`` to events of
type ``y``).

Concrete syntax::

    type      := term ("->" type)?          # right associative
    term      := atomgroup | "(" type ")"
    atomgroup := atom ("*" atom)*
    atom      := IDENT (":" INT)? | "I"

Whitespace is insignificant.  An atom without an explicit dimension defaults
to dimension 2.  The label ``I`` is reserved for the trivial (one-dimensional)
system: it never takes an annotation, and no other label may carry dimension
one.  The canonical printer emits no whitespace, spells every dimension except
the trivial one, parenthesizes every arrow that occurs as a subterm and omits
the outermost pair, e.g. ``(A:2->B:2)->C:2``.  ``parse_type`` and
``print_canonical`` are mutually inverse on canonical strings.

Terms are hash-consed: ``Atom``, ``Elementary`` and ``Arrow`` each keep a
table of their live nodes, and a constructor called with the parts of a
live node returns that node.  Equal terms are therefore one object, ``==``
is ``is``, and hashing a node costs O(1) whatever its size, which is what
the Delta and lambda caches of the other modules key on.  The tables hold
their nodes weakly, so a type that nothing else references is collected
and leaves its table.  ``pickle``, ``copy.copy`` and ``copy.deepcopy``
rebuild through the constructor and so return the interned node.  Nodes
hash by identity, which differs between runs: no output may depend on the
order of a set or dict of nodes.  The tables are not locked, so build types
from one thread at a time.
"""

from __future__ import annotations

import re
import weakref
from math import prod
from typing import Sequence, Union

__all__ = [
    "Atom",
    "Elementary",
    "Arrow",
    "TypeExpr",
    "ParseError",
    "TRIVIAL_LABEL",
    "MAX_NESTING",
    "parse_type",
    "print_canonical",
    "factor_dims",
    "total_dim",
    "type_depth",
    "bar",
    "tensor",
    "make_comb",
]

TRIVIAL_LABEL = "I"

# A label is a word character that is neither a decimal digit nor "_",
# followed by word characters; the tokenizer and Atom both use this pattern.
_LABEL = re.compile(r"[^\W\d_]\w*")

# Deepest nesting the parser accepts: each parenthesized type and each right
# side of an arrow opens a level, so a parsed type is at most this deep.  The
# recursions over a type take a few frames per level, which keeps them far
# below Python's default recursion limit of 1000.
MAX_NESTING = 100


def _check_int(value: int, low: int, what: str) -> int:
    """The integer rule: ``value`` as an ``int``, at least ``low``.

    An ``int`` passes, and so does an integer type with ``__index__``, such
    as numpy's.  A ``bool`` or a number that is not integral raises
    TypeError and is never truncated; a value below ``low`` raises
    ValueError.  Two inputs are stricter on purpose: an atom's dimension
    must be an exact ``int``, since it keys the interning table, and the
    dims of a JSON file must be JSON integers (``subspace_algebra._json_dims``).
    """
    if value.__class__ is not int:
        index = getattr(type(value), "__index__", None)
        if index is None or isinstance(value, bool):
            raise TypeError(f"{what} must be an integer, got {value!r}")
        value = index(value)
    if value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    return value


def _check_perm(perm: Sequence[int], k: int) -> tuple[int, ...]:
    """The permutation rule: ``perm`` as a tuple of ints listing each of
    range(k) once, every entry passing the integer rule."""
    perm = tuple([_check_int(p, 0, "perm entry") for p in perm])
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation of range({k}): {perm}")
    return perm


def _check_tooth_count(n: int) -> int:
    """Refuse a comb tooth count before any of the n teeth is built."""
    n = _check_int(n, 1, "tooth count")
    if n > MAX_NESTING:
        # the comb type nests n levels deep, like a parsed type
        raise ValueError(f"a comb has at most {MAX_NESTING} teeth, got {n}")
    return n


class ParseError(ValueError):
    """Raised when a type string violates the grammar.

    Carries the zero-based character ``position`` at which the problem was
    detected, so the CLI can point at the offending character.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Ref(weakref.ref):
    """A weak reference that knows its table key, so its callback can drop
    the entry (weakref.KeyedRef does the same, but builds in Python)."""

    __slots__ = ("key",)


def _dead() -> None:
    """Stands in for the weak reference of a key that has no entry."""


class _Term:
    """Shared base of the interned type terms.

    Each subclass keeps its own table from a key to a weak reference to the
    one live node with that key.  A constructor returns that node when there
    is one (a node is always true, so ``table.get(key, _dead)() or build``
    builds only on a miss), and only otherwise validates, builds and enters
    a new node.  An entry leaves the table when its node dies, unless a node
    rebuilt under the same key has taken its place.  Slot values are passed
    to ``_enter`` in the order of the subclass's ``__slots__``.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...]  # the constructor's arguments, for pickle and repr

    def __init_subclass__(cls) -> None:
        table: dict = {}

        def forget(ref: _Ref) -> None:
            if table.get(ref.key) is ref:
                del table[ref.key]

        cls._table, cls._forget = table, staticmethod(forget)

    @classmethod
    def _enter(cls, key, *values):
        """Build a node from its slot values and enter it under ``key``."""
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(node, name, value)
        ref = cls._table[key] = _Ref(node, cls._forget)
        ref.key = key
        return node

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # pickle and copy rebuild through the constructor: the interned node
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Atom(_Term):
    """One elementary system: a label and a Hilbert-space dimension.

    The trivial system is exactly ``Atom("I", 1)``; the invariant
    ``dim == 1  <=>  label == "I"`` keeps the canonical printer total
    (a one-dimensional atom always prints as ``I``).  The dimension must be
    an ``int``: a ``bool``, a ``float`` or a numpy integer raises TypeError.
    This is stricter than the integer rule (``_check_int``) on purpose: the
    dimension is part of the interning key, and one class test guards it.
    """

    __slots__ = ("label", "dim")
    _fields = ("label", "dim")

    def __new__(cls, label: str, dim: int = 2) -> Atom:
        # ("I", True) and ("A", 2.0) equal valid keys: check the type first
        if dim.__class__ is not int:
            if isinstance(dim, bool) or not isinstance(dim, int):
                raise TypeError(f"atom dimension must be an int, got {dim!r}")
            dim = int(dim)
        key = (label, dim)
        return cls._table.get(key, _dead)() or cls._build(key)

    @classmethod
    def _build(cls, key: tuple[str, int]) -> Atom:
        label, dim = key
        if not _LABEL.fullmatch(label):
            raise ValueError(f"bad atom label {label!r}")
        if dim < 1:
            raise ValueError(f"atom dimension must be >= 1, got {dim}")
        if (dim == 1) != (label == TRIVIAL_LABEL):
            raise ValueError(
                f"label {label!r} with dim {dim}: dimension 1 is reserved "
                f"for the trivial label {TRIVIAL_LABEL!r} and vice versa"
            )
        return cls._enter(key, label, dim)

    @classmethod
    def _parsed(cls, label: str, dim: int) -> Atom:
        """The parser's route: it has checked the label and the dimension
        already, so a new atom is entered without checking them again."""
        key = (label, dim)
        return cls._table.get(key, _dead)() or cls._enter(key, label, dim)

    def __str__(self) -> str:
        if self.dim == 1:
            return TRIVIAL_LABEL
        return f"{self.label}:{self.dim}"


class Elementary(_Term):
    """An elementary layer: a nonempty group of atoms, written A:2*B:3."""

    __slots__ = ("atoms", "dims", "dim")
    _fields = ("atoms",)

    def __new__(cls, atoms: Sequence[Atom]) -> Elementary:
        atoms = tuple(atoms)
        return cls._table.get(atoms, _dead)() or cls._build(atoms)

    @classmethod
    def _build(cls, atoms: tuple[Atom, ...]) -> Elementary:
        if not atoms:
            raise ValueError("elementary type needs at least one atom")
        if not all(isinstance(a, Atom) for a in atoms):
            raise TypeError(f"not a tuple of atoms: {atoms!r}")
        dims = tuple(a.dim for a in atoms)
        return cls._enter(atoms, atoms, dims, prod(dims))

    def __str__(self) -> str:
        return print_canonical(self)


class Arrow(_Term):
    """The map type ``tail -> head``."""

    __slots__ = ("tail", "head", "dims", "dim")
    _fields = ("tail", "head")

    def __new__(cls, tail: TypeExpr, head: TypeExpr) -> Arrow:
        key = (tail, head)
        return cls._table.get(key, _dead)() or cls._build(key)

    @classmethod
    def _build(cls, key: tuple[TypeExpr, TypeExpr]) -> Arrow:
        tail, head = key
        if not (isinstance(tail, _TYPES) and isinstance(head, _TYPES)):
            raise TypeError(f"not type expressions: {tail!r}, {head!r}")
        return cls._enter(key, tail, head, tail.dims + head.dims, tail.dim * head.dim)

    def __str__(self) -> str:
        return print_canonical(self)


TypeExpr = Union[Elementary, Arrow]
_TYPES = (Elementary, Arrow)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

# Whitespace matches no rule, so findall skips it.  Every other character
# starts an operator, a dimension or a label, or is an error and yields "".
_TOKEN = re.compile(rf"(->|[*():]|\d+|{_LABEL.pattern})|\S")


def parse_type(text: str) -> TypeExpr:
    """Parse the concrete syntax into a type expression.

    Raises :class:`ParseError` (a ``ValueError``) on malformed input, a
    character that no token takes included, and on nesting deeper than
    MAX_NESTING, with the offending character position attached.
    """
    tokens = _TOKEN.findall(text)
    if "" in tokens:
        bad = next(m for m in _TOKEN.finditer(text) if not m[1])
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    tokens.append("")  # from here on, "" is the end of the input
    at = 0

    def error(message: str) -> ParseError:
        # only an error needs token offsets, so only an error finds them
        offsets = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
        return ParseError(message, offsets[at])

    def type_(depth: int) -> TypeExpr:
        nonlocal at
        if depth > MAX_NESTING:
            raise error(f"type nested deeper than {MAX_NESTING} levels")
        if tokens[at] == "(":
            at += 1
            expr = type_(depth + 1)
            if tokens[at] != ")":
                raise error(f"expected ')', found {tokens[at]!r}")
            at += 1
        else:
            atoms = [atom()]
            while tokens[at] == "*":
                at += 1
                atoms.append(atom())
            expr = Elementary(tuple(atoms))
        if tokens[at] == "->":
            at += 1
            return Arrow(expr, type_(depth + 1))  # right associative
        return expr

    def atom() -> Atom:
        nonlocal at
        label = tokens[at]
        if not _LABEL.fullmatch(label):
            raise error(f"expected a label, found {label!r}")
        at += 1
        if tokens[at] != ":":
            return Atom._parsed(label, 1 if label == TRIVIAL_LABEL else 2)
        if label == TRIVIAL_LABEL:
            raise error(f"the trivial system {TRIVIAL_LABEL!r} takes no dimension")
        at += 1
        if not tokens[at].isdecimal():
            raise error(f"expected a dimension, found {tokens[at]!r}")
        dim = int(tokens[at])
        if dim < 2:
            raise error(
                f"dimension {dim} not allowed for {label!r}; dimension 1 "
                f"is written {TRIVIAL_LABEL!r}"
            )
        at += 1
        return Atom._parsed(label, dim)

    expr = type_(1)
    if tokens[at]:
        raise error(f"trailing input {tokens[at]!r}")
    return expr


def print_canonical(x: TypeExpr) -> str:
    """Render canonically: no spaces, inner arrows parenthesized.

    ``parse_type(print_canonical(x)) == x`` for every type expression, and
    ``print_canonical(parse_type(s)) == s`` for canonical strings ``s``.
    """
    if isinstance(x, Elementary):
        return "*".join(str(a) for a in x.atoms)
    if isinstance(x, Arrow):
        def wrap(sub: TypeExpr) -> str:
            rendered = print_canonical(sub)
            return f"({rendered})" if isinstance(sub, Arrow) else rendered

        return f"{wrap(x.tail)}->{wrap(x.head)}"
    raise TypeError(f"not a type expression: {x!r}")


# --------------------------------------------------------------------------
# structural queries
# --------------------------------------------------------------------------


def factor_dims(x: TypeExpr) -> tuple[int, ...]:
    """Dimension of every atom occurrence, in factor order: tails before
    heads, groups left to right (trivial ones included).  Each type node
    computes it once, when it is built."""
    return x.dims


def total_dim(x: TypeExpr) -> int:
    """Dimension of the full Hilbert space carrying events of type ``x``.
    Each type node computes it once, when it is built, from its atoms or as
    the product of its sides, so recursions that ask at every node stay
    linear in the tree."""
    return x.dim


def type_depth(x: TypeExpr) -> int:
    """Tree depth: an elementary layer has depth 1, an arrow 1 + max of its sides."""
    if isinstance(x, Elementary):
        return 1
    return 1 + max(type_depth(x.tail), type_depth(x.head))


# --------------------------------------------------------------------------
# constructors derived from the base language
# --------------------------------------------------------------------------


def bar(x: TypeExpr) -> TypeExpr:
    """The functional (dual) type ``x -> I``."""
    return Arrow(x, Elementary((Atom(TRIVIAL_LABEL, 1),)))


def tensor(x: TypeExpr, y: TypeExpr) -> TypeExpr:
    """Parallel composition, defined through double dualization: (x -> ȳ)̄ ."""
    return bar(Arrow(x, bar(y)))


def make_comb(bases: Sequence[TypeExpr]) -> TypeExpr:
    """Left-nested hierarchy over the given teeth.

    ``make_comb([x1])`` is ``x1``; ``make_comb([x1, .., xn])`` is
    ``((..(x1 -> x2) ..) -> xn)``.  An empty list is an error.
    """
    if not bases:
        raise ValueError("make_comb needs at least one base type")
    expr: TypeExpr = bases[0]
    for tooth in bases[1:]:
        expr = Arrow(expr, tooth)
    return expr

