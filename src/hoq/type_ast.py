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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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
    "extend_by",
    "bar",
    "tensor",
    "make_comb",
    "k_exponents",
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


class ParseError(ValueError):
    """Raised when a type string violates the grammar.

    Carries the zero-based character ``position`` at which the problem was
    detected, so the CLI can point at the offending character.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Atom:
    """One elementary system: a label and a Hilbert-space dimension.

    The trivial system is exactly ``Atom("I", 1)``; the invariant
    ``dim == 1  <=>  label == "I"`` keeps the canonical printer total
    (a one-dimensional atom always prints as ``I``).
    """

    label: str
    dim: int = 2

    def __post_init__(self) -> None:
        if not _LABEL.fullmatch(self.label):
            raise ValueError(f"bad atom label {self.label!r}")
        if self.dim < 1:
            raise ValueError(f"atom dimension must be >= 1, got {self.dim}")
        if (self.dim == 1) != (self.label == TRIVIAL_LABEL):
            raise ValueError(
                f"label {self.label!r} with dim {self.dim}: dimension 1 is "
                f"reserved for the trivial label {TRIVIAL_LABEL!r} and vice versa"
            )

    def __str__(self) -> str:
        if self.dim == 1:
            return TRIVIAL_LABEL
        return f"{self.label}:{self.dim}"


@dataclass(frozen=True)
class Elementary:
    """An elementary layer: a nonempty group of atoms, written A:2*B:3."""

    atoms: tuple[Atom, ...]
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("elementary type needs at least one atom")
        object.__setattr__(self, "dims", tuple(a.dim for a in self.atoms))

    def __str__(self) -> str:
        return print_canonical(self)


@dataclass(frozen=True)
class Arrow:
    """The map type ``tail -> head``."""

    tail: "TypeExpr"
    head: "TypeExpr"
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", self.tail.dims + self.head.dims)

    def __str__(self) -> str:
        return print_canonical(self)


TypeExpr = Union[Elementary, Arrow]


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
            return Atom(label, 1 if label == TRIVIAL_LABEL else 2)
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
        return Atom(label, dim)

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
    """Dimension of the full Hilbert space carrying events of type ``x``."""
    return prod(x.dims)


def type_depth(x: TypeExpr) -> int:
    """Tree depth: an elementary layer has depth 1, an arrow 1 + max of its sides."""
    if isinstance(x, Elementary):
        return 1
    return 1 + max(type_depth(x.tail), type_depth(x.head))


# --------------------------------------------------------------------------
# constructors derived from the base language
# --------------------------------------------------------------------------


def extend_by(x: TypeExpr, extra: Atom) -> TypeExpr:
    """Adjoin a bystander system to the innermost output layer.

    For an elementary layer the atom is appended to the group; for an arrow
    the extension recurses into the head, so the new atom always lands on the
    final output and is the last factor in print order.
    """
    if isinstance(x, Elementary):
        return Elementary(x.atoms + (extra,))
    return Arrow(x.tail, extend_by(x.head, extra))


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


def k_exponents(x: TypeExpr) -> tuple[int, ...]:
    """Exponent pattern of the identity-coefficient closed form.

    Returns one bit per atom occurrence (factor order) such that
    ``prod(d_i ** -k_i) == lambda(x)`` exactly.  Equivalently: in the
    canonical rendering, k_i = (number of "->" plus "(" strictly to the
    right of atom i, plus one) mod 2.  Computed structurally: every atom of
    an elementary layer carries 1; an arrow flips the tail's exponents and
    keeps the head's.
    """
    if isinstance(x, Elementary):
        return (1,) * len(x.atoms)
    flipped = tuple(1 - k for k in k_exponents(x.tail))
    return flipped + k_exponents(x.head)
