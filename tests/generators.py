"""Random type expressions shared by the property tests."""

from __future__ import annotations

import random
from itertools import count
from string import ascii_uppercase

import hypothesis.strategies as st

from hoq.type_ast import Arrow, Atom, Elementary, TypeExpr

LABELS = [c for c in ascii_uppercase if c != "I"]
DIM_POOL = (1, 2, 3, 5)


def random_type(
    rng: random.Random,
    max_depth: int,
    dims: tuple[int, ...] = DIM_POOL,
    p_arrow: float = 0.6,
) -> TypeExpr:
    """Seeded random type of depth <= max_depth with fresh-ish labels."""
    counter = count()

    def fresh_atom() -> Atom:
        d = rng.choice(dims)
        if d == 1:
            return Atom("I", 1)
        i = next(counter)
        label = LABELS[i % len(LABELS)] * (1 + i // len(LABELS))
        return Atom(label, d)

    def build(budget: int) -> TypeExpr:
        if budget <= 1 or rng.random() >= p_arrow:
            width = 2 if rng.random() < 0.25 else 1
            return Elementary(tuple(fresh_atom() for _ in range(width)))
        return Arrow(build(budget - 1), build(budget - 1))

    return build(max_depth)


def nested_trivial(depth: int) -> tuple[str, str]:
    """All-trivial type texts of the given depth: right- and left-nested."""
    left = "I"
    for _ in range(depth - 1):
        left = f"({left})->I"
    return "->".join(["I"] * depth), left


def _atom_strategy(dims: tuple[int, ...]) -> st.SearchStrategy[Atom]:
    def mk(d: int, i: int) -> Atom:
        if d == 1:
            return Atom("I", 1)
        return Atom(LABELS[i % len(LABELS)], d)

    return st.builds(mk, st.sampled_from(dims), st.integers(0, len(LABELS) - 1))


def type_strategy(
    dims: tuple[int, ...] = DIM_POOL, max_leaves: int = 6
) -> st.SearchStrategy[TypeExpr]:
    """Hypothesis strategy over type expressions (labels may repeat)."""
    elementary = st.builds(
        Elementary,
        st.lists(_atom_strategy(dims), min_size=1, max_size=2).map(tuple),
    )
    return st.recursive(
        elementary,
        lambda children: st.builds(Arrow, children, children),
        max_leaves=max_leaves,
    )
