"""Seeded random types for the benchmark, kept apart from the package.

Types are tuples: ``("E", ((label, dim), ...))`` for an elementary layer and
``("A", tail, head)`` for an arrow.  They are handed to hoq only as canonical
text, so the package under test does the parsing.  The generator follows the
shape of the random types the test suite uses (arrow with probability 0.6 up
to the depth budget, one or two atoms per layer, fresh labels), without the
hypothesis dependency.

The known answers that do not come from the package live here too: the
identity coefficient by the exponent closed form, and the index-set sizes of
uniform combs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count
from string import ascii_uppercase

LABELS = [c for c in ascii_uppercase if c != "I"]
TRIVIAL = ("E", (("I", 1),))

# |Delta| of uniform combs at every tooth count, full factor positions; the
# closed form and the recursion of the package agree on them.
COMB_DELTA_SIZES = {
    "A:2->B:2": {n: 2 * (4**n - 1) // 3 for n in range(1, 9)},
    "(A:2->B:2)->C:2": {1: 5, 2: 46, 3: 371, 4: 2980, 5: 23825, 6: 190666},
}


def random_type(rng: random.Random, max_depth: int, dims=(1, 2, 3), p_arrow=0.6):
    counter = count()

    def fresh_atom():
        d = rng.choice(dims)
        if d == 1:
            return ("I", 1)
        i = next(counter)
        return (LABELS[i % len(LABELS)] * (1 + i // len(LABELS)), d)

    def build(budget):
        if budget <= 1 or rng.random() >= p_arrow:
            width = 2 if rng.random() < 0.25 else 1
            return ("E", tuple(fresh_atom() for _ in range(width)))
        return ("A", build(budget - 1), build(budget - 1))

    return build(max_depth)


def render(t) -> str:
    """Canonical text: no spaces, every inner arrow parenthesized."""
    if t[0] == "E":
        return "*".join("I" if d == 1 else f"{label}:{d}" for label, d in t[1])

    def wrap(sub):
        return f"({render(sub)})" if sub[0] == "A" else render(sub)

    return f"{wrap(t[1])}->{wrap(t[2])}"


def layer(label: str, d: int):
    """An elementary layer of one atom."""
    return ("E", ((label, d),))


def arrow(x, y):
    return ("A", x, y)


def bar(x):
    return ("A", x, TRIVIAL)


def tensor(x, y):
    return bar(arrow(x, bar(y)))


def extend_by(x, atom):
    """Adjoin a bystander atom to the innermost output layer."""
    if x[0] == "E":
        return ("E", x[1] + (atom,))
    return ("A", x[1], extend_by(x[2], atom))


def atoms(t):
    if t[0] == "E":
        return list(t[1])
    return atoms(t[1]) + atoms(t[2])


def factor_count(t) -> int:
    return len(atoms(t))


def nontrivial_count(t) -> int:
    return sum(1 for _, d in atoms(t) if d > 1)


def k_exponents(t):
    if t[0] == "E":
        return [1] * len(t[1])
    return [1 - k for k in k_exponents(t[1])] + k_exponents(t[2])


def lambda_closed(t) -> Fraction:
    """Identity coefficient by the exponent closed form, prod d_i^-k_i."""
    out = Fraction(1)
    for (_, d), k in zip(atoms(t), k_exponents(t)):
        if k:
            out /= d
    return out


def comb(base, n: int):
    out = base
    for _ in range(n - 1):
        out = ("A", out, base)
    return out
