"""Named higher-order objects, each built from its textbook definition.

Every object comes with the verdicts that its source states, as claims that
tests/test_corpus.py checks against hoq and against the definitional hull of
tests/oracles.py. Everything is built in memory; nothing here reads a file.

Matrices over qubits index their rows by bit tuples, the first factor most
significant: QUBITS4 lists the 16 rows of a four-qubit matrix in order.

The PR box (Popescu & Rohrlich 1994) is deterministic for the tensor of two
qubit channels, yet no mixture of product channels. The certificate is the
CHSH game (Clauser, Horne, Shimony & Holt 1969): see chsh_score.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Iterator, Optional, Sequence

import numpy as np

from hoq.type_ast import TypeExpr, bar, parse_type, tensor

QUBITS4 = tuple(product(range(2), repeat=4))


@dataclass(frozen=True)
class Claim:
    """One verdict of check_deterministic, as the source states it.

    ``perm`` gathers the object's factors into the type's factor order
    (see reorder_factors); None keeps them. A type that rejects the object
    names in ``outside`` one block, labelled in the object's own factor
    order, that lies outside its Delta and carries the object's whole
    residual."""

    label: str
    type: TypeExpr
    deterministic: bool
    perm: Optional[tuple[int, ...]] = None
    outside: Optional[str] = None


@dataclass(frozen=True)
class NamedObject:
    """A matrix over ``dims``, the claims about it and where they are stated."""

    name: str
    source: str
    dims: tuple[int, ...]
    matrix: np.ndarray
    claims: tuple[Claim, ...]


# -- the PR box ---------------------------------------------------------------


def pr_box() -> list[Fraction]:
    """P(x, y | a, b) of the PR box, over (a, x, b, y) in QUBITS4 order:
    uniform outputs with x XOR y = a AND b."""
    return [
        Fraction(1, 2) if x ^ y == a & b else Fraction(0) for a, x, b, y in QUBITS4
    ]


def local_deterministic_boxes() -> Iterator[list[Fraction]]:
    """The 16 products p1(x|a) p2(y|b) of deterministic responses x = f(a)
    and y = g(b), over (a, x, b, y) in QUBITS4 order."""
    responses = list(product(range(2), repeat=2))  # f as (f(0), f(1))
    for f, g in product(responses, repeat=2):
        yield [Fraction(int(x == f[a] and y == g[b])) for a, x, b, y in QUBITS4]


def chsh_score(diagonal: Sequence) -> Fraction | float:
    """S(M) = Tr[G M] with G = 1/4 sum over x XOR y = a AND b of
    |a x b y><a x b y|, read from the diagonal of M over (A, B, C, D) =
    (a, x, b, y): the probability of winning the CHSH game on uniform
    questions a, b. Exact on Fractions.

    No mixture of product channels scores above 3/4:
      * for channels N1: A -> B and N2: C -> D, the diagonal of the Choi
        matrix of N1 (x) N2 in this layout is p1(x|a) p2(y|b), where
        p1(x|a) = <x|N1(|a><a|)|x> and p2 are conditional distributions;
      * S is linear in each of p1 and p2, so its largest value over product
        channels is reached at deterministic p1 and p2. There are 16 such
        pairs (local_deterministic_boxes), and their maximum is exactly 3/4;
      * S is linear, so every mixture of product channels scores at most
        3/4 too. The PR box scores 1.
    """
    wins = (p for p, (a, x, b, y) in zip(diagonal, QUBITS4) if x ^ y == a & b)
    return sum(wins, Fraction(0)) / 4


PR_BOX = NamedObject(
    name="PR box",
    source="Popescu & Rohrlich, Found. Phys. 24, 379 (1994)",
    dims=(2, 2, 2, 2),
    matrix=np.diag(np.array(pr_box(), dtype=float)),
    claims=(
        Claim(
            "channel pair",
            tensor(parse_type("A:2->B:2"), parse_type("C:2->D:2")),
            True,
        ),
    ),
)


# -- the OCB process ----------------------------------------------------------


def ocb_process() -> np.ndarray:
    """W = 1/4 [I + (Z^A2 Z^B1 + Z^A1 X^B1 Z^B2) / sqrt 2] over (A1, A2, B1,
    B2): a valid two-party process with no definite causal order."""
    i, z, x = np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])

    def pauli(*factors: np.ndarray) -> np.ndarray:
        return reduce(np.kron, factors)

    signalling = (pauli(i, z, z, i) + pauli(z, i, x, z)) / np.sqrt(2)
    return (pauli(i, i, i, i) + signalling) / 4


OCB = NamedObject(
    name="OCB process",
    source="Oreshkov, Costa & Brukner, Nat. Commun. 3, 1092 (2012)",
    dims=(2, 2, 2, 2),
    matrix=ocb_process(),
    claims=(
        Claim("process", parse_type("(A:2->B:2)->((C:2->D:2)->I)"), True),
        # the term Z^A1 X^B1 Z^B2 lets B's output reach A
        Claim(
            "A before B",
            tensor(parse_type("(A:2->B:2)->C:2"), bar(parse_type("D:2"))),
            False,
            outside="0100",
        ),
        # the term Z^A2 Z^B1 lets A's output reach B
        Claim(
            "B before A",
            tensor(parse_type("(C:2->D:2)->A:2"), bar(parse_type("B:2"))),
            False,
            perm=(2, 3, 0, 1),
            outside="1001",
        ),
    ),
)


CORPUS = (PR_BOX, OCB)
