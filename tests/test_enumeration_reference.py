"""enumerate_types against the generate-then-dedupe enumerator it replaced.

The reference below builds every arrow tree over distinguishable leaves,
so it builds each relabelling of identical trivial leaves, then prints every
tree and keeps the first of each printed form.  The package builds each
distinct tree once; both must give the same candidates and the same search
results on a grid of small specs.
"""

from fractions import Fraction
from functools import cache

import pytest

from hoq.inverse_search import (
    SearchSpec,
    enumerate_types,
    estimate_candidates,
    inverse_search,
)
from hoq.semantics import delta_dimension, find_alignment, upsilon
from hoq.subspace_algebra import StringSet, dim_of_delta, permute
from hoq.type_ast import Arrow, Atom, Elementary, parse_type, print_canonical

LABELS = "ABCDEFGH"

# Each grid row searches for the index set of one of these types with its
# factor order reversed, so that some rows match only up to a permutation.
GRID = [
    "A:2",
    "A:3->I",
    "A:2->B:2",
    "A:3->B:2",
    "(A:2->B:2)->C:2",
    "(A:2->B:2)->(C:2->D:2)",
]


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def reference_types(spec):
    """Printed form -> tree, keeping the first tree built for each form."""

    @cache
    def trees_over(leaves, max_depth):
        """Every arrow tree using each (distinguishable) leaf once."""
        if len(leaves) == 1:
            return leaves if max_depth >= 1 else ()
        if max_depth < 2:
            return ()
        out = []
        for mask in range(1, (1 << len(leaves)) - 1):
            tail = tuple(x for i, x in enumerate(leaves) if mask >> i & 1)
            head = tuple(x for i, x in enumerate(leaves) if not mask >> i & 1)
            for t in trees_over(tail, max_depth - 1):
                for h in trees_over(head, max_depth - 1):
                    out.append(Arrow(t, h))
        return out

    atoms = [Atom(LABELS[i], d) for i, d in enumerate(spec.dims)]
    trivial = Elementary((Atom("I", 1),))
    seen = {}
    for part in set_partitions(list(range(len(atoms)))):
        blocks = [Elementary(tuple(atoms[i] for i in sorted(b))) for b in part]
        for extra in range(spec.max_trivial_leaves + 1):
            leaves = tuple(blocks + [trivial] * extra)
            for tree in trees_over(leaves, spec.max_depth):
                seen.setdefault(print_canonical(tree), tree)
    return seen


def reference_search(spec, candidates):
    """The search's match rule with both of its tests written out, over
    (text, delta_dimension, upsilon or None when pruned) triples."""
    target_dim = dim_of_delta(spec.target, spec.dims)
    matches, pruned = set(), 0
    for text, dim, sem in candidates:
        if dim != target_dim:
            pruned += 1
            continue
        if spec.target_lambda is not None and sem.lambda_ != spec.target_lambda:
            continue
        if tuple(sem.dims) == spec.dims and sem.delta == spec.target:
            matches.add(text)
        elif spec.allow_permutations and find_alignment(
            sem.delta, tuple(sem.dims), spec.target, spec.dims
        ) is not None:
            matches.add(text)
    return tuple(sorted(matches)), True, pruned


@pytest.mark.parametrize("text", GRID)
def test_enumeration_matches_the_dedupe_reference(text):
    sem = upsilon(parse_type(text))
    k = len(sem.dims)
    dims = tuple(reversed(sem.dims))
    target = permute(sem.delta, tuple(reversed(range(k))))
    for depth in range(1, 5):
        for trivial in range(4):
            spec = SearchSpec(dims=dims, target=target, max_depth=depth,
                              max_trivial_leaves=trivial)
            texts = [print_canonical(t) for t in enumerate_types(spec)]
            reference = reference_types(spec)
            assert len(texts) == len(set(texts))
            assert set(texts) == set(reference)
            assert len(texts) <= estimate_candidates(spec)
            dim_of = {t: delta_dimension(x) for t, x in reference.items()}
            wanted = dim_of_delta(target, dims)
            rows = [(t, dim_of[t], upsilon(x) if dim_of[t] == wanted else None)
                    for t, x in reference.items()]
            for kw in ({}, {"allow_permutations": True},
                       {"target_lambda": sem.lambda_}):
                variant = SearchSpec(dims=dims, target=target, max_depth=depth,
                                     max_trivial_leaves=trivial, **kw)
                got = inverse_search(variant)
                assert (got.matches, got.exhausted, got.pruned_count) == (
                    reference_search(variant, rows)
                ), (variant, kw)


def test_grid_finds_permuted_and_lambda_filtered_matches():
    """The search variants are not vacuous: a reversed channel matches only
    up to a permutation, and a wrong lambda removes every match."""
    base = dict(dims=(2, 3), max_depth=2, max_trivial_leaves=0)
    forward = upsilon(parse_type("A:2->B:3")).delta
    backward = StringSet.from_bitstrings(2, ["00", "01"])
    assert inverse_search(SearchSpec(target=forward, **base)).matches == (
        "A:2->B:3",)
    assert inverse_search(SearchSpec(target=backward, **base)).matches == ()
    assert inverse_search(
        SearchSpec(target=backward, allow_permutations=True, **base)
    ).matches == ("B:3->A:2",)
    assert inverse_search(
        SearchSpec(target=forward, target_lambda=Fraction(1, 7), **base)
    ).matches == ()
