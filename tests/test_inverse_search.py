"""Bounded inverse characterization: enumerate types hitting a target set."""

from fractions import Fraction

import pytest

from hoq.inverse_search import (
    EnumerationCapExceeded,
    SearchResult,
    SearchSpec,
    enumerate_types,
    estimate_candidates,
    inverse_search,
)
from hoq.semantics import upsilon
from hoq.subspace_algebra import StringSet
from hoq.type_ast import parse_type, print_canonical


def target(dims, bitstrings):
    return StringSet.from_bitstrings(len(dims), bitstrings)


def spec_for(dims, bitstrings, **kw):
    return SearchSpec(dims=tuple(dims), target=target(dims, bitstrings), **kw)


# -- contract examples (frozen from spot runs of the engine itself; each is
#    independently confirmed by upsilon on the reported matches below) -------


def test_state_target():
    res = inverse_search(spec_for((2,), ["0"], max_depth=2))
    assert res.matches == ("A:2", "I->A:2")
    assert res.exhausted
    deeper = inverse_search(spec_for((2,), ["0"], max_depth=3))
    assert deeper.matches == (
        "(A:2->I)->I",
        "(I->I)->A:2",
        "A:2",
        "I->(I->A:2)",
        "I->A:2",
    )


def test_effect_target():
    res = inverse_search(spec_for((2,), [], max_depth=2))
    assert res.matches == ("A:2->I",)
    assert res.exhausted


def test_channel_target():
    res = inverse_search(spec_for((2, 2), ["00", "10"], max_depth=3))
    assert "A:2->B:2" in res.matches
    for text in res.matches:
        sem = upsilon(parse_type(text))
        assert sem.delta.as_bitstrings() == ["00", "10"]
        assert tuple(sem.dims) == (2, 2)


def test_no_type_hits_isolated_corner():
    # the lone traceless-traceless string is unreachable at the given bounds
    res = inverse_search(
        spec_for((2, 2), ["00"], max_depth=4, max_trivial_leaves=2)
    )
    assert res.matches == ()
    assert res.exhausted
    assert res.pruned_count > 0


def test_lambda_filter():
    base = spec_for((2, 2), ["00", "10"], max_depth=3)
    keep = inverse_search(
        spec_for(
            (2, 2),
            ["00", "10"],
            max_depth=3,
            target_lambda=Fraction(1, 2),
        )
    )
    drop = inverse_search(
        spec_for(
            (2, 2),
            ["00", "10"],
            max_depth=3,
            target_lambda=Fraction(7),
        )
    )
    unfiltered = inverse_search(base)
    assert set(keep.matches) <= set(unfiltered.matches)
    assert keep.matches  # the channel survives its own lambda
    assert drop.matches == ()
    for text in keep.matches:
        assert upsilon(parse_type(text)).lambda_ == Fraction(1, 2)


def test_permutation_mode_widens_matches():
    from hoq.semantics import find_alignment

    spec = spec_for((2, 3), ["00", "01"], max_depth=3)
    strict = inverse_search(spec)
    wide = inverse_search(
        spec_for(
            (2, 3), ["00", "01"], max_depth=3, allow_permutations=True
        )
    )
    assert strict.matches == ("(A:2->I)->(B:3->I)",)
    assert set(wide.matches) == {
        "(A:2->I)->(B:3->I)",
        "(I->B:3)->(I->A:2)",
        "(I->B:3)->A:2",
        "(I->I)->(B:3->A:2)",
        "B:3->(I->A:2)",
        "B:3->A:2",
        "I->(B:3->A:2)",
    }
    assert set(strict.matches) <= set(wide.matches)
    # every wide match aligns onto the target under some factor permutation
    for text in wide.matches:
        sem = upsilon(parse_type(text))
        assert (
            find_alignment(sem.delta, tuple(sem.dims), spec.target, spec.dims)
            is not None
        )


# -- bounded completeness ----------------------------------------------------


def all_two_factor_targets():
    # every subset of {00, 01, 10} (the all-identity string is excluded)
    import itertools

    for r in range(4):
        for combo in itertools.combinations(["00", "01", "10"], r):
            yield list(combo)


@pytest.mark.parametrize("bitstrings", list(all_two_factor_targets()))
def test_pruning_never_loses_matches(bitstrings):
    spec = spec_for((2, 2), bitstrings, max_depth=3)
    pruned = inverse_search(spec)
    # the unpruned search: upsilon on every candidate
    unpruned = []
    for cand in enumerate_types(spec):
        sem = upsilon(cand)
        if tuple(sem.dims) == spec.dims and sem.delta == spec.target:
            unpruned.append(print_canonical(cand))
    assert pruned.matches == tuple(sorted(unpruned))
    assert pruned.exhausted


def test_enumeration_has_no_duplicates():
    spec = spec_for((2, 2), ["00"], max_depth=3)
    seen = [print_canonical(t) for t in enumerate_types(spec)]
    assert len(seen) == len(set(seen))


def test_estimate_bounds_actual_count():
    for depth in (2, 3):
        spec = spec_for((2, 2), ["00"], max_depth=depth)
        actual = sum(1 for _ in enumerate_types(spec))
        assert actual <= estimate_candidates(spec)


# -- caps and validation -------------------------------------------------------


def test_cap_raises_before_first_candidate(monkeypatch):
    monkeypatch.setattr("hoq.inverse_search.ENUMERATION_CAP", 3)
    spec = spec_for((2, 2), ["00"], max_depth=4)
    assert estimate_candidates(spec) > 3
    gen = enumerate_types(spec)
    with pytest.raises(EnumerationCapExceeded):
        next(gen)


def test_capped_search_reports_not_exhausted(monkeypatch):
    monkeypatch.setattr("hoq.inverse_search.ENUMERATION_CAP", 3)
    spec = spec_for((2, 2), ["00"], max_depth=4)
    res = inverse_search(spec)
    assert isinstance(res, SearchResult)
    assert res.matches == ()
    assert not res.exhausted


def test_progress_callback_fires():
    calls = []
    spec = spec_for((2, 2), ["00"], max_depth=3)
    inverse_search(spec, progress=lambda e, p: calls.append((e, p)))
    assert calls
    examined, pruned = calls[-1]
    assert examined > 0 and pruned >= 0


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_for((), [], max_depth=2)
    with pytest.raises(ValueError):
        spec_for((1, 2), ["00"], max_depth=2)
    with pytest.raises(ValueError):
        spec_for((2,), ["0", "00"], max_depth=2)
    with pytest.raises(ValueError):
        spec_for((2, 2), ["11"], max_depth=2)  # all-identity string
    with pytest.raises(ValueError):
        SearchSpec(dims=(2,), target=StringSet(2, ()), max_depth=2)  # target length
    with pytest.raises(ValueError):
        spec_for((2,), ["0"], max_depth=0)
    with pytest.raises(ValueError):
        spec_for((2,), ["0"], max_depth=2, max_trivial_leaves=-1)
    with pytest.raises(ValueError):
        spec_for((2,), ["0"], max_depth=2, target_lambda=Fraction(0))
    with pytest.raises(TypeError):
        SearchSpec(dims=(2,), target="0", max_depth=2)


def test_result_json_shape():
    res = inverse_search(spec_for((2,), ["0"], max_depth=2))
    obj = res.to_json_obj()
    assert obj["matches"] == ["A:2", "I->A:2"]
    assert obj["exhausted"] is True
    assert isinstance(obj["pruned_count"], int)
