import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflike.compositions import (
    Composition,
    _count_compositions,
    common_coarsenings,
    cut_points,
    enumerate_compositions,
    refines,
)
from hopflike.errors import InvalidPartsError, SumMismatchError


def brute_force_compositions(n):
    """Oracle: compositions of n from binary break-point patterns."""
    if n == 0:
        return [()]
    out = []
    for mask in range(1 << (n - 1)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        out.append(tuple(cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1)))
    return out


def brute_force_grouping(alpha, kappa):
    """Oracle: exhaustive search over run-length vectors."""
    k = len(kappa)
    if len(alpha) == 0:
        return () if k == 0 else None
    for cuts in itertools.combinations(range(1, k), len(alpha) - 1):
        bounds = (0,) + cuts + (k,)
        runs = [kappa[bounds[i]:bounds[i + 1]] for i in range(len(alpha))]
        if all(sum(run) == a for run, a in zip(runs, alpha)):
            return tuple(len(run) for run in runs)
    return None


def test_canonicalize_examples():
    assert Composition([2, 0, 3]).parts == (2, 3)
    assert Composition([0, 0]).parts == ()
    assert Composition([1, 2, 3]).parts == (1, 2, 3)


def test_canonicalize_rejects_negative():
    with pytest.raises(InvalidPartsError):
        Composition([2, -1])


@settings(derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=12), max_size=8))
def test_canonicalize_idempotent_and_sum_preserving(parts):
    c = Composition(parts)
    assert Composition(c.parts) == c
    assert c.sum == sum(parts)
    assert all(p > 0 for p in c.parts)


def test_refines_examples():
    assert refines(Composition([2, 2]), Composition([1, 1, 2])) == (2, 1)
    assert refines(Composition([4]), Composition([1, 3])) == (2,)
    assert refines(Composition([2, 2]), Composition([3, 1])) is None


def test_refines_sum_mismatch():
    with pytest.raises(SumMismatchError):
        refines(Composition([2]), Composition([3]))


def test_refines_against_exhaustive_search():
    for n in range(7):
        comps = [c.parts for c in enumerate_compositions(n)]
        for alpha in comps:
            for kappa in comps:
                got = refines(Composition(alpha), Composition(kappa))
                want = brute_force_grouping(alpha, kappa)
                assert got == want, (alpha, kappa)


def test_everything_refines_the_single_part():
    for n in range(1, 11):
        whole = Composition([n])
        for kappa in enumerate_compositions(n):
            assert refines(whole, kappa) is not None


def test_enumerate_matches_breakpoint_oracle():
    for n in range(9):
        got = [c.parts for c in enumerate_compositions(n)]
        want = sorted(brute_force_compositions(n), key=lambda t: (len(t), t))
        assert got == want


def test_enumerate_examples_and_counts():
    assert [c.parts for c in enumerate_compositions(3)] == [
        (3,), (1, 2), (2, 1), (1, 1, 1)
    ]
    assert enumerate_compositions(0) == [Composition()]
    assert len(enumerate_compositions(4)) == 8
    for n in range(1, 13):
        assert len(enumerate_compositions(n)) == 2 ** (n - 1)


def test_enumerate_respects_max_length():
    got = enumerate_compositions(4, 2)
    assert all(c.length <= 2 for c in got)
    assert Composition([1, 3]) in got
    assert Composition([1, 1, 2]) not in got


def test_count_matches_enumeration():
    for n in range(12):
        for cap in (None, *range(13)):
            count = len(enumerate_compositions(n, cap))
            assert _count_compositions(n, cap) == count, (n, cap)
            for stop in (0, 3, 40):
                got = _count_compositions(n, cap, stop)
                assert got == count if count <= stop else count >= got > stop
    assert _count_compositions(10**12, 1, stop=10) == 1
    assert _count_compositions(10**12, stop=10) > 10
    with pytest.raises(InvalidPartsError):
        _count_compositions(-1)


def test_common_coarsenings():
    alpha = Composition([1, 1, 2])
    beta = Composition([2, 2])
    out = common_coarsenings(alpha, beta)
    assert Composition([4]) in out
    assert Composition([2, 2]) in out
    assert len(out) == 2  # shared interior cut only at 2
    assert cut_points(alpha) & cut_points(beta) == {2}


def test_composition_str_forms():
    assert str(Composition([2, 3, 4])) == "(2,3,4)"
    assert str(Composition()) == "()"
