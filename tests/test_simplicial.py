import hashlib
import itertools

import pytest

from hopflike.errors import IndexRangeError
from hopflike.simplicial import (
    MonotoneMap,
    degeneracy,
    face,
    identity,
    identity_check_count,
    verify_simplicial_identities,
)


def all_monotone_maps(n, m):
    """Oracle: every weakly increasing table [n] -> [m]."""
    return [
        MonotoneMap(n, m, t)
        for t in itertools.combinations_with_replacement(range(m + 1), n + 1)
    ]


def test_face_examples():
    assert face(2, 0).table == (1, 2)
    assert face(1, 1).table == (0,)
    assert face(3, 2).table == (0, 1, 3)


def test_degeneracy_examples():
    assert degeneracy(0, 0).table == (0, 0)
    assert degeneracy(1, 0).table == (0, 0, 1)
    assert degeneracy(2, 1).table == (0, 1, 1, 2)


def test_index_range_errors():
    with pytest.raises(IndexRangeError):
        face(2, 3)
    with pytest.raises(IndexRangeError):
        degeneracy(2, -1)
    with pytest.raises(IndexRangeError):
        MonotoneMap(1, 1, (1, 0))


def test_face_is_injection_missing_i():
    for n in range(1, 6):
        for i in range(n + 1):
            f = face(n, i)
            assert sorted(set(f.table)) == list(f.table)
            assert set(range(n + 1)) - set(f.table) == {i}


def test_degeneracy_is_surjection_hitting_i_twice():
    for n in range(6):
        for i in range(n + 1):
            s = degeneracy(n, i)
            assert set(s.table) == set(range(n + 1))
            assert s.table.count(i) == 2


def test_sweep_passes():
    report = verify_simplicial_identities(1)
    assert report.passed and report.checked > 0
    report = verify_simplicial_identities(6)
    assert report.passed
    assert report.checked > 100


@pytest.mark.parametrize("max_n", [1, 2, 3, 6, 10, 20])
def test_check_count_is_the_sweeps(max_n):
    # both sides are cubics in max_n from 2 on, so five points pin them
    assert identity_check_count(max_n) == verify_simplicial_identities(max_n).checked


def test_corrupted_face_is_caught_and_named():
    def bad_face(n, i):
        if (n, i) == (2, 1):
            return MonotoneMap(1, 2, (0, 1))  # should be (0, 2)
        return face(n, i)

    report = verify_simplicial_identities(3, face_fn=bad_face)
    assert not report.passed
    assert any("d_i d_j" in f.witness or "d_i s_j" in f.witness
               for f in report.failures)


def _face_fault(n, i):
    if (n, i) == (2, 1):
        return MonotoneMap(1, 2, (0, 1))  # should be (0, 2)
    return face(n, i)


def _degeneracy_fault(n, i):
    if (n, i) == (1, 0):
        return MonotoneMap(2, 1, (0, 1, 1))  # should be (0, 0, 1)
    return degeneracy(n, i)


# Count, first instance and whole-report digest, as the sweep that
# composed MonotoneMaps through ``after`` reported them.
@pytest.mark.parametrize("faults, count, first, sha", [
    (dict(face_fn=_face_fault), 7,
     "d_i d_j = d_(j-1) d_i (i<j) at n=2, i=0, j=1",
     "4c0b027a0476b5e54a5b94dbd094a890c2e230dd2be6085b85cd426d05d9c675"),
    (dict(degeneracy_fn=_degeneracy_fault), 7,
     "d_i s_j = s_(j-1) d_i (i<j) at n=2, i=0, j=1",
     "b93b1ab18c8610b573ce61f3e69b8ccc7099c9e54aaea72d5c2c56d35496dded"),
], ids=["face", "degeneracy"])
def test_sweep_fails_on_either_operator(faults, count, first, sha):
    report = verify_simplicial_identities(4, **faults)
    assert len(report.failures) == count
    assert report.failures[0].instance == first
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == sha


def test_each_operator_is_built_once_per_index():
    calls = []

    def counted(fn):
        def build(n, i):
            calls.append((fn, n, i))
            return fn(n, i)
        return build

    verify_simplicial_identities(
        4, face_fn=counted(face), degeneracy_fn=counted(degeneracy)
    )
    assert len(calls) == len(set(calls))
    assert [sum(fn is f for fn, _, _ in calls) for f in (face, degeneracy)] == [20, 21]


def test_operator_of_the_wrong_signature_is_refused():
    # Each table's signature is checked once, when it is built.  The sweep
    # that composed through ``after`` raised here too, without naming it.
    def bad_face(n, i):
        if (n, i) == (2, 1):
            return MonotoneMap(1, 3, (0, 2))  # [1] -> [3], not [1] -> [2]
        return face(n, i)

    with pytest.raises(IndexRangeError, match=r"face \(2,1\)"):
        verify_simplicial_identities(4, face_fn=bad_face)


def test_composition_associative_and_identity_neutral():
    # associativity exhaustively on small ordinals; identity up to [5]
    sizes = range(3)
    for a, b, c, d in itertools.product(sizes, repeat=4):
        for f in all_monotone_maps(a, b):
            for g in all_monotone_maps(b, c):
                for h in all_monotone_maps(c, d):
                    assert h.after(g.after(f)) == (h.after(g)).after(f)
    for a in range(6):
        for b in range(6):
            for f in all_monotone_maps(a, b):
                assert f.after(identity(a)) == f
                assert identity(b).after(f) == f


def epi_mono_factor(f):
    """Factor f as degeneracies followed by faces, by direct search."""
    image = sorted(set(f.table))
    k = len(image) - 1
    epi_table = [image.index(v) for v in f.table]
    # peel degeneracies off the surjection
    chain = []
    current = list(epi_table)
    level = f.domain
    while level > k:
        i = next(
            idx for idx in range(len(current) - 1)
            if current[idx] == current[idx + 1]
        )
        chain.append(degeneracy(level - 1, i))
        del current[i]
        level -= 1
    epi = identity(f.domain)
    for s in chain:
        epi = s.after(epi)
    mono = identity(k)
    for j in sorted(set(range(f.codomain + 1)) - set(image)):
        mono = face(mono.codomain + 1, j).after(mono)
    return epi, mono


def test_epi_mono_factorization():
    for n in range(5):
        for m in range(5):
            for f in all_monotone_maps(n, m):
                epi, mono = epi_mono_factor(f)
                assert mono.after(epi) == f
