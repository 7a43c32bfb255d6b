import itertools

import pytest

from hopflike import contingency
from hopflike.compositions import Composition, enumerate_compositions
from hopflike.contingency import (
    ContingencyMatrix,
    _count,
    count_matrices,
    enumerate_matrices,
    kappa,
    sigma_K,
    slot_sources,
)
from hopflike.errors import HopflikeError, SumMismatchError
from hopflike.symfunc import partitions_of
from reference import _factoring_matrices, margins, transpose


def brute_force_matrices(alpha, beta, positive=False):
    """Oracle: filter the full entry grid by margin equations."""
    r, s = len(alpha), len(beta)
    lo = 1 if positive else 0
    out = []
    ranges = [range(lo, min(alpha[i // s], beta[i % s]) + 1) for i in range(r * s)]
    for flat in itertools.product(*ranges):
        rows = [flat[i * s:(i + 1) * s] for i in range(r)]
        if all(sum(row) == a for row, a in zip(rows, alpha)) and all(
            sum(rows[i][j] for i in range(r)) == beta[j] for j in range(s)
        ):
            out.append(tuple(map(tuple, rows)))
    return out


def test_enumerate_examples():
    got = enumerate_matrices(Composition([1, 1]), Composition([1, 1]))
    assert [m.entries for m in got] == [((1, 0), (0, 1)), ((0, 1), (1, 0))]
    got = enumerate_matrices(Composition([2]), Composition([2]))
    assert [m.entries for m in got] == [((2,),)]
    got = enumerate_matrices(Composition([2, 2]), Composition([2, 2]))
    assert len(got) == 3
    assert sorted(m.entries[0][0] for m in got) == [0, 1, 2]


def test_enumerate_margin_mismatch():
    with pytest.raises(SumMismatchError):
        enumerate_matrices(Composition([2]), Composition([3]))


def test_enumerate_order_is_descending_row_major():
    for alpha, beta in [((2, 2), (2, 2)), ((1, 2), (2, 1)), ((3, 1), (1, 1, 2))]:
        got = enumerate_matrices(Composition(alpha), Composition(beta))
        flats = [tuple(v for row in m.entries for v in row) for m in got]
        assert flats == sorted(flats, reverse=True)


def test_row_memo_lives_for_one_enumeration():
    # two enumerations in flight at once, over margins whose rows meet the
    # same (total, caps) keys, each yield their own matrices in order
    pairs = [((2, 2, 1), (1, 2, 2), "nonnegative"), ((5, 4, 4), (4, 5, 4), "strictly-positive")]
    want = [enumerate_matrices(*pair) for pair in pairs]
    running = [contingency._matrices(*pair) for pair in pairs]
    got = [[], []]
    for step in itertools.zip_longest(*running):
        for out, K in zip(got, step):
            if K is not None:
                out.append(K)
    assert got == want and all(len(w) > 1 for w in want)
    # the memo is each enumeration's own: no module-level dict or cache
    assert not [
        name for name, value in vars(contingency).items()
        if not name.startswith("__") and isinstance(value, dict)
    ]
    assert not hasattr(contingency._rows, "cache_info")


def test_enumerate_against_brute_force():
    # the full-grid oracle is exponential in r*s, so cap the grid size
    for n in range(6):
        comps = [c.parts for c in enumerate_compositions(n)]
        for alpha in comps:
            for beta in comps:
                if len(alpha) * len(beta) > 9:
                    continue
                got = {m.entries for m in enumerate_matrices(alpha, beta)}
                want = set(brute_force_matrices(alpha, beta))
                assert got == want, (alpha, beta)
                gotp = {
                    m.entries
                    for m in enumerate_matrices(alpha, beta, "strictly-positive")
                }
                wantp = set(brute_force_matrices(alpha, beta, positive=True))
                assert gotp == wantp, (alpha, beta)
    for alpha, beta in [((2, 2, 1), (1, 1, 1, 1, 1)), ((3, 3), (1, 2, 2, 1))]:
        got = {m.entries for m in enumerate_matrices(alpha, beta)}
        assert got == set(brute_force_matrices(alpha, beta))


def test_count_agrees_with_enumeration():
    for n in range(6):
        comps = [c.parts for c in enumerate_compositions(n)]
        for alpha in comps:
            for beta in comps:
                for mode in ("nonnegative", "strictly-positive"):
                    assert count_matrices(alpha, beta, mode) == len(
                        enumerate_matrices(alpha, beta, mode)
                    )


def test_count_does_not_depend_on_order():
    for n in range(6):
        comps = [c.parts for c in enumerate_compositions(n)]
        for alpha in comps:
            for beta in comps:
                for mode in ("nonnegative", "strictly-positive"):
                    expected = len(enumerate_matrices(alpha, beta, mode))
                    assert count_matrices(beta, alpha, mode) == expected
                    for rows in set(itertools.permutations(alpha)):
                        for cols in set(itertools.permutations(beta)):
                            assert count_matrices(rows, cols, mode) == expected


def test_count_memo_is_keyed_by_sorted_margins():
    _count.cache_clear()
    assert count_matrices((1, 2), (3,)) == 1
    first = _count.cache_info()
    assert first.hits == 0
    # the reordered rows reach the same top-level entry: one hit, no miss
    assert count_matrices((2, 1), (3,)) == 1
    second = _count.cache_info()
    assert (second.misses, second.hits) == (first.misses, 1)


def test_unknown_mode_rejected_by_enumeration_and_count():
    for fn in (enumerate_matrices, count_matrices):
        with pytest.raises(HopflikeError, match="unknown mode 'strict'"):
            fn((2, 2), (2, 2), "strict")


def test_margin_equations_hold():
    # exhaustively on all margins up to 6; on partition representatives
    # for 7 and 8 (margin equations are invariant under reordering rows
    # or columns, and a spot check below covers reordered margins)
    def check(alpha, beta):
        for K in enumerate_matrices(alpha, beta):
            assert margins(K) == (tuple(alpha), tuple(beta))

    for n in range(7):
        comps = [c.parts for c in enumerate_compositions(n)]
        for alpha in comps:
            for beta in comps:
                check(alpha, beta)
    for n in (7, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                check(lam, mu)
    check((1, 2, 1, 3), (2, 3, 2))
    check((3, 1, 2, 2), (2, 2, 3, 1))


def test_kappa_examples():
    k = kappa(ContingencyMatrix([[1, 1], [1, 1]]))
    assert k.row == Composition([1, 1, 1, 1])
    assert k.col == Composition([1, 1, 1, 1])
    k = kappa(ContingencyMatrix([[2]]))
    assert (k.row, k.col) == (Composition([2]), Composition([2]))
    k = kappa(ContingencyMatrix([[1, 0], [0, 1]]))
    assert k.row == Composition([1, 1])
    assert k.col == Composition([1, 1])


def test_memos_leave_matrix_immutable():
    K = ContingencyMatrix([[1, 2], [0, 3]])
    twin = ContingencyMatrix([[1, 2], [0, 3]])
    before = hash(K)
    assert kappa(K) is kappa(K)
    assert slot_sources(K) == slot_sources(twin)
    assert hash(K) == before == hash(twin)
    assert K == twin and kappa(twin) == kappa(K)
    for name in ("entries", "_kappa"):
        with pytest.raises(AttributeError):
            setattr(K, name, None)


def test_sigma_examples():
    assert sigma_K(ContingencyMatrix([[1, 1], [1, 1]])) == (1, 3, 2, 4)
    for n in range(1, 5):
        assert sigma_K(ContingencyMatrix([[n]])) == tuple(range(1, n + 1))
    assert sigma_K(
        ContingencyMatrix([[1, 1], [1, 1], [1, 1]])
    ) == (1, 4, 2, 5, 3, 6)


def test_sigma_translates_cells_blockwise():
    # oracle: rebuild both interval subdivisions and check each cell's
    # row-interval is carried onto its column-interval by a translation
    for alpha, beta in [((2, 2), (2, 2)), ((3, 1), (2, 2)), ((2, 2, 2), (3, 3))]:
        for K in enumerate_matrices(Composition(alpha), Composition(beta)):
            sigma = sigma_K(K)
            pos_row = 1
            starts_col = {}
            pos = 1
            for j in range(K.ncols):
                for i in range(K.nrows):
                    starts_col[i, j] = pos
                    pos += K.entries[i][j]
            for i in range(K.nrows):
                for j in range(K.ncols):
                    width = K.entries[i][j]
                    for d in range(width):
                        assert sigma[pos_row + d - 1] == starts_col[i, j] + d
                    pos_row += width


def test_transpose_inverts_sigma():
    for K in enumerate_matrices(Composition([2, 1]), Composition([1, 2])):
        sigma = sigma_K(K)
        # the transpose's shuffle sends each image back to its position
        assert tuple(sigma_K(transpose(K))[v - 1] for v in sigma) == tuple(
            range(1, len(sigma) + 1)
        )


def test_slot_sources_skips_zero_cells():
    K = ContingencyMatrix([[1, 0], [0, 1]])
    assert slot_sources(K) == (0, 1)
    K = ContingencyMatrix([[0, 1], [1, 0]])
    assert slot_sources(K) == (1, 0)
    K = ContingencyMatrix([[1, 1], [1, 1]])
    assert slot_sources(K) == (0, 2, 1, 3)


def test_block_decompose_examples():
    four_by_five = ContingencyMatrix([
        [1, 1, 1, 0, 0],
        [1, 1, 1, 0, 0],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1],
    ])
    alpha, beta = Composition([3, 3, 2, 2]), Composition([2, 2, 2, 2, 2])
    group = _factoring_matrices(alpha, beta, Composition([6, 4]))
    assert four_by_five in group
    # each member is a (3,3)/(2,2,2) block over a (2,2)/(2,2) block
    assert [K.entries for K in group] == [
        tuple(row + (0, 0) for row in top.entries)
        + tuple((0, 0, 0) + row for row in bottom.entries)
        for top in enumerate_matrices((3, 3), (2, 2, 2))
        for bottom in enumerate_matrices((2, 2), (2, 2))
    ]
    # one block: the whole enumeration
    assert _factoring_matrices(alpha, beta, Composition([10])) == (
        enumerate_matrices(alpha, beta)
    )
    ones = Composition([1, 1])
    assert _factoring_matrices(ones, ones, ones) == [
        ContingencyMatrix([[1, 0], [0, 1]])
    ]


def test_block_decompose_of_direct_sum_concatenates():
    pieces = [
        ContingencyMatrix([[1, 1], [1, 1]]),
        ContingencyMatrix([[2]]),
        ContingencyMatrix([[1, 0], [0, 1]]),
    ]
    for K1, K2 in itertools.permutations(pieces, 2):
        rows = []
        for row in K1.entries:
            rows.append(row + (0,) * K2.ncols)
        for row in K2.entries:
            rows.append((0,) * K1.ncols + row)
        combined = ContingencyMatrix(rows)
        (rows1, cols1), (rows2, cols2) = margins(K1), margins(K2)
        group = _factoring_matrices(
            Composition(rows1 + rows2),
            Composition(cols1 + cols2),
            Composition([sum(rows1), sum(rows2)]),
        )
        assert combined in group
        assert len(group) == len(set(group)) == (
            count_matrices(rows1, cols1) * count_matrices(rows2, cols2)
        )
