"""Non-negative integer matrices with prescribed row and column margins.

A matrix K with row margins alpha and column margins beta induces two
refinements of n = sum(alpha): its entries read row by row (kappa-row)
and column by column (kappa-col), together with the permutation of
(1, ..., n) that translates each cell's row-order interval onto its
column-order interval.

Strict positivity is a shift of the margins: subtracting 1 from every
entry maps the strictly positive matrices of (alpha, beta) one-to-one
onto the non-negative matrices of (alpha - #columns, beta - #rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .compositions import Composition, _parts_of
from .errors import HopflikeError, SumMismatchError


class ContingencyMatrix:
    """Immutable grid of non-negative integers.

    ``_kappa`` memoizes :func:`kappa` for this instance, and ``_hash``
    its hash; equality and hashing ignore them.
    """

    __slots__ = ("entries", "nrows", "ncols", "_kappa", "_hash")

    def __init__(self, entries, ncols=None):
        rows = tuple(tuple(int(v) for v in row) for row in entries)
        if rows:
            ncols = len(rows[0])
            for row in rows:
                if len(row) != ncols:
                    raise HopflikeError("ragged matrix")
                for v in row:
                    if v < 0:
                        raise HopflikeError(f"negative entry {v}")
        else:
            ncols = int(ncols or 0)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_kappa", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("ContingencyMatrix is immutable")

    @classmethod
    def _trusted(cls, rows: tuple, ncols: int) -> "ContingencyMatrix":
        """Build without validation.

        For matrices the program generates only: ``rows`` is a tuple of
        ``ncols``-long tuples of non-negative ints.
        """
        K = object.__new__(cls)
        object.__setattr__(K, "entries", rows)
        object.__setattr__(K, "nrows", len(rows))
        object.__setattr__(K, "ncols", ncols)
        object.__setattr__(K, "_kappa", None)
        object.__setattr__(K, "_hash", None)
        return K

    def __eq__(self, other):
        return (
            isinstance(other, ContingencyMatrix)
            and self.entries == other.entries
            and self.ncols == other.ncols
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.entries, self.ncols)))
        return self._hash

    def __repr__(self):
        return f"ContingencyMatrix({self.entries!r})"

    def __str__(self):
        return "[" + ",".join(
            "[" + ",".join(str(v) for v in row) + "]" for row in self.entries
        ) + "]"


@dataclass(frozen=True)
class KappaResult:
    """Row- and column-order refinements of a matrix, zero cells erased."""

    row: Composition
    col: Composition


def _nonnegative_margins(alpha, beta, mode: str):
    """``(a, b, lift)``: the matrices in ``mode`` are the non-negative
    matrices of (a, b) plus ``lift`` in every entry; None if a margin of
    (a, b) is negative, since then there are none."""
    a = _parts_of(alpha)
    b = _parts_of(beta)
    if sum(a) != sum(b):
        raise SumMismatchError(f"margin sums differ: {sum(a)} vs {sum(b)}")
    if mode == "strictly-positive":
        lift = 1
        a, b = tuple(v - len(b) for v in a), tuple(v - len(a) for v in b)
    elif mode == "nonnegative":
        lift = 0
    else:
        raise HopflikeError(f"unknown mode {mode!r}")
    if min(a + b, default=0) < 0:
        return None
    return a, b, lift


def _rows(total, caps):
    """Rows summing to ``total``, entry j at most ``caps[j]``, largest first.

    Needs caps and 0 <= total <= sum(caps).  Each entry is kept within
    what the later columns can take, so the last one is forced.
    """
    if len(caps) == 1:
        yield (total,)
        return
    first, rest = caps[0], caps[1:]
    for v in range(min(total, first), max(0, total - sum(rest)) - 1, -1):
        for tail in _rows(total - v, rest):
            yield (v, *tail)


def _matrices(alpha, beta, mode: str):
    """The matrices of :func:`enumerate_matrices`, one at a time.

    Rows are filled top to bottom from what each column has left.  The
    sums agree, so every partial fill has a completion (the north-west
    corner rule): no row needs a lookahead, and the last row is forced.
    """
    shifted = _nonnegative_margins(alpha, beta, mode)
    if shifted is None:
        return
    a, b, lift = shifted
    if not a or not b:
        # no cells; equal sums force n = 0
        yield ContingencyMatrix._trusted(((),) * len(a), len(b))
        return
    for rows in _fill(a, 0, b):
        if lift:
            rows = tuple(tuple(v + lift for v in row) for row in rows)
        yield ContingencyMatrix._trusted(rows, len(b))


def _fill(a, i, colrem):
    # Rows i.. of a matrix with row margins a[i:] and what each column has
    # left.  Not a closure: a recursive closure is a reference cycle,
    # garbage on every call.
    if i == len(a) - 1:
        yield (colrem,)
        return
    for row in _rows(a[i], colrem):
        left = tuple(c - v for c, v in zip(colrem, row))
        for rest in _fill(a, i + 1, left):
            yield (row, *rest)


def enumerate_matrices(alpha, beta, mode: str = "nonnegative") -> list:
    """All matrices with the given margins, largest-first row-major order.

    ``mode`` is ``nonnegative`` (entries >= 0, the default: block sums
    need zeros) or ``strictly-positive`` (entries >= 1).  Matrices are
    ordered by their flattened entry tuple, lexicographically largest
    first, so reports are deterministic.  Entries are generated within
    their bounds, so the matrices skip the constructor's checks.
    """
    return list(_matrices(alpha, beta, mode))


@lru_cache(maxsize=None)
def _count(rows, cols):
    # Keyed by sorted margins (rows largest first, cols ascending): the
    # count depends only on both multisets, and rows[1:] stays sorted.
    # The sums agree, so once the rows run out the columns are used up.
    if not rows:
        return 1
    return _spread(rows, cols, 0, rows[0], ())


def _spread(rows, cols, j, rowrem, acc):
    # rows[0] over cols[j:]; acc holds what cols[:j] keep.  Not a closure:
    # a recursive closure is a reference cycle, garbage on every call.
    if j == len(cols) - 1:
        if rowrem > cols[j]:
            return 0
        return _count(rows[1:], tuple(sorted(acc + (cols[j] - rowrem,))))
    total = 0
    for v in range(min(rowrem, cols[j]) + 1):
        total += _spread(rows, cols, j + 1, rowrem - v, acc + (cols[j] - v,))
    return total


def count_matrices(alpha, beta, mode: str = "nonnegative") -> int:
    """Number of matrices with the given margins.

    Same count as ``len(enumerate_matrices(alpha, beta, mode))`` but via
    a memoized recursion that never materializes the matrices.  Reordering
    rows or columns does not change the count, so both margins are sorted
    first: every reordering of a pair shares one memo entry.
    """
    shifted = _nonnegative_margins(alpha, beta, mode)
    if shifted is None:
        return 0
    a, b, _ = shifted
    if not a or not b:
        return 1  # no cells; equal sums force n = 0
    return _count(tuple(sorted(a, reverse=True)), tuple(sorted(b)))


def kappa(K: ContingencyMatrix) -> KappaResult:
    """Row-by-row and column-by-column readings of the entries."""
    if K._kappa is None:
        row = Composition(v for r in K.entries for v in r)
        col = Composition(
            K.entries[i][j] for j in range(K.ncols) for i in range(K.nrows)
        )
        object.__setattr__(K, "_kappa", KappaResult(row, col))
    return K._kappa


def sigma_K(K: ContingencyMatrix) -> tuple:
    """Positionwise shuffle from the row-order to the column-order reading.

    Each cell (i, j) occupies an interval of width k[i][j] in both
    readings; the permutation translates the row-order interval onto the
    column-order one (the i-th sub-interval of the j-th column block).
    It is returned as its images: entry ``p - 1`` is where position p
    goes, for p in 1..n.
    """
    r = K.nrows
    by_column = (K.entries[i][j] for j in range(K.ncols) for i in range(r))
    # start[j * r + i]: where cell (i, j) begins in the column-order reading
    start = list(accumulate(by_column, initial=1))
    return tuple(
        p
        for i, row in enumerate(K.entries)
        for j, v in enumerate(row)
        for p in range(start[j * r + i], start[j * r + i] + v)
    )


def slot_sources(K: ContingencyMatrix) -> tuple:
    """For each nonzero cell in row-major order, its column-major index.

    This is the slot-level shadow of :func:`sigma_K` on the canonical
    refinements: slot p of kappa-row is cell ``rm[p]``, which sits at
    position ``slot_sources(K)[p]`` in kappa-col.
    """
    rm = [
        (i, j)
        for i in range(K.nrows)
        for j in range(K.ncols)
        if K.entries[i][j] > 0
    ]
    cm_index = {}
    idx = 0
    for j in range(K.ncols):
        for i in range(K.nrows):
            if K.entries[i][j] > 0:
                cm_index[i, j] = idx
                idx += 1
    return tuple(cm_index[cell] for cell in rm)


def transpose(K: ContingencyMatrix) -> ContingencyMatrix:
    # zip(*rows) cannot see the columns of a matrix without rows
    return ContingencyMatrix._trusted(
        tuple(zip(*K.entries)) if K.nrows else ((),) * K.ncols, K.nrows
    )
