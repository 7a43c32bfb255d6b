"""Non-negative integer matrices with prescribed row and column margins.

A matrix K with row margins alpha and column margins beta induces two
refinements of n = sum(alpha): its entries read row by row (kappa-row)
and column by column (kappa-col), together with the permutation of
(1, ..., n) that translates each cell's row-order interval onto its
column-order interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .compositions import Composition, _parts_of
from .errors import HopflikeError, SumMismatchError


class ContingencyMatrix:
    """Immutable grid of non-negative integers.

    ``_kappa`` and ``_slot_sources`` memoize :func:`kappa` and
    :func:`slot_sources` for this instance, and ``_hash`` its hash;
    equality and hashing ignore them.
    """

    __slots__ = ("entries", "nrows", "ncols", "_kappa", "_slot_sources", "_hash")

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
        object.__setattr__(self, "_slot_sources", None)
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
        object.__setattr__(K, "_slot_sources", None)
        object.__setattr__(K, "_hash", None)
        return K

    @property
    def raw_row_margins(self) -> tuple:
        return tuple(sum(row) for row in self.entries)

    @property
    def raw_col_margins(self) -> tuple:
        return tuple(
            sum(row[j] for row in self.entries) for j in range(self.ncols)
        )

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.entries)

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


def _lowest_entry(mode: str) -> int:
    """Smallest entry allowed by ``mode``; unknown modes raise."""
    if mode not in ("nonnegative", "strictly-positive"):
        raise HopflikeError(f"unknown mode {mode!r}")
    return 0 if mode == "nonnegative" else 1


def enumerate_matrices(alpha, beta, mode: str = "nonnegative") -> list:
    """All matrices with the given margins, largest-first row-major order.

    ``mode`` is ``nonnegative`` (entries >= 0, the default: block sums
    need zeros) or ``strictly-positive`` (entries >= 1).  Matrices are
    ordered by their flattened entry tuple, lexicographically largest
    first, so reports are deterministic.  Entries are generated within
    their bounds, so the matrices skip the constructor's checks.
    """
    a = _parts_of(alpha)
    b = _parts_of(beta)
    if sum(a) != sum(b):
        raise SumMismatchError(
            f"margin sums differ: {sum(a)} vs {sum(b)}"
        )
    low = _lowest_entry(mode)
    r, s = len(a), len(b)
    if r == 0 or s == 0:
        # only reachable for n = 0; a grid with no cells
        if r == 0:
            return [ContingencyMatrix((), ncols=s)]
        return [ContingencyMatrix(((),) * r, ncols=0)]
    out = []
    rows = []

    def fill(i, colrem):
        if i == r:
            out.append(ContingencyMatrix._trusted(tuple(rows), s))
            return
        remaining_rows = r - i - 1
        row = [0] * s
        # later[j]: what columns j+1.. can still take in this row; those
        # columns are untouched until the row reaches them
        later = [0] * s
        for k in range(s - 1, 0, -1):
            later[k - 1] = later[k] + colrem[k] - low * remaining_rows

        def cell(j, rowrem):
            if j == s - 1:
                v = rowrem
                if low <= v <= colrem[j] - low * remaining_rows:
                    row[j] = v
                    colrem[j] -= v
                    rows.append(tuple(row))
                    fill(i + 1, colrem)
                    rows.pop()
                    colrem[j] += v
                return
            hi = min(rowrem - low * (s - 1 - j), colrem[j] - low * remaining_rows)
            lo = max(low, rowrem - later[j])
            for v in range(hi, lo - 1, -1):
                row[j] = v
                colrem[j] -= v
                cell(j + 1, rowrem - v)
                colrem[j] += v

        cell(0, a[i])

    fill(0, list(b))
    return out


@lru_cache(maxsize=None)
def _count(rows, cols, low):
    # cols is sorted; the count only depends on the multiset of capacities.
    if not rows:
        return 1 if sum(cols) == 0 else 0
    total = 0
    s = len(cols)
    remaining = len(rows) - 1

    def distribute(j, rowrem, acc):
        nonlocal total
        if j == s - 1:
            v = rowrem
            if low <= v <= cols[j] - low * remaining:
                rest = tuple(sorted(acc + (cols[j] - v,)))
                total += _count(rows[1:], rest, low)
            return
        hi = min(rowrem - low * (s - 1 - j), cols[j] - low * remaining)
        for v in range(low, hi + 1):
            distribute(j + 1, rowrem - v, acc + (cols[j] - v,))

    distribute(0, rows[0], ())
    return total


def count_matrices(alpha, beta, mode: str = "nonnegative") -> int:
    """Number of matrices with the given margins.

    Same count as ``len(enumerate_matrices(alpha, beta, mode))`` but via
    a memoized recursion that never materializes the matrices.
    """
    a = _parts_of(alpha)
    b = _parts_of(beta)
    if sum(a) != sum(b):
        raise SumMismatchError(f"margin sums differ: {sum(a)} vs {sum(b)}")
    low = _lowest_entry(mode)
    if len(a) == 0 or len(b) == 0:
        return 1  # no cells; equal sums force n = 0
    if low == 1 and (min(a) < len(b) or min(b) < len(a)):
        return 0
    return _count(a, tuple(sorted(b)), low)


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
    n = K.total
    row_start = {}
    pos = 1
    for i in range(K.nrows):
        for j in range(K.ncols):
            row_start[i, j] = pos
            pos += K.entries[i][j]
    col_start = {}
    pos = 1
    for j in range(K.ncols):
        for i in range(K.nrows):
            col_start[i, j] = pos
            pos += K.entries[i][j]
    images = [0] * n
    for i in range(K.nrows):
        for j in range(K.ncols):
            for d in range(K.entries[i][j]):
                images[row_start[i, j] + d - 1] = col_start[i, j] + d
    return tuple(images)


def slot_sources(K: ContingencyMatrix) -> tuple:
    """For each nonzero cell in row-major order, its column-major index.

    This is the slot-level shadow of :func:`sigma_K` on the canonical
    refinements: slot p of kappa-row is cell ``rm[p]``, which sits at
    position ``slot_sources(K)[p]`` in kappa-col.
    """
    if K._slot_sources is None:
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
        object.__setattr__(
            K, "_slot_sources", tuple(cm_index[cell] for cell in rm)
        )
    return K._slot_sources


def transpose(K: ContingencyMatrix) -> ContingencyMatrix:
    return ContingencyMatrix._trusted(
        tuple(
            tuple(K.entries[i][j] for i in range(K.nrows))
            for j in range(K.ncols)
        ),
        K.nrows,
    )
