"""The simplex category: monotone maps, faces, degeneracies, identities.

Objects are the finite ordinals [n] = {0, ..., n}.  A face is the
monotone injection [n-1] -> [n] missing one value; a degeneracy is the
monotone surjection [n+1] -> [n] hitting one value twice.  The five
classical identity families relating them are verified semantically,
i.e. by composing value tables, never by symbol rewriting.  This module
is the calibration case for that strategy: the identities are known to
hold, so a sweep that reports a failure indicts the engine, not the
mathematics.

Composition bookkeeping: the face/degeneracy operators of a simplicial
set X are contravariant images of these monotone maps, so an operator
identity ``p q = r s`` (q applied first) holds iff the underlying maps
satisfy ``map(q) . map(p) = map(s) . map(r)`` with the first-applied
operator outermost.
"""

from __future__ import annotations

from math import comb

from .errors import IndexRangeError
from .reports import VerificationReport


class MonotoneMap:
    """Weakly increasing map [n] -> [m], stored as its value table."""

    __slots__ = ("domain", "codomain", "table")

    def __init__(self, domain: int, codomain: int, table):
        table = tuple(table)
        if len(table) != domain + 1:
            raise IndexRangeError(
                f"table length {len(table)} does not match domain [{domain}]"
            )
        for a, b in zip(table, table[1:]):
            if a > b:
                raise IndexRangeError("table is not weakly increasing")
        if table and not (0 <= table[0] and table[-1] <= codomain):
            raise IndexRangeError("table values outside codomain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError("MonotoneMap is immutable")

    def __call__(self, x: int) -> int:
        return self.table[x]

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.table))

    def __repr__(self):
        return f"MonotoneMap([{self.domain}]->[{self.codomain}], {self.table})"

    def after(self, other: "MonotoneMap") -> "MonotoneMap":
        """self . other (apply ``other`` first)."""
        if other.codomain != self.domain:
            raise IndexRangeError(
                f"cannot compose [{other.domain}]->[{other.codomain}] "
                f"with [{self.domain}]->[{self.codomain}]"
            )
        return MonotoneMap(
            other.domain, self.codomain, tuple(self.table[v] for v in other.table)
        )


def identity(n: int) -> MonotoneMap:
    return MonotoneMap(n, n, range(n + 1))


def face(n: int, i: int) -> MonotoneMap:
    """The monotone injection [n-1] -> [n] that misses ``i``."""
    if not (0 <= i <= n) or n < 1:
        raise IndexRangeError(f"face index ({n},{i}) out of range")
    return MonotoneMap(n - 1, n, [v for v in range(n + 1) if v != i])


def degeneracy(n: int, i: int) -> MonotoneMap:
    """The monotone surjection [n+1] -> [n] that hits ``i`` twice."""
    if not (0 <= i <= n):
        raise IndexRangeError(f"degeneracy index ({n},{i}) out of range")
    table = list(range(i + 1)) + list(range(i, n + 1))
    return MonotoneMap(n + 1, n, table)


def _operator_chain(maps):
    """Underlying map of an operator word (first-applied operator first).

    Contravariance makes the first-applied operator the outermost map.
    """
    result = maps[0]
    for m in maps[1:]:
        result = result.after(m)
    return result


def identity_check_count(max_n: int) -> int:
    """How many checks ``verify_simplicial_identities(max_n)`` makes.

    The five families, in sweep order, make sum over n = 2..N of
    C(n+1, 2), sum over n = 1..N of C(n+1, 2), sum over n = 0..N of
    2(n+1), sum over n = 1..N of C(n+1, 2) and sum over n = 0..N of
    C(n+2, 2) checks, with N = ``max_n`` >= 1.  By the hockey-stick
    identity that is 3 C(N+2, 3) - 1 + (N+1)(N+2) + C(N+3, 3).
    """
    n = max_n
    return 3 * comb(n + 2, 3) - 1 + (n + 1) * (n + 2) + comb(n + 3, 3)


def verify_simplicial_identities(
    max_n: int, face_fn=face, degeneracy_fn=degeneracy
) -> VerificationReport:
    """Exhaustively check the five identity families up to level ``max_n``.

    ``face_fn`` / ``degeneracy_fn`` exist so tests can inject corrupted
    tables and watch the sweep catch them.
    """
    if max_n < 1:
        raise IndexRangeError("max_n must be >= 1")
    report = VerificationReport("simplicial", {"max_n": max_n})

    def check(name, n, i, j, left_ops, right_ops):
        left = _operator_chain(left_ops)
        right = _operator_chain(right_ops)
        report.checked += 1
        if left != right:
            report.record(
                f"{name} at n={n}, i={i}, j={j}",
                name,
                str(left.table),
                str(right.table),
            )

    for n in range(2, max_n + 1):
        for j in range(n + 1):
            for i in range(j):
                # d_i d_j = d_{j-1} d_i
                check(
                    "d_i d_j = d_(j-1) d_i (i<j)", n, i, j,
                    [face_fn(n, j), face_fn(n - 1, i)],
                    [face_fn(n, i), face_fn(n - 1, j - 1)],
                )
    for n in range(1, max_n + 1):
        for j in range(n + 1):
            for i in range(j):
                # d_i s_j = s_{j-1} d_i
                check(
                    "d_i s_j = s_(j-1) d_i (i<j)", n, i, j,
                    [degeneracy_fn(n, j), face_fn(n + 1, i)],
                    [face_fn(n, i), degeneracy_fn(n - 1, j - 1)],
                )
    for n in range(0, max_n + 1):
        for j in range(n + 1):
            for i in (j, j + 1):
                # d_i s_j = 1
                left = _operator_chain([degeneracy_fn(n, j), face_fn(n + 1, i)])
                report.checked += 1
                if left != identity(n):
                    report.record(
                        f"d_i s_j = 1 (i=j or i=j+1) at n={n}, i={i}, j={j}",
                        "d_i s_j = 1",
                        str(left.table),
                        str(identity(n).table),
                    )
    for n in range(1, max_n + 1):
        for j in range(n):
            for i in range(j + 2, n + 2):
                # d_i s_j = s_j d_{i-1}
                check(
                    "d_i s_j = s_j d_(i-1) (i>j+1)", n, i, j,
                    [degeneracy_fn(n, j), face_fn(n + 1, i)],
                    [face_fn(n, i - 1), degeneracy_fn(n - 1, j)],
                )
    for n in range(0, max_n + 1):
        for j in range(n + 1):
            for i in range(j + 1):
                # s_i s_j = s_{j+1} s_i
                check(
                    "s_i s_j = s_(j+1) s_i (i<=j)", n, i, j,
                    [degeneracy_fn(n, j), degeneracy_fn(n + 1, i)],
                    [degeneracy_fn(n, i), degeneracy_fn(n + 1, j + 1)],
                )
    return report
