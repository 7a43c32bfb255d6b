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
operator outermost.  The sweep composes value tables, building each
face and degeneracy once per (n, i) and checking its signature then;
``MonotoneMap.after`` is the reference composition it agrees with.
"""

from __future__ import annotations

from functools import partial
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
    tables = {}

    def table(fn, n, i):
        """``fn(n, i)``'s value table, built and its signature checked once."""
        key = (fn, n, i)
        if key not in tables:
            m = fn(n, i)
            kind, domain = ("face", n - 1) if fn is face_fn else ("degeneracy", n + 1)
            if (m.domain, m.codomain) != (domain, n):
                raise IndexRangeError(
                    f"{kind} ({n},{i}) is [{m.domain}]->[{m.codomain}], "
                    f"not [{domain}]->[{n}]"
                )
            tables[key] = m.table
        return tables[key]

    d, s = partial(table, face_fn), partial(table, degeneracy_fn)
    # Each family: its witness, the rest of its instance label, its walk
    # (n, i, j) and the tables p, q, r, t of ``p . q = r . t``.
    top = max_n + 1
    families = (
        ("d_i d_j = d_(j-1) d_i (i<j)", "",
         ((n, i, j) for n in range(2, top) for j in range(n + 1) for i in range(j)),
         lambda n, i, j: (d(n, j), d(n - 1, i), d(n, i), d(n - 1, j - 1))),
        ("d_i s_j = s_(j-1) d_i (i<j)", "",
         ((n, i, j) for n in range(1, top) for j in range(n + 1) for i in range(j)),
         lambda n, i, j: (s(n, j), d(n + 1, i), d(n, i), s(n - 1, j - 1))),
        ("d_i s_j = 1", " (i=j or i=j+1)",
         ((n, i, j) for n in range(top) for j in range(n + 1) for i in (j, j + 1)),
         lambda n, i, j: (s(n, j), d(n + 1, i), range(n + 1), range(n + 1))),
        ("d_i s_j = s_j d_(i-1) (i>j+1)", "",
         ((n, i, j) for n in range(1, top) for j in range(n)
          for i in range(j + 2, n + 2)),
         lambda n, i, j: (s(n, j), d(n + 1, i), d(n, i - 1), s(n - 1, j))),
        ("s_i s_j = s_(j+1) s_i (i<=j)", "",
         ((n, i, j) for n in range(top) for j in range(n + 1) for i in range(j + 1)),
         lambda n, i, j: (s(n, j), s(n + 1, i), s(n, i), s(n + 1, j + 1))),
    )
    for witness, rest, walk, operators in families:
        for n, i, j in walk:
            p, q, r, t = operators(n, i, j)
            left = tuple(map(p.__getitem__, q))
            right = tuple(map(r.__getitem__, t))
            report.checked += 1
            if left != right:
                report.record(
                    f"{witness}{rest} at n={n}, i={i}, j={j}", witness,
                    str(left), str(right),
                )
    return report
