"""Compositions (ordered partitions) of a non-negative integer.

A composition is stored in canonical form: a tuple of strictly positive
parts.  Zero parts may appear in input and are erased on construction;
the empty composition ``()`` is the unique composition of 0.  Textual
form is ``(2,3,4)`` with ``()`` for the empty composition.
"""

from __future__ import annotations

from .errors import InvalidPartsError, SumMismatchError


class Composition:
    """Canonical ordered partition of a non-negative integer.

    >>> Composition([2, 0, 3])
    Composition((2, 3))
    >>> Composition([2, 0, 3]).sum
    5
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        cleaned = []
        for p in parts:
            p = int(p)
            if p < 0:
                raise InvalidPartsError(f"negative part {p} in composition")
            if p > 0:
                cleaned.append(p)
        object.__setattr__(self, "parts", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("Composition is immutable")

    @property
    def sum(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Composition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        a, b = self.parts, _parts_of(other)
        return (len(a), a) < (len(b), b)

    def __repr__(self):
        return f"Composition({self.parts!r})"

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _parts_of(value) -> tuple:
    if isinstance(value, Composition):
        return value.parts
    return tuple(value)


def refines(alpha, kappa):
    """Grouping witness when ``kappa`` refines ``alpha``, else ``None``.

    ``kappa`` refines ``alpha`` iff its parts split into consecutive
    runs whose totals are the parts of ``alpha``, in order.  The witness
    is the tuple of run lengths (compare with ``is not None``: the
    witness for ``() refines ()`` is the empty tuple).  Read backwards
    this is the recombination test: ``alpha`` is obtained from
    ``kappa`` by adding consecutive parts.
    """
    a = _parts_of(alpha)
    k = _parts_of(kappa)
    if sum(a) != sum(k):
        raise SumMismatchError(
            f"compositions have different sums: {sum(a)} vs {sum(k)}"
        )
    grouping = []
    pos = 0
    for target in a:
        acc = 0
        run = 0
        while acc < target:
            if pos >= len(k):
                return None
            acc += k[pos]
            pos += 1
            run += 1
        if acc != target:
            return None
        grouping.append(run)
    if pos != len(k):
        return None
    return tuple(grouping)


def enumerate_compositions(n: int, max_length=None) -> list:
    """All canonical compositions of ``n``, shortest first, lex within a length.

    There are ``2**(n-1)`` of them for ``n >= 1`` when the length is not
    capped.
    """
    _check_count_args(n, max_length)
    if n == 0:
        return [Composition()]
    top = n if max_length is None else min(n, max_length)
    out = []
    for length in range(1, top + 1):
        out.extend(Composition(c) for c in _exact_length(n, length))
    return out


def _check_count_args(n, max_length):
    if n < 0:
        raise InvalidPartsError("n must be non-negative")
    if max_length is not None and max_length < 0:
        raise InvalidPartsError("max_length must be non-negative")


def _count_compositions(n: int, max_length=None, stop=None) -> int:
    """How many compositions ``enumerate_compositions`` lists, in closed form.

    The sum of C(n-1, k-1) over the lengths 1 <= k <= max_length, which
    is 2**(n-1) when the length is not capped.  With ``stop``, summing
    ends at the first partial sum above it, which is returned instead,
    so that a huge count costs no more than ``stop``.
    """
    _check_count_args(n, max_length)
    if n == 0:
        return 1
    top = n if max_length is None else min(n, max_length)
    if top == n and (stop is None or n - 1 < stop.bit_length()):
        return 1 << (n - 1)
    total, term = 0, 1  # term = C(n-1, k)
    for k in range(top):
        total += term
        if stop is not None and total > stop:
            break
        term = term * (n - 1 - k) // (k + 1)
    return total


def _exact_length(n, length):
    if length == 1:
        yield (n,)
        return
    for first in range(1, n - length + 2):
        for rest in _exact_length(n - first, length - 1):
            yield (first,) + rest


def cut_points(alpha) -> frozenset:
    """Interior prefix sums of ``alpha`` (the cuts it makes in 1..n)."""
    parts = _parts_of(alpha)
    acc = 0
    cuts = []
    for p in parts[:-1]:
        acc += p
        cuts.append(acc)
    return frozenset(cuts)


def common_coarsenings(alpha, beta) -> list:
    """All compositions coarsening both ``alpha`` and ``beta``.

    A coarsening's cut points are a subset of the common cut points, so
    the coarsest one, ``(n)``, is always present.  Sorted shortest
    (coarsest) first.
    """
    a = _parts_of(alpha)
    b = _parts_of(beta)
    n = sum(a)
    if n != sum(b):
        raise SumMismatchError("common coarsenings need equal sums")
    if n == 0:
        return [Composition()]
    shared = sorted(cut_points(alpha) & cut_points(beta))
    out = []
    for mask in range(1 << len(shared)):
        chosen = [shared[i] for i in range(len(shared)) if mask >> i & 1]
        bounds = [0] + chosen + [n]
        out.append(Composition(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)))
    out.sort()
    return out
