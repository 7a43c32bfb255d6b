"""Graded symmetric functions over the integers, and tensor spaces on them.

The degree-n piece R(n) has three bases indexed by partitions of n:
complete homogeneous (h), monomial (m) and Schur (s).  Everything is
exact integer arithmetic on sparse coefficient dictionaries; no floats
anywhere.

The algebra is the realization substrate for the composition category:
a word alpha -> beta acts contravariantly as a linear map
A(beta) -> A(alpha) between tensor spaces A(n1, ..., nt) =
R(n1) (x) ... (x) R(nt), with merges acting by graded comultiplication
components, splits by multiplication, and shuffles by slot
permutations.  The realization sits behind :class:`PshRealization` so a
different self-adjoint graded algebra can be substituted later.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

from .compositions import Composition
from .contingency import slot_sources
from .category import Merge, Shuffle, Split, _step, apply_generator
from .errors import (
    BasisMismatchError,
    DegreeMismatchError,
    RealizationError,
    UsageError,
)

# ---------------------------------------------------------------------------
# partitions


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """Partitions of n as weakly decreasing tuples, (n) first, (1,..,1) last."""
    if n < 0:
        raise UsageError("partitions_of needs n >= 0")
    out = []
    _descend(n, n, [], out)
    return tuple(out)


def _descend(left, cap, prefix, out):
    # Module-level rather than a closure, for the reason _grow_rows gives.
    if left == 0:
        out.append(tuple(prefix))
        return
    for p in range(min(left, cap), 0, -1):
        prefix.append(p)
        _descend(left - p, p, prefix, out)
        prefix.pop()


@lru_cache(maxsize=None)
def _positions(n: int) -> dict:
    """Mapping lam -> position of lam in ``partitions_of(n)``."""
    return {lam: i for i, lam in enumerate(partitions_of(n))}


def _partition_counts(top: int) -> list:
    """p(0), ..., p(top) by Euler's pentagonal recurrence.

    p(n) = sum over k >= 1 of (-1)**(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)).
    """
    counts = [1]
    for n in range(1, top + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            pentagonal = k * (3 * k - 1) // 2
            total += sign * counts[n - pentagonal]
            if pentagonal + k <= n:
                total += sign * counts[n - pentagonal - k]
            k += 1
        counts.append(total)
    return counts


def _is_partition(lam: tuple) -> bool:
    """True for a weakly decreasing tuple of positive integers."""
    return not lam or (lam[-1] > 0 and list(lam) == sorted(lam, reverse=True))


_LABELS = {}  # one tuple per merged label, shared by all pairs giving it


@lru_cache(maxsize=None)
def _merge_labels(lam, mu):
    """The h-basis product label of h_lam h_mu: the parts of both, re-sorted.

    Memoized: the sweeps merge few distinct label pairs very many times.
    """
    merged = tuple(sorted(lam + mu, reverse=True))
    return _LABELS.setdefault(merged, merged)


@lru_cache(maxsize=None)
def _comult_table(lam: tuple) -> tuple:
    """All splittings of h_lam, grouped by left degree.

    Multiplicative extension of h_n |-> sum_i h_i (x) h_(n-i).  Entry u
    of the table, for u = 0, ..., |lam|, is the tuple of (mu, nu, coeff)
    with |mu| = u and |nu| = |lam| - u, sorted; no group is empty.  A
    reader wanting one left degree indexes it instead of filtering.

    Built from the memoized table of ``lam[:-1]`` times the coproduct of
    h_(lam[-1]).  The realization reads it as ``PshRealization._splittings``.
    """
    if not lam:
        return ((((), (), 1),),)
    part = lam[-1]
    table = {}
    for u, group in enumerate(_comult_table(lam[:-1])):
        for mu, nu, c in group:
            for i in range(part + 1):
                left = mu if i == 0 else _merge_labels(mu, (i,))
                right = nu if i == part else _merge_labels(nu, (part - i,))
                key = (u + i, left, right)
                table[key] = table.get(key, 0) + c
    groups = [[] for _ in range(sum(lam) + 1)]
    for (u, mu, nu), c in sorted(table.items()):
        groups[u].append((mu, nu, c))
    return tuple(map(tuple, groups))


def comult_splittings(lam) -> tuple:
    """Public view of the splitting table of h_lam.

    Entry u is the tuple of (mu, nu, coeff) with |mu| = u, as in
    ``_comult_table``.
    """
    return _comult_table(tuple(lam))


# ---------------------------------------------------------------------------
# elements of one graded piece


class _Combination:
    """The arithmetic of an immutable integer combination ``coeffs``.

    Each subclass builds its results through ``_like(coeffs)``.
    """

    __slots__ = ("coeffs",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _merged(self, other) -> dict:
        merged = dict(self.coeffs)
        for label, c in other.coeffs.items():
            merged[label] = merged.get(label, 0) + c
        return merged

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        if isinstance(scalar, int):
            return self._like({k: scalar * v for k, v in self.coeffs.items()})
        return NotImplemented


class SymElement(_Combination):
    """Homogeneous integer combination of basis vectors of one degree."""

    __slots__ = ("degree", "basis")

    def __init__(self, degree: int, basis: str, coeffs: dict):
        if basis not in ("h", "m", "s"):
            raise BasisMismatchError(f"unknown basis {basis!r}")
        cleaned = {}
        for lam, c in coeffs.items():
            lam = tuple(lam)
            if sum(lam) != degree:
                raise DegreeMismatchError(
                    f"label {lam} has weight {sum(lam)}, element degree {degree}"
                )
            if not _is_partition(lam):
                raise UsageError(f"label {lam} is not a partition")
            if c:
                cleaned[lam] = cleaned.get(lam, 0) + int(c)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", {k: v for k, v in cleaned.items() if v})

    @classmethod
    def basis_element(cls, basis: str, lam) -> "SymElement":
        lam = tuple(lam)
        return cls(sum(lam), basis, {lam: 1})

    @classmethod
    def h(cls, *parts) -> "SymElement":
        return cls.basis_element("h", sorted((p for p in parts if p > 0), reverse=True))

    @classmethod
    def one(cls, basis: str = "h") -> "SymElement":
        return cls(0, basis, {(): 1})

    @classmethod
    def _trusted(cls, degree: int, basis: str, coeffs: dict) -> "SymElement":
        """Build without validation, dropping zero coefficients.

        For results of operations on valid elements only: ``basis`` is
        h, m or s and every label is a partition of ``degree``.
        """
        el = object.__new__(cls)
        object.__setattr__(el, "degree", degree)
        object.__setattr__(el, "basis", basis)
        object.__setattr__(el, "coeffs", {k: v for k, v in coeffs.items() if v})
        return el

    def _like(self, coeffs):
        return SymElement._trusted(self.degree, self.basis, coeffs)

    def __add__(self, other):
        if not isinstance(other, SymElement):
            return NotImplemented
        if other.basis != self.basis:
            raise BasisMismatchError(f"{self.basis} + {other.basis}")
        if other.degree != self.degree and not (self.is_zero or other.is_zero):
            raise DegreeMismatchError("SymElement is homogeneous")
        if self.is_zero and other.degree != self.degree:
            return other
        return self._like(self._merged(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        if isinstance(other, SymElement):
            return h_mult(self, other)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, SymElement)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
            and (self.degree == other.degree or self.is_zero)
        )

    def __repr__(self):
        return f"SymElement({self.degree}, {self.basis!r}, {self.coeffs!r})"

    def __str__(self):
        return format_sym(self)


def h_mult(x: SymElement, y: SymElement) -> SymElement:
    """Product in the h basis: labels concatenate and re-sort."""
    if x.basis != "h" or y.basis != "h":
        raise BasisMismatchError("h_mult needs both factors in the h basis")
    coeffs = {}
    for lam, c in x.coeffs.items():
        for mu, d in y.coeffs.items():
            key = _merge_labels(lam, mu)
            coeffs[key] = coeffs.get(key, 0) + c * d
    return SymElement._trusted(x.degree + y.degree, "h", coeffs)


def comult_component(x: SymElement, d1: int, d2: int) -> "TensorElement":
    """The (d1, d2) graded piece of the comultiplication of x."""
    if x.basis != "h":
        raise BasisMismatchError("comult_component needs the h basis")
    if min(d1, d2) < 0 or x.degree != d1 + d2:
        raise DegreeMismatchError(f"({d1},{d2}) does not split degree {x.degree}")
    coeffs = _comult_action(0, d1)({(lam,): c for lam, c in x.coeffs.items()})
    return TensorElement._trusted((d1, d2), coeffs)


# ---------------------------------------------------------------------------
# basis transitions and the Hall pairing


def _horizontal_strips(shape: tuple, size: int) -> list:
    """Partitions made from ``shape`` by a horizontal strip of ``size`` boxes.

    No two new boxes share a column: row i may grow up to the length of
    row i - 1 of ``shape`` (the first row without limit), and one new
    row may start below the last.
    """
    out = []
    _grow_rows(shape + (0,), 0, size, [], out)
    return out


def _grow_rows(rows, i, left, prefix, out):
    # Module-level rather than a closure: a recursive closure is a
    # reference cycle, left for the cyclic collector on every call.
    if i == len(rows):
        if left == 0:
            # only the new last row can be empty
            out.append(tuple(prefix if prefix[-1] else prefix[:-1]))
        return
    room = left if i == 0 else min(left, rows[i - 1] - rows[i])
    for add in range(room, -1, -1):
        prefix.append(rows[i] + add)
        _grow_rows(rows, i + 1, left - add, prefix, out)
        prefix.pop()


@lru_cache(maxsize=None)
def _kostka(degree: int) -> tuple:
    """Kostka numbers of one degree: row lam, column mu holds K(lam, mu).

    K(lam, mu) counts semistandard tableaux of shape lam and content mu,
    grown by one horizontal strip per part of mu in order.  mu minus its
    last part r is a partition ``head``, so column mu sums, over the
    shapes nu of degree - r, K(nu, head) times the strips of r boxes on
    nu, with K(nu, head) read from ``_kostka(degree - r)``.  Each strip
    list is enumerated once per (nu, r) and added into every column it
    feeds.  Rows and columns follow ``partitions_of`` order, which
    refines dominance, so K is upper unitriangular; anything else raises
    ``UsageError``.
    """
    parts, index = partitions_of(degree), _positions(degree)
    columns = [None] * len(parts) if degree else [[1]]  # degree 0: the empty shape
    for last in range(1, degree + 1):
        below = partitions_of(degree - last)
        # column heads: the partitions with no part below ``last``
        heads = [j for j, head in enumerate(below) if not head or head[-1] >= last]
        grown = {j: [0] * len(parts) for j in heads}
        for shape, row in zip(below, _kostka(degree - last)):
            feeds = [(grown[j], row[j]) for j in heads if row[j]]
            if feeds:
                strips = [index[nu] for nu in _horizontal_strips(shape, last)]
                for column, c in feeds:
                    for i in strips:
                        column[i] += c
        for j in heads:
            columns[index[below[j] + (last,)]] = grown[j]
    table = tuple(zip(*columns))
    for i, row in enumerate(table):
        if row[i] != 1 or any(row[:i]):
            raise UsageError(
                f"Kostka table of degree {degree} is not unitriangular "
                f"at row {parts[i]}"
            )
    return table


@lru_cache(maxsize=None)
def _kostka_inverse(degree: int) -> tuple:
    """Inverse of ``_kostka(degree)`` by integer back-substitution.

    Each solved row is also kept as its nonzero (column, value) pairs,
    which the rows above it subtract.
    """
    table = _kostka(degree)
    k = len(table)
    rows, nonzero = [None] * k, [None] * k
    for i in range(k - 1, -1, -1):
        row = [0] * k
        row[i] = 1
        for j in range(i + 1, k):
            c = table[i][j]
            if c:
                for col, v in nonzero[j]:
                    row[col] -= c * v
        rows[i] = tuple(row)
        nonzero[i] = [(col, v) for col, v in enumerate(row) if v]
    return tuple(rows)


def _gram(vectors) -> list:
    """Symmetric rows of dot products, one product per pair i <= j.

    A dot product stops at the shorter vector, so each vector may be cut
    after the last entry that can be nonzero."""
    k = len(vectors)
    rows = [[0] * k for _ in range(k)]
    for i, a in enumerate(vectors):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = sum(map(operator.mul, a, vectors[j]))
    return rows


class TransitionCache:
    """Per-degree h -> m transition matrices, held in memory.

    Entry mu of row lam is the number of non-negative integer
    matrices with row margins lam and column margins mu, computed as
    (K^T K)(lam, mu) from the Kostka table (RSK).  Each degree holds one
    Gram product, as row tuples in ``partitions_of`` order;
    ``degree_matrix`` keys a copy by label.
    """

    def __init__(self):
        self._pairings = {}

    def _pairing(self, degree: int) -> tuple:
        """K^T K as row tuples, one product per pair, and ``_positions``."""
        pairing = self._pairings.get(degree)
        if pairing is None:
            # column i of K is zero below row i
            vectors = [c[: i + 1] for i, c in enumerate(zip(*_kostka(degree)))]
            rows = tuple(map(tuple, _gram(vectors)))
            pairing = self._pairings.setdefault(degree, (rows, _positions(degree)))
        return pairing

    def degree_matrix(self, degree: int) -> dict:
        """Mapping lam -> (mu -> margin count), a keyed copy of ``_pairing``."""
        parts = partitions_of(degree)
        rows = self._pairing(degree)[0]
        return {lam: dict(zip(parts, row)) for lam, row in zip(parts, rows)}

    def stats(self) -> dict:
        return {"entries": sum(len(rows) ** 2 for rows, _ in self._pairings.values())}


_default_cache = TransitionCache()


def transition_cache() -> TransitionCache:
    return _default_cache


def h_to_m(x: SymElement) -> SymElement:
    """Expand an h element in the monomial basis."""
    if x.basis != "h":
        raise BasisMismatchError("h_to_m needs the h basis")
    rows, index = transition_cache()._pairing(x.degree)
    totals = [0] * len(rows)
    for lam, c in x.coeffs.items():
        for j, n in enumerate(rows[index[lam]]):
            totals[j] += c * n
    # _trusted drops the zeros, sums that cancel among them
    parts = partitions_of(x.degree)
    return SymElement._trusted(x.degree, "m", dict(zip(parts, totals)))


@lru_cache(maxsize=None)
def _inverse_transition(degree: int) -> tuple:
    """Inverse of the (symmetric) h->m matrix, as integer row tuples.

    The h->m matrix is K^T K, so its inverse is the Gram matrix K^-1 K^-T.
    """
    # row i of K^-1 is zero before column i: read it from the end
    tails = [row[i:][::-1] for i, row in enumerate(_kostka_inverse(degree))]
    return tuple(map(tuple, _gram(tails)))


def m_to_h(x: SymElement) -> SymElement:
    """Expand a monomial element in the h basis (exact integer inverse)."""
    if x.basis != "m":
        raise BasisMismatchError("m_to_h needs the m basis")
    parts = partitions_of(x.degree)
    vec = [x.coeffs.get(mu, 0) for mu in parts]
    totals = [sum(map(operator.mul, row, vec)) for row in _inverse_transition(x.degree)]
    return SymElement._trusted(x.degree, "h", dict(zip(parts, totals)))


def schur(lam) -> SymElement:
    """Schur function as an h combination.

    For a partition this is column lam of the inverse Kostka table
    (h_mu = sum_lam K(lam, mu) s_lam).  Any other integer sequence keeps
    its Jacobi-Trudi meaning det(h_(lam_i - i + j)): adding the
    staircase and sorting straightens it to a signed partition, or to 0
    when two shifted parts coincide or a part turns negative.
    """
    lam = tuple(lam)
    degree = sum(lam)
    shifted = [p - i for i, p in enumerate(lam)]
    order = sorted(range(len(lam)), key=lambda i: -shifted[i])
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    straight = tuple(shifted[s] + i for i, s in enumerate(order))
    if len(set(shifted)) < len(shifted) or (straight and straight[-1] < 0):
        return SymElement._trusted(degree, "h", {})
    col = _positions(degree)[tuple(p for p in straight if p)]
    return SymElement._trusted(degree, "h", {
        mu: sign * row[col]
        for mu, row in zip(partitions_of(degree), _kostka_inverse(degree))
    })


def hall_inner(x: SymElement, y: SymElement) -> int:
    """Pairing with <h_lam, m_mu> = delta; Schur basis orthonormal.

    Both sides are read in the h basis, where the pairing is K^T K: y's
    labels become positions once, and each term of x reads its row at
    them.
    """
    if x.degree != y.degree:
        raise DegreeMismatchError(
            f"pairing needs equal degrees, got {x.degree} and {y.degree}"
        )
    if x.basis == "m":
        x = m_to_h(x)
    elif x.basis == "s":
        zero = SymElement._trusted(x.degree, "h", {})
        x = sum((c * schur(lam) for lam, c in x.coeffs.items()), zero)
    if y.basis != "h":
        return hall_inner(y, x)  # symmetric: y is expanded as x was
    rows, index = transition_cache()._pairing(x.degree)
    ys = [(index[mu], d) for mu, d in y.coeffs.items()]
    total = 0
    for lam, c in x.coeffs.items():
        row = rows[index[lam]]
        for j, d in ys:
            total += c * d * row[j]
    return total


# ---------------------------------------------------------------------------
# tensor spaces


class TensorElement(_Combination):
    """Integer combination of h-basis tensors over a raw shape.

    The shape is a tuple of non-negative slot degrees; each label is a
    tuple of partitions whose weights match the shape slotwise.  The
    constructor raises ``RealizationError`` on any other label.
    """

    __slots__ = ("shape",)

    def __init__(self, shape, coeffs: dict):
        shape = tuple(int(v) for v in shape)
        cleaned = {}
        for label, c in coeffs.items():
            label = tuple(tuple(p) for p in label)
            if len(label) != len(shape):
                raise RealizationError(
                    f"label {label} has {len(label)} slots, shape {shape}"
                )
            for lam, d in zip(label, shape):
                if not _is_partition(lam) or sum(lam) != d:
                    raise RealizationError(
                        f"label {label} does not match shape {shape}"
                    )
            if c:
                cleaned[label] = cleaned.get(label, 0) + int(c)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(
            self, "coeffs", {k: v for k, v in cleaned.items() if v}
        )

    @classmethod
    def _trusted(cls, shape: tuple, coeffs: dict) -> "TensorElement":
        """Build without validation, dropping zero coefficients.

        For results of operations on valid elements only: ``shape`` is a
        tuple of ints and every label already matches it slotwise.
        """
        el = object.__new__(cls)
        object.__setattr__(el, "shape", shape)
        object.__setattr__(el, "coeffs", {k: v for k, v in coeffs.items() if v})
        return el

    def _like(self, coeffs):
        return TensorElement._trusted(self.shape, coeffs)

    @classmethod
    def zero(cls, shape) -> "TensorElement":
        return cls(shape, {})

    @classmethod
    def basis(cls, label) -> "TensorElement":
        label = tuple(tuple(p) for p in label)
        return cls(tuple(sum(p) for p in label), {label: 1})

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if other.shape != self.shape:
            if self.is_zero and not other.is_zero:
                return other
            if other.is_zero:
                return self
            raise RealizationError(f"shape mismatch {self.shape} vs {other.shape}")
        return self._like(self._merged(other))

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.shape == other.shape and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TensorElement({self.shape!r}, {self.coeffs!r})"

    def __str__(self):
        return format_tensor(self)


def _comult_action(slot: int, d1: int, splittings=_comult_table):
    """Coefficient map of comultiplying ``slot`` with left degree d1."""

    def act(coeffs: dict) -> dict:
        out = {}
        for label, c in coeffs.items():
            head, tail = label[:slot], label[slot + 1:]
            for mu, nu, d in splittings(label[slot])[d1]:
                key = head + (mu, nu) + tail
                out[key] = out.get(key, 0) + c * d
        return out

    return act


def _mult_action(slot: int):
    """Coefficient map of multiplying ``slot`` and ``slot + 1``."""

    def act(coeffs: dict) -> dict:
        out = {}
        for label, c in coeffs.items():
            key = (
                label[:slot]
                + (_merge_labels(label[slot], label[slot + 1]),)
                + label[slot + 2:]
            )
            out[key] = out.get(key, 0) + c
        return out

    return act


def _permute_action(sources: tuple):
    """Coefficient map of reordering slots; a bijection on labels."""

    def act(coeffs: dict) -> dict:
        return {
            tuple([label[s] for s in sources]): c for label, c in coeffs.items()
        }

    return act


def tensor_comult_component(
    el: TensorElement, slot: int, d1: int, d2: int
) -> TensorElement:
    """Split ``slot`` into degrees (d1, d2) by comultiplication."""
    shape = el.shape
    if not 0 <= slot < len(shape) or min(d1, d2) < 0 or shape[slot] != d1 + d2:
        raise RealizationError(
            f"cannot split slot {slot} of shape {shape} into ({d1},{d2})"
        )
    out_shape = shape[:slot] + (d1, d2) + shape[slot + 1:]
    return TensorElement._trusted(out_shape, _comult_action(slot, d1)(el.coeffs))


def tensor_mult_slots(el: TensorElement, slot: int) -> TensorElement:
    """Multiply ``slot`` and ``slot + 1`` into a single slot."""
    shape = el.shape
    if not 0 <= slot < len(shape) - 1:
        raise RealizationError(f"cannot join slot {slot} of shape {shape}")
    out_shape = shape[:slot] + (shape[slot] + shape[slot + 1],) + shape[slot + 2:]
    return TensorElement._trusted(out_shape, _mult_action(slot)(el.coeffs))


def tensor_permute(el: TensorElement, sources) -> TensorElement:
    """Reorder slots: output slot p is input slot ``sources[p]``."""
    sources = tuple(sources)
    if sorted(sources) != list(range(len(el.shape))):
        raise RealizationError(f"bad slot permutation {sources}")
    shape = tuple(el.shape[s] for s in sources)
    return TensorElement._trusted(shape, _permute_action(sources)(el.coeffs))


# ---------------------------------------------------------------------------
# additive label codes (the coalgebra sweeps' label format)


def _label_code(lam, width: int) -> int:
    """Code of a partition: the sum of 2**(width * (p - 1)) over its parts p.

    Field p - 1 holds the multiplicity of p, so merging labels adds
    codes.  Fields never carry into each other when no multiplicity
    reaches 2**width, as holds for labels of degree below 2**width.
    """
    return sum(1 << width * (p - 1) for p in lam)


def _decode_label(code: int, width: int) -> tuple:
    """The partition of ``_label_code``, largest part first."""
    parts, p, mask = [], 1, (1 << width) - 1
    while code:
        parts += [p] * (code & mask)
        code >>= width
        p += 1
    return tuple(reversed(parts))


def _stray_splitting(lam, part, degree) -> RealizationError:
    """The error for a splitting of h_lam whose ``part`` should be a
    partition of ``degree`` and is not."""
    return RealizationError(
        f"splitting of h{list(lam)}: {part} is not a partition of {degree}"
    )


class _CodedTables(dict):
    """One sweep's tables, all read from one ``realization``.

    Labels of degree at most ``degree`` get additive codes of width
    W = ``degree.bit_length()``, and slot j of a tensor label contributes
    its label code times 2**(j * H), H = W * ``degree`` being above every
    label code.  A pair (mu, nu) thus gets code(mu) + code(nu) * 2**H,
    and a product of tensors slot by slot is a sum of codes.

    ``tables[lam]`` is the realization's ``_splittings(lam)`` group by
    group, each group a dict {pair code: coeff} without zero coefficients.
    Group u must hold left labels of degree u and right labels of degree
    |lam| - u, or building it raises ``RealizationError``: so no code lies
    in two groups, and ``whole(lam)``, the union of the groups, is a
    disjoint union whose left degrees split it back into them.
    ``row_expansions(row, columns)`` reads the same hook under the same
    rule.  It, ``code(lam)`` and ``whole(lam)`` are memos too.
    ``summed_towers`` values towers on them, a tower group keeps its
    blocks' sums in ``blocks``, a route its coproducts in ``coproducts``
    and its split word with that word's value in ``splits``, and
    ``steps`` holds the realization's step tables
    (:class:`_StepTables`), whose shuffle ids index ``shuffles``, a
    relation walk's list.  All live as long as this dict: one sweep.
    """

    def __init__(self, realization, degree: int, shuffles=()):
        super().__init__()
        self.realization = realization
        self.steps = _StepTables(realization, shuffles)
        self.width = degree.bit_length()
        self.shift = self.width * degree
        self.mask = (1 << self.shift) - 1
        self._codes = {}
        self._wholes = {}
        self._rows = {}
        self.blocks = {}  # (alpha run, beta run) -> (#matrices, summed towers)
        self.coproducts = {}  # (gamma parts, beta parts) -> a route's coproducts
        self.splits = {}  # (gamma parts, alpha parts) -> (split word, its value)

    def __missing__(self, lam):
        pair, n, table = self.pair_code, sum(lam), []
        for u, group in enumerate(self.realization._splittings(lam)):
            left, right = _positions(u), _positions(n - u) if u <= n else {}
            coded = {}
            for mu, nu, c in group:
                if mu not in left:
                    raise _stray_splitting(lam, mu, u)
                if nu not in right:
                    raise _stray_splitting(lam, nu, n - u)
                if c:
                    coded[pair(mu, nu)] = c
            table.append(coded)
        table = self[lam] = tuple(table)
        return table

    def code(self, lam) -> int:
        """``_label_code(lam)`` at this width."""
        try:
            return self._codes[lam]
        except KeyError:
            code = self._codes[lam] = _label_code(lam, self.width)
            return code

    def pair_code(self, mu, nu) -> int:
        return self.code(mu) + (self.code(nu) << self.shift)

    def decode(self, shape, coeffs: dict) -> TensorElement:
        """{code: coeff} as an element of ``shape``, zeros dropped.

        Only the number of slots is read from ``shape``.
        """
        width, shift, mask = self.width, self.shift, self.mask
        slots = range(len(shape))
        return TensorElement._trusted(tuple(shape), {
            tuple(_decode_label((k >> shift * j) & mask, width) for j in slots): c
            for k, c in coeffs.items()
        })

    def whole(self, lam) -> dict:
        """The union of ``self[lam]``'s groups, disjoint by construction."""
        try:
            return self._wholes[lam]
        except KeyError:
            whole = self._wholes[lam] = {}
            for group in self[lam]:
                whole.update(group)
            return whole

    def row_expansions(self, row, columns) -> tuple:
        """One matrix row's tower pieces, coded, for each label of its degree.

        ``row`` holds a matrix row's nonzero entries.  Entry i of the
        result belongs to ``partitions_of(sum(row))[i]``: the (code,
        coeff) pairs of comultiplying that label into pieces of degrees
        ``row``, peeling the last piece first as the merge chain does,
        with piece k coded in slot ``columns[k]``.  So a label's pieces are
        its splittings (mu, nu) at left degree ``sum(row[:-1])``, each
        with mu's pieces, read from the memoized expansions of the row's
        prefix, and nu in the last column.
        """
        key = (row, columns)
        found = self._rows.get(key)
        if found is None:
            code, shift = self.code, self.shift
            if len(row) == 1:
                slot = shift * columns[0]
                found = tuple(((code(lam) << slot, 1),) for lam in partitions_of(row[0]))
            else:
                d1 = sum(row[:-1])
                heads = self.row_expansions(row[:-1], columns[:-1])
                positions, splittings = _positions(d1), self.realization._splittings
                slot, expansions = shift * columns[-1], []
                for lam in partitions_of(sum(row)):
                    out = {}
                    get = out.get
                    for mu, nu, c in splittings(lam)[d1]:
                        try:
                            head = heads[positions[mu]]
                        except KeyError:  # a faulty splitting left the degree
                            raise _stray_splitting(lam, mu, d1) from None
                        tail = code(nu) << slot
                        for k, d in head:
                            k += tail
                            out[k] = get(k, 0) + c * d
                    expansions.append(tuple(out.items()))
                found = tuple(expansions)
            self._rows[key] = found
        return found

    def summed_towers(self, domain_shape, matrices) -> list:
        """The towers of ``matrices`` summed, on each basis label of A(domain).

        Returns one {code: coeff} per element of ``tensor_basis(domain_shape)``,
        in that order, zeros kept.  Each matrix must have row margins
        ``domain_shape``, and these tables must be wide enough for its
        column sums.  Its tower comultiplies every slot into the nonzero
        entries of its row, as ``row_expansions`` codes them; sends each
        piece to its column, read through ``slot_sources(K)``; and
        multiplies each column's pieces, which on codes is adding them.  No
        word is built.  The basis is walked matrix by matrix, slot by slot
        (:func:`_add_towers`), so labels that share a prefix share its
        partial sums; slot 0's pieces are the first partial sums, and a
        one-row matrix adds its pieces straight into the totals.
        """
        totals = [{} for _ in itertools.product(*map(partitions_of, domain_shape))]
        for K in matrices:
            # the column of each nonzero cell, in column-major order
            cell_column = [j for j in range(K.ncols) for row in K.entries if row[j]]
            columns = [cell_column[s] for s in slot_sources(K)]
            factors, start = [], 0
            for row in K.entries:
                row = tuple(filter(None, row))
                end = start + len(row)
                factors.append(self.row_expansions(row, tuple(columns[start:end])))
                start = end
            if len(factors) > 1:
                pos = 0
                for partial in factors[0]:
                    pos = _add_towers(factors, 1, partial, totals, pos)
            else:  # one row, or none: A(()) is spanned by (), coded 0
                for total, pieces in zip(totals, (factors or [(((0, 1),),)])[0]):
                    get = total.get
                    for k, c in pieces:
                        total[k] = get(k, 0) + c
        return totals

    def swap(self, code: int) -> int:
        """The code of (nu, mu) from that of (mu, nu)."""
        return (code >> self.shift) + ((code & self.mask) << self.shift)

    def swapped(self, coeffs: dict) -> dict:
        """``coeffs`` with every code swapped."""
        shift, mask = self.shift, self.mask
        return {(k >> shift) + ((k & mask) << shift): c for k, c in coeffs.items()}

    def graded(self, coeffs: dict) -> dict:
        """{pair code: coeff} as nonzero {(i, j): TensorElement}, by bidegree."""
        buckets = {}
        # a two-slot decode: each pair's bidegree is read off its labels
        for pair, c in self.decode((0, 0), coeffs).coeffs.items():
            buckets.setdefault((sum(pair[0]), sum(pair[1])), {})[pair] = c
        return {
            key: TensorElement._trusted(key, buckets[key]) for key in sorted(buckets)
        }


def _add_towers(factors, slot, partial, totals, pos) -> int:
    """Add one matrix's towers on the basis labels from ``slot`` on.

    ``factors[i]`` holds slot i's coded row expansions, one per label in
    ``partitions_of`` order; ``partial`` is the (code, coeff) pairs of
    the earlier slots' pieces, summed, with no code twice; the first
    label reached adds into ``totals[pos]``.  Returns the position after
    the last label reached.
    """
    # Module-level rather than a closure, for the reason _grow_rows gives.
    last = slot == len(factors) - 1
    for expansion in factors[slot]:
        out = totals[pos] if last else {}
        get = out.get
        for k1, c1 in partial:
            for k2, c2 in expansion:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        if last:
            pos += 1
        else:
            pos = _add_towers(factors, slot + 1, out.items(), totals, pos)
    return pos


class _StepTables(dict):
    """Basis tables of generator steps, each built on its first lookup.

    They value the relation sweeps' chains and the tower routes' split
    chains; only :class:`_CodedTables` builds them, as its ``steps``.
    ``tables[key]`` has one row per basis label of the step's codomain,
    in ``tensor_basis`` order: the generator applied to that label by the
    realization's step hook ``_action``, read by position in the
    domain's basis.  A row is that position, an int, when every image
    is one label with coefficient 1 (every split and shuffle), and else a
    ``{position: coeff}`` without zeros.  Keys are ``category._step``
    keys: ``(generator, domain)``, or a shuffle's int id, whose matrix is
    read from ``shuffles`` only when its table is built.  Labels and
    positions are built once per composition, from ``_basis_labels``,
    and everything lives as long as this dict: one sweep.
    """

    def __init__(self, realization, shuffles):
        super().__init__()
        self.realization = realization
        self.shuffles = shuffles
        self.bases = {}  # parts -> (labels, {label: position})

    def _basis(self, parts):
        basis = self.bases.get(parts)
        if basis is None:
            labels = self.realization._basis_labels(parts)
            basis = self.bases[parts] = labels, {k: p for p, k in enumerate(labels)}
        return basis

    def __missing__(self, key):
        g, domain = _step(key, self.shuffles)
        act = self.realization._action(g, domain)
        labels = self._basis(apply_generator(g, domain).parts)[0]
        index = self._basis(domain.parts)[1]
        images = [act({label: 1}) for label in labels]
        try:
            rows = tuple({index[k]: v for k, v in img.items() if v} for img in images)
        except KeyError as exc:  # a faulty action left the domain's basis
            raise RealizationError(f"step {g}: {exc} is not a basis label of A{domain}")
        if all(list(row.values()) == [1] for row in rows):
            rows = tuple(p for row in rows for p in row)
        self[key] = rows
        return rows


# ---------------------------------------------------------------------------
# the contravariant realization


class RealizedMap:
    """Linear map between tensor spaces, evaluated lazily per element."""

    __slots__ = ("domain_shape", "codomain_shape", "_fn")

    def __init__(self, domain_shape, codomain_shape, fn):
        object.__setattr__(self, "domain_shape", tuple(domain_shape))
        object.__setattr__(self, "codomain_shape", tuple(codomain_shape))
        object.__setattr__(self, "_fn", fn)

    def __setattr__(self, name, value):
        raise AttributeError("RealizedMap is immutable")

    def __call__(self, el: TensorElement) -> TensorElement:
        if el.shape != self.domain_shape:
            raise RealizationError(
                f"element shape {el.shape} does not match map domain "
                f"{self.domain_shape}"
            )
        return self._fn(el)


class PshRealization:
    """Realize category words on the symmetric-functions tensor spaces.

    Contravariant: a word alpha -> beta becomes a map
    A(beta) -> A(alpha).
    """

    def tensor_basis(self, comp) -> list:
        """h-tensor basis of A(comp), in per-slot partition order.

        Labels come from ``partitions_of``, so they need no validation.
        """
        parts = tuple(map(int, comp))
        return [
            TensorElement._trusted(parts, {label: 1})
            for label in self._basis_labels(parts)
        ]

    @staticmethod
    def _basis_labels(parts) -> list:
        """The labels of ``tensor_basis(parts)``, in its order."""
        return list(itertools.product(*map(partitions_of, parts)))

    _splittings = staticmethod(_comult_table)  # h_lam's splitting table, by left degree

    def _action(self, g, domain: Composition):
        """Coefficient map realizing ``g`` out of A(codomain) into A(domain).

        ``g`` must be admissible on ``domain``.
        """
        if isinstance(g, Merge):
            return _comult_action(g.i - 1, domain.parts[g.i - 1], self._splittings)
        if isinstance(g, Split):
            return _mult_action(g.i - 1)
        if isinstance(g, Shuffle):
            return _permute_action(slot_sources(g.K))
        raise RealizationError(f"unknown generator {g!r}")

    def realize_word(self, word) -> RealizedMap:
        """Compile ``word`` into one map, with one shape check on entry.

        Each step's domain is read from ``word.objects``; the last acts first."""
        actions = [self._action(g, d) for g, d in zip(word.steps, word.objects)][::-1]
        shape = word.source.parts

        def fn(el):
            coeffs = el.coeffs
            for act in actions:
                coeffs = act(coeffs)
            return TensorElement._trusted(shape, coeffs)

        return RealizedMap(word.target.parts, shape, fn)


_default_realization = PshRealization()


def default_realization() -> PshRealization:
    return _default_realization


# ---------------------------------------------------------------------------
# formatting (the element syntax used by the CLI and reports)


def _format_label(basis: str, lam) -> str:
    return f"{basis}[{','.join(str(p) for p in lam)}]"


def _joined_terms(terms) -> str:
    if not terms:
        return "0"
    out = []
    for i, (coeff, body) in enumerate(terms):
        mag = abs(coeff)
        piece = body if mag == 1 and body else (
            f"{mag}*{body}" if body else str(mag)
        )
        if i == 0:
            out.append(piece if coeff > 0 else f"-{piece}")
        else:
            out.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(out)


def format_sym(x: SymElement) -> str:
    terms = [
        (x.coeffs[lam], _format_label(x.basis, lam))
        for lam in sorted(x.coeffs, reverse=True)
    ]
    return _joined_terms(terms)


def format_tensor(el: TensorElement) -> str:
    terms = []
    for label in sorted(el.coeffs, reverse=True):
        body = " (x) ".join(_format_label("h", lam) for lam in label)
        terms.append((el.coeffs[label], body))
    return _joined_terms(terms)


def format_graded(components: dict) -> str:
    """Render a {(i, j): TensorElement} sum, degree-sorted."""
    pieces = []
    for key in sorted(components):
        el = components[key]
        if not el.is_zero:
            pieces.append(f"deg{key}: {format_tensor(el)}")
    return "; ".join(pieces) if pieces else "0"
