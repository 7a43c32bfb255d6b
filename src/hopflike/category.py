"""The category of compositions with merge, split and shuffle generators.

Objects are canonical compositions.  Three generator families:

* ``Merge(t, i)`` adds adjacent parts i, i+1 of a length-t composition
  (length -1, sum unchanged);
* ``Split(t, i, a)`` cuts part i into (a, part-a) (length +1);
* ``Shuffle(K)`` rearranges the row-order refinement of a margin matrix
  K into its column-order refinement (length and sum unchanged).

Morphisms are words: a source composition plus a chain of generator
steps.  Equality of words is decided semantically, by evaluating both
sides through a realization on a spanning set of basis elements; the
generator relations enumerated here are checked that way, never by
rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .compositions import Composition, enumerate_compositions, refines
from .contingency import ContingencyMatrix, enumerate_matrices, kappa, sigma_K
from .errors import ChainError, GeneratorDomainError, UsageError


@dataclass(frozen=True)
class Merge:
    """Add parts i and i+1 of a length-t composition (1-based i < t)."""

    t: int
    i: int

    def __str__(self):
        return f"d[{self.t},{self.i}]"


@dataclass(frozen=True)
class Split:
    """Cut part i of a length-t composition into (a, part - a)."""

    t: int
    i: int
    a: int

    def __str__(self):
        return f"s[{self.t},{self.i},{self.a}]"


@dataclass(frozen=True)
class Shuffle:
    """Row-order to column-order rearrangement along a margin matrix."""

    K: ContingencyMatrix

    def __str__(self):
        return f"tau[{self.K}]"


def apply_generator(g, domain: Composition) -> Composition:
    """Codomain of ``g`` on ``domain``; raises if ``g`` is inadmissible."""
    parts = domain.parts
    if isinstance(g, (Merge, Split)) and g.t != len(parts):
        raise GeneratorDomainError(f"{g} needs a length-{g.t} domain, got {domain}")
    if isinstance(g, Merge):
        if not 1 <= g.i <= g.t - 1:
            raise GeneratorDomainError(f"{g} index out of range")
        i = g.i - 1
        return Composition(parts[:i] + (parts[i] + parts[i + 1],) + parts[i + 2:])
    if isinstance(g, Split):
        if not 1 <= g.i <= g.t:
            raise GeneratorDomainError(f"{g} index out of range")
        i = g.i - 1
        if not 0 < g.a < parts[i]:
            raise GeneratorDomainError(
                f"{g} cannot cut part {parts[i]} at {g.a}"
            )
        return Composition(parts[:i] + (g.a, parts[i] - g.a) + parts[i + 1:])
    if isinstance(g, Shuffle):
        kap = kappa(g.K)
        if kap.row != domain:
            raise GeneratorDomainError(
                f"{g} needs domain {kap.row}, got {domain}"
            )
        return kap.col
    raise GeneratorDomainError(f"unknown generator {g!r}")


class MorphismWord:
    """A source composition and a chain of generator steps.

    ``objects`` holds the compositions the chain passes through, from
    ``source`` to ``target``, so step k acts on ``objects[k]``.
    """

    __slots__ = ("source", "steps", "objects", "target")

    def __init__(self, source: Composition, steps=()):
        if not isinstance(source, Composition):
            source = Composition(source)
        steps = tuple(steps)
        objects = [source]
        for idx, g in enumerate(steps):
            try:
                objects.append(apply_generator(g, objects[-1]))
            except GeneratorDomainError as exc:
                raise ChainError(
                    f"step {idx + 1} ({g}) breaks the chain: {exc}",
                    step_index=idx + 1,
                ) from exc
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "objects", tuple(objects))
        object.__setattr__(self, "target", objects[-1])

    def __setattr__(self, name, value):
        raise AttributeError("MorphismWord is immutable")

    def then(self, other: "MorphismWord") -> "MorphismWord":
        """Concatenate words; ``other`` follows ``self``."""
        if self.target != other.source:
            raise ChainError(
                f"cannot compose: first word ends at {self.target}, "
                f"second starts at {other.source}"
            )
        return MorphismWord(self.source, self.steps + other.steps)

    def __eq__(self, other):
        return (
            isinstance(other, MorphismWord)
            and self.source == other.source
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.source, self.steps))

    def __repr__(self):
        return f"MorphismWord({self.source}, {self.steps!r})"

    def __str__(self):
        return print_word(self)


def split_chain(source: Composition, target: Composition) -> MorphismWord:
    """Word of splits from ``source`` to a refinement ``target``.

    Pieces are cut off left to right inside each part, matching the
    two-part worked examples exactly.
    """
    grouping = refines(source, target)
    if grouping is None:
        raise GeneratorDomainError(f"{target} does not refine {source}")
    steps = []
    current = list(source.parts)
    pos = 0  # 0-based position in current
    tpos = 0
    for run in grouping:
        run_parts = target.parts[tpos:tpos + run]
        tpos += run
        for piece in run_parts[:-1]:
            steps.append(Split(len(current), pos + 1, piece))
            rest = current[pos] - piece
            current[pos:pos + 1] = [piece, rest]
            pos += 1
        pos += 1
    return MorphismWord(source, steps)


def merge_chain(source: Composition, target: Composition) -> MorphismWord:
    """Word of merges from ``source`` to a coarsening ``target``."""
    grouping = refines(target, source)
    if grouping is None:
        raise GeneratorDomainError(f"{target} does not coarsen {source}")
    steps = []
    length = len(source.parts)
    pos = 1  # 1-based merge position
    for run in grouping:
        for _ in range(run - 1):
            steps.append(Merge(length, pos))
            length -= 1
        pos += 1
    return MorphismWord(source, steps)


@dataclass(frozen=True)
class RelationInstance:
    left: MorphismWord
    right: MorphismWord
    description: str

    def __post_init__(self):
        if self.left.source != self.right.source or self.left.target != self.right.target:
            raise ChainError(
                f"relation sides disagree: {self.left.source}->{self.left.target}"
                f" vs {self.right.source}->{self.right.target}"
            )


def enumerate_relation_instances(family: str, max_sum: int, max_len: int) -> list:
    """All admissible instances of one relation family within bounds, as a list.

    Families: ``dd`` (merge-merge), ``ss`` (split-split) and ``tautau``
    (shuffle chains with equal underlying permutations), by sorted
    source; tautau yields a source's instances in chain order.  Each
    instance is built by ``_relation_instance`` from one tuple of the
    family's walk, ``_relation_chains``; the sweep,
    :func:`hopflike.hopfverify.check_relation_family`, reads the same
    walk and builds an instance only for a failure.  The mixed family
    holds only for towers summed over a coarsening, so it has no
    single-word instances: :func:`hopflike.hopfverify.check_mixed_relations`
    checks it.
    """
    shuffles, chains = _relation_chains(family, max_sum, max_len)
    return [_relation_instance(*chain, shuffles) for chain in chains]


def _relation_chains(family, max_sum, max_len):
    """One family's walk, as ``(shuffles, chains)``.

    ``chains`` yields ``(source, left, right, info)`` tuples: ``left``
    and ``right`` are chains of step keys (:func:`_step`) from ``source``
    to one target, and ``info`` is the description's template and its
    fields after the source.  A shuffle's key is its id, its index in
    the list ``shuffles`` (empty but for tautau).  tautau's tuples are
    its batches flattened.  Bad bounds or family raise at the call.
    """
    if family == "tautau":
        shuffles, batches = _tautau_batches(max_sum, max_len)
        return shuffles, (
            _tautau_tuple(source, k1, *instance, shuffles)
            for source, k1, instances in batches
            for instance in instances
        )
    _check_bounds(max_sum, max_len)
    walks = {"dd": _dd_chains, "ss": _ss_chains}
    if family not in walks:
        raise UsageError(f"unknown relation family {family!r}")
    return [], walks[family](max_sum, max_len)


def _check_bounds(max_sum, max_len):
    if max_sum < 1 or max_len < 1:
        raise UsageError("bounds must be >= 1")


def _all_compositions(max_sum, max_len):
    out = []
    for n in range(max_sum + 1):
        out.extend(enumerate_compositions(n, max_len))
    return out


def _step(key, shuffles):
    """``(generator, domain)`` of a step key: an int is a shuffle's id,
    ``Shuffle(K)`` on kappa(K).row for K = ``shuffles[key]``; a merge or
    split key is the pair."""
    if type(key) is int:
        K = shuffles[key]
        return Shuffle(K), kappa(K).row
    return key


def _chain(source, g, h) -> tuple:
    """The step keys of ``g`` and then ``h`` from ``source``."""
    return (g, source), (h, apply_generator(g, source))


def _dd_chains(max_sum, max_len):
    for comp in _all_compositions(max_sum, max_len):
        t = comp.length
        if t < 3:
            continue
        for i in range(1, t):
            for j in range(1, i - 1):
                # d[t-1,j] . d[t,i] = d[t-1,i-1] . d[t,j]   (j <= i-2)
                yield (
                    comp, _chain(comp, Merge(t, i), Merge(t - 1, j)),
                    _chain(comp, Merge(t, j), Merge(t - 1, i - 1)),
                    ("dd:far-apart {} i={} j={}", i, j),
                )
        for i in range(2, t):
            # d[t-1,i-1] . d[t,i] = d[t-1,i-1] . d[t,i-1]
            yield (
                comp, _chain(comp, Merge(t, i), Merge(t - 1, i - 1)),
                _chain(comp, Merge(t, i - 1), Merge(t - 1, i - 1)),
                ("dd:adjacent-left {} i={}", i),
            )
        for i in range(1, t - 1):
            # d[t-1,i] . d[t,i] = d[t-1,i] . d[t,i+1]
            yield (
                comp, _chain(comp, Merge(t, i), Merge(t - 1, i)),
                _chain(comp, Merge(t, i + 1), Merge(t - 1, i)),
                ("dd:adjacent-right {} i={}", i),
            )
        for i in range(1, t):
            for j in range(i + 1, t):
                # d[t-1,j-1] . d[t,i] = d[t-1,i] . d[t,j]   (j >= i+1)
                yield (
                    comp, _chain(comp, Merge(t, i), Merge(t - 1, j - 1)),
                    _chain(comp, Merge(t, j), Merge(t - 1, i)),
                    ("dd:ordered {} i={} j={}", i, j),
                )


def _ss_chains(max_sum, max_len):
    for comp in _all_compositions(max_sum, max_len):
        t = comp.length
        if t == 0:
            continue
        parts = comp.parts
        for i in range(1, t + 1):
            ni = parts[i - 1]
            for j in range(1, i):
                nj = parts[j - 1]
                if min(ni, nj) < 2:
                    continue
                for a in range(1, ni):
                    for b in range(1, nj):
                        # s[t+1,j,b] . s[t,i,a] = s[t+1,i+1,a] . s[t,j,b]
                        yield (
                            comp, _chain(comp, Split(t, i, a), Split(t + 1, j, b)),
                            _chain(comp, Split(t, j, b), Split(t + 1, i + 1, a)),
                            ("ss:left-of {} i={} j={} a={} b={}", i, j, a, b),
                        )
            for a in range(1, ni):
                for b in range(1, a):
                    # s[t+1,i,b] . s[t,i,a] = s[t+1,i+1,a-b] . s[t,i,b]
                    yield (
                        comp, _chain(comp, Split(t, i, a), Split(t + 1, i, b)),
                        _chain(comp, Split(t, i, b), Split(t + 1, i + 1, a - b)),
                        ("ss:same-part {} i={} a={} b={}", i, a, b),
                    )
            for a in range(2, ni):
                for b in range(1, ni - a):
                    # s[t+1,i+1,b] . s[t,i,a] = s[t+1,i,a] . s[t,i,a+b]
                    yield (
                        comp, _chain(comp, Split(t, i, a), Split(t + 1, i + 1, b)),
                        _chain(comp, Split(t, i, a + b), Split(t + 1, i, a)),
                        ("ss:right-piece {} i={} a={} b={}", i, a, b),
                    )
            for j in range(i + 2, t + 1):
                nj = parts[j - 1]
                if min(ni, nj) < 2:
                    continue
                for a in range(1, ni):
                    for b in range(1, nj):
                        # s[t+1,j+1,b] . s[t,i,a] = s[t+1,i,a] . s[t,j,b]
                        yield (
                            comp, _chain(comp, Split(t, i, a), Split(t + 1, j + 1, b)),
                            _chain(comp, Split(t, j, b), Split(t + 1, i, a)),
                            ("ss:right-of {} i={} j={} a={} b={}", i, j, a, b),
                        )


def _shuffles_by_source(max_sum, max_len):
    """All shuffles within bounds, as ``(shuffles, by_source)``.

    ``shuffles`` lists their margin matrices, and a shuffle's id is its
    index there; ``by_source`` holds ``(id, target, sigma_K(K))`` by source.
    """
    comps = _all_compositions(max_sum, max_len)
    shuffles, by_source = [], {}
    for alpha in comps:
        if alpha.length == 0:
            continue
        for beta in comps:
            if beta.sum != alpha.sum or beta.length == 0:
                continue
            for K in enumerate_matrices(alpha, beta):
                kap = kappa(K)
                by_source.setdefault(kap.row, []).append(
                    (len(shuffles), kap.col, sigma_K(K))
                )
                shuffles.append(K)
    return shuffles, by_source


def _tautau_batches(max_sum, max_len):
    """``(shuffles, batches of _tautau_chains)``; bad bounds raise here."""
    _check_bounds(max_sum, max_len)
    shuffles, by_source = _shuffles_by_source(max_sum, max_len)
    return shuffles, _tautau_chains(shuffles, by_source)


def _tautau_chains(shuffles, by_source):
    """The tautau walk: a batch ``(source, k1, instances)`` per source and
    first shuffle k1 that has instances, in instance order.

    A chain's shuffles are applied left to right from ``source``.
    Two-shuffle chains from ``source`` to ``target`` are grouped by their
    composite position images.  An instance ``(first, k2, info)`` checks
    the chain ``(k1, k2)`` of a group against ``first``, the group's
    first chain (one tuple per group), or, once, when the group opens,
    ``first = (k1, k2)`` against the single shuffle with the same images:
    then ``info``, the description's template and fields after the
    source, ends in that shuffle's id k3.  Only one chain per group is
    held.
    """
    for source in sorted(by_source):
        singles = {}
        for k3, target, images in by_source[source]:
            singles.setdefault((target.parts, images), k3)
        groups = {}  # (target parts, composite images) -> (first chain, info)
        for k1, mid, images1 in by_source[source]:
            # the second shuffle's images read at the first's, a tuple:
            # on one slot (images (1,)) itemgetter would give a bare int
            pick = itemgetter(*[v - 1 for v in images1])
            composite = pick if len(images1) > 1 else tuple
            instances = []
            for k2, target, images2 in by_source.get(mid, ()):
                key = (target.parts, composite(images2))
                group = groups.get(key)
                if group is not None:
                    first, info = group
                    instances.append((first, k2, info))
                    continue
                first = (k1, k2)
                groups[key] = first, ("tautau:equal-chains {}->{}", target)
                k3 = singles.get(key)
                if k3 is not None:
                    # the chain collapses to a single shuffle
                    instances.append(
                        (first, k2, ("tautau:chain-vs-step {}->{} K3={}", target, k3))
                    )
            if instances:
                yield source, k1, instances


def _tautau_tuple(source, k1, first, k2, info, shuffles) -> tuple:
    """A tautau batch's instance as a tuple of ``_relation_chains``."""
    if len(info) == 2:  # equal chains
        return source, first, (k1, k2), info
    template, target, k3 = info
    return source, first, (k3,), (template, target, shuffles[k3])


def _relation_instance(source, left, right, info, shuffles) -> RelationInstance:
    """One tuple of a family's walk, whose shuffle ids index ``shuffles``,
    as two words and a description."""
    template, *fields = info
    left, right = (
        MorphismWord(source, [_step(key, shuffles)[0] for key in chain])
        for chain in (left, right)
    )
    return RelationInstance(left, right, template.format(source, *fields))


def semantic_equal(left: MorphismWord, right: MorphismWord, realization=None):
    """Compare two parallel words through a realization.

    Returns ``(True, None)`` or ``(False, (basis_label, left_value,
    right_value))`` with the first differing basis element of the
    target's realization (a word alpha -> beta realizes as a map
    A(beta) -> A(alpha), so evaluation runs over the basis of A(beta)).
    """
    if left.source != right.source or left.target != right.target:
        raise ChainError(
            f"words are not parallel: {left.source}->{left.target} vs "
            f"{right.source}->{right.target}"
        )
    if realization is None:
        from .symfunc import default_realization

        realization = default_realization()
    lmap = realization.realize_word(left)
    rmap = realization.realize_word(right)
    for basis_el in realization.tensor_basis(left.target):
        lv = lmap(basis_el)
        rv = rmap(basis_el)
        if lv != rv:
            label = next(iter(basis_el.coeffs))
            return False, (label, lv, rv)
    return True, None


def print_word(word: MorphismWord) -> str:
    """Inverse of :func:`hopflike.parsing.parse_word`."""
    pieces = [str(word.source)]
    pieces.extend(str(g) for g in word.steps)
    return " ; ".join(pieces)
