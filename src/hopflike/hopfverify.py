"""Identity sweeps on the realized composition category.

Four layers of checks, all exact:

* Hopf compatibility of the graded multiplication and comultiplication;
* the square condition: split-shuffle-merge towers against the
  merge-then-split route, in a summed and a per-matrix reading (the
  per-matrix reading is false and the recorded counterexample is kept
  as a fixture);
* the worked two-margin diagrams, including the block-diagonal case;
* the bidegree-(1,2) machinery: the modified multiplication that kills
  triple products, its Hopf defect, and the six-term expansion that
  equals the defect.

The six-term expansion follows the displayed six maps, with one
correction: each of the six index lines meets two neighbouring lines in
a corner term, and summing all six closed ranges would count every
corner twice.  Corners are assigned to the lowest-numbered map that
covers them, which makes the expansion equal the defect exactly.

README.md describes the coded engines: each sweep's one ``symfunc._CodedTables``,
read from the default realization, with label codes for the coalgebra and tower
sweeps and basis-position step tables (``steps``) for the relation sweeps.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice, permutations, product
from math import prod
from operator import itemgetter

from .compositions import (
    Composition,
    _exact_length,
    common_coarsenings,
    refines,
)
from .contingency import enumerate_matrices
from .category import (
    _all_compositions,
    _check_bounds,
    _relation_chains,
    _relation_instance,
    _tautau_batches,
    _tautau_tuple,
    semantic_equal,
    split_chain,
)
from .errors import RealizationError, SumMismatchError, UsageError
from .reports import VerificationReport
from .symfunc import (
    TensorElement,
    _CodedTables,
    default_realization,
    format_graded,
    format_tensor,
    partitions_of,
    _merge_labels,
)


# ---------------------------------------------------------------------------
# Hopf compatibility of one graded piece


def check_hopf_compat(max_degree: int) -> VerificationReport:
    """Compare comult(x*y) with the shuffled product of comults.

    Labels are pair codes of ``_CodedTables``, so the product of two
    splittings is one add, and a splitting's left degree is read off its
    code.  Group u of a coded table holds exactly the splittings of left
    degree u, so comult(x*y) is the union of its (j, a+b-j) pieces and the
    product of the whole tables of x and y is the union of the sums over
    u+v = j of (x_u * y_v) (x) (x_rest * y_rest).  One comparison of whole
    tables thus gives the verdict of all the per-j comparisons.  Only an
    input that fails is split by j (:func:`_shuffled_components`), so that
    each failing component is recorded on its own.

    Codes add and coefficients multiply commutatively, so the product is
    built once for (x, y) and (y, x) and compared with each order's own
    comult(x*y).  A merged label whose degree is not a+b, which only a
    faulty ``_merge_labels`` gives, raises ``RealizationError``.
    """
    if max_degree < 1:
        raise UsageError("max_degree must be >= 1")
    report = VerificationReport("hopf-compat", {"max_degree": max_degree})
    tables = _CodedTables(default_realization(), max_degree)
    whole = tables.whole
    failures = []  # (input-order key, failure fields)
    for a in range(max_degree + 1):
        for b in range(a, max_degree - a + 1):
            for i, lam in enumerate(partitions_of(a)):
                for k, mu in enumerate(partitions_of(b)):
                    if a == b and k < i:
                        continue  # the pair was visited as (mu, lam)
                    inputs = [((a, b), (i, k), lam, mu)]
                    if a != b or i != k:
                        inputs.append(((b, a), (k, i), mu, lam))
                    report.checked += len(inputs)
                    right = _times(whole(lam), whole(mu), {})
                    components = None
                    for degrees, index, x, y in inputs:
                        merged = _merge_labels(x, y)
                        left = whole(merged)
                        # whole() has no zero coefficient: compare raw first
                        if left == right or left == _nonzero(right):
                            continue
                        if sum(merged) != a + b:  # its groups are not the components j
                            raise RealizationError(
                                f"h{list(x)} * h{list(y)} merges into h{list(merged)},"
                                f" of degree {sum(merged)}, not {a + b}"
                            )
                        if components is None:
                            components = _shuffled_components(tables, lam, mu)
                        for j in range(a + b + 1):
                            left, right_j = tables[merged][j], components[j]
                            if left == right_j or left == _nonzero(right_j):
                                continue
                            shape = (j, a + b - j)
                            failures.append(((degrees, index, j), (
                                "degrees a={} b={} component j={}".format(*degrees, j),
                                f"h{list(x)} (x) h{list(y)}",
                                format_tensor(tables.decode(shape, left)),
                                format_tensor(tables.decode(shape, right_j)),
                            )))
    for _, fields in sorted(failures):
        report.record(*fields)
    return report


def _times(xs: dict, ys: dict, out: dict) -> dict:
    """Add the product of two coded combinations into ``out``, and return
    it: codes add and coefficients multiply.  Zero coefficients are kept."""
    get = out.get
    ys = ys.items()
    for k1, c1 in xs.items():
        for k2, c2 in ys:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _shuffled_components(tables, lam, mu) -> list:
    """comult(h_lam) * comult(h_mu) by left degree: entry j sums
    ``tables[lam][u] * tables[mu][v]`` over u + v = j, zeros kept."""
    xs, ys = tables[lam], tables[mu]
    out = [{} for _ in range(len(xs) + len(ys) - 1)]
    for u, xu in enumerate(xs):
        for v, yv in enumerate(ys):
            _times(xu, yv, out[u + v])
    return out


def _nonzero(coeffs: dict) -> dict:
    return {k: v for k, v in coeffs.items() if v}


# ---------------------------------------------------------------------------
# square condition (towers through a margin matrix)


def _route_comparison(alpha, beta, gamma, tables: _CodedTables):
    """Compare summed towers of (alpha, beta) with the route via gamma.

    The route multiplies alpha down to gamma, then comultiplies out to
    beta.  The coproduct is the tower of gamma's diagonal, the one matrix
    of (gamma, beta) factoring through gamma, from :func:`_factored_towers`
    and kept in ``tables.coproducts``; the product is read off positions,
    A(alpha) -> A(gamma), from ``tables.steps`` by :func:`_chain_value`,
    and kept with its split word in ``tables.splits``.  The returned
    function takes a group's towers, summed in the layout of
    ``summed_towers``, and yields ``(element, towers_sum, route)``, both
    decoded, for each basis element where they differ from the route.
    Only there is the split word realized, once, and its value must be
    the tables', or the sweep raises.
    """
    steps = tables.steps
    labels = steps._basis(gamma.parts)[0]
    found = tables.splits.get((gamma.parts, alpha.parts))
    if found is None:  # once per (gamma, alpha) in a sweep
        word = split_chain(gamma, alpha)
        chain = tuple(zip(word.steps, word.objects))
        found = tables.splits[gamma.parts, alpha.parts] = word, (
            _chain_value(steps, chain) if chain else range(len(labels))
        )
    word, split = found
    coded = tables.coproducts.get((gamma.parts, beta.parts))
    if coded is None:  # once per (gamma, beta) in a sweep
        towers = _factored_towers(gamma, beta, gamma, tables)[1]
        coded = tables.coproducts[gamma.parts, beta.parts] = list(map(_nonzero, towers))
    # a faulty product can make a split value linear: it sums labels' routes
    routes = [coded[p] if type(p) is int else _applied(coded, p) for p in split]
    decode, witnesses, realized = tables.decode, {}, None

    def mismatches(totals):
        nonlocal realized
        for i, (total, route) in enumerate(zip(totals, routes)):
            # the towers keep zeros and the route has none: compare raw first
            if total == route or _nonzero(total) == route:
                continue
            if i not in witnesses:  # the word's value there must be the tables'
                el = witnesses[i] = TensorElement.basis(steps._basis(alpha.parts)[0][i])
                want = _expanded(split[i:i + 1])[0]
                if realized is None:  # on the first failure
                    realized = steps.realization.realize_word(word)
                if realized(el).coeffs != {labels[q]: c for q, c in want.items()}:
                    raise RuntimeError(f"step tables and the split word disagree on {el}")
            yield witnesses[i], decode(beta.parts, total), decode(beta.parts, route)

    return mismatches


def _record_first(report, instance, mismatches):
    """Record the first of ``mismatches``, if any, under ``instance``."""
    for mismatch in islice(mismatches, 1):
        report.record(instance, *map(format_tensor, mismatch))


def check_square_condition(alpha, beta, reading: str = "summed") -> VerificationReport:
    """Towers through every margin matrix against the coarse route.

    The route multiplies alpha down to ``(n)`` and comultiplies out to
    beta.  In the ``summed`` reading the towers are added over all
    matrices with the given margins before comparing; in the ``per-k``
    reading every matrix is compared alone, which records genuine
    counterexamples (kept as fixtures).
    """
    if reading not in ("summed", "per-k"):
        raise UsageError(f"unknown reading {reading!r}")
    alpha, beta = Composition(alpha), Composition(beta)
    if alpha.sum != beta.sum:
        raise SumMismatchError(f"margins {alpha} and {beta} have different sums")
    report = VerificationReport(
        "square-condition",
        {"alpha": str(alpha), "beta": str(beta), "reading": reading},
    )
    gamma = Composition([alpha.sum])
    matrices = enumerate_matrices(alpha, beta)
    tables = _CodedTables(default_realization(), alpha.sum)
    mismatches = _route_comparison(alpha, beta, gamma, tables)
    if reading == "summed":
        report.checked += prod(len(partitions_of(p)) for p in alpha.parts)
        instance = (
            f"alpha={alpha} beta={beta} gamma={gamma} "
            f"#K={len(matrices)} reading=summed"
        )
        for mismatch in mismatches(tables.summed_towers(alpha.parts, matrices)):
            report.record(instance, *map(format_tensor, mismatch))
    else:
        for K in matrices:
            report.checked += 1
            _record_first(
                report,
                f"alpha={alpha} beta={beta} gamma={gamma} K={K} reading=per-k",
                mismatches(tables.summed_towers(alpha.parts, [K])),
            )
    return report


# ---------------------------------------------------------------------------
# relation families through the realization


def check_relation_family(family: str, max_sum: int, max_len: int) -> VerificationReport:
    """Check every instance of a family on per-step basis tables.

    dd and ss are checked chain by chain (:func:`_check_chains`), tautau
    batch by batch (:func:`_check_tautau`).  Values compare raw first,
    and again with each position p written as ``{p: 1}`` only on a
    mismatch.  Only when they still differ are the instance's words
    built and compared on the tables' own realization
    (:func:`_record_failure`).
    """
    if family == "mixed":
        return check_mixed_relations(max_sum, max_len)
    if family == "tautau":
        shuffles, walk = _tautau_batches(max_sum, max_len)  # checks args
        check = _check_tautau
    else:
        shuffles, walk = _relation_chains(family, max_sum, max_len)  # checks args
        check = _check_chains
    report = VerificationReport(
        f"relations-{family}", {"max_sum": max_sum, "max_len": max_len}
    )
    check(report, _CodedTables(default_realization(), max_sum, shuffles).steps, walk)
    return report


def _check_chains(report, tables, chains):
    """Check the tuples of ``category._relation_chains``.

    Both chains of an instance are valued by :func:`_chain_value`, and a
    value is kept per source only when it is linear (it has a step that
    is not a function on basis positions, as every dd chain has): dd's
    walk repeats chains within a source, ss's never does, and a function
    chain composes by indexing for less than a lookup costs.
    """
    memo, current = {}, None

    def valued(chain):
        value = memo.get(chain)
        if value is None:
            value = _chain_value(tables, chain)
            if type(value[0]) is dict:
                memo[chain] = value
        return value

    for chain in chains:
        report.checked += 1
        if chain[0] is not current:  # walks never return to a source
            memo, current = {}, chain[0]
        lv, rv = valued(chain[1]), valued(chain[2])
        if lv == rv or _expanded(lv) == _expanded(rv):
            continue
        _record_failure(report, tables, chain)


def _check_tautau(report, tables, batches):
    """Check the batches of ``category._tautau_chains``.

    A shuffle's step key is its int id in the walk's list of shuffles.
    Each instance's chain ``(k1, k2)`` is valued once: by one composition
    in C when both tables are positions, as every true shuffle's is, else
    by :func:`_chain_value`.  A group's first chain is valued once per
    source: by its own composition when it opens against K3, else by
    :func:`_chain_value` at the group's first later chain.
    """
    values, current, checked = {}, None, 0
    for source, k1, instances in batches:
        if source is not current:  # the walk never returns to a source
            values, current = {}, source
        checked += len(instances)
        table = tables[k1]
        get1 = table.__getitem__ if type(table[0]) is int else None
        for first, k2, info in instances:
            table = tables[k2]
            if get1 is not None and type(table[0]) is int:
                value = tuple(map(get1, table))
            else:
                value = _chain_value(tables, (k1, k2))
            if len(info) == 2:  # equal chains: the group's first against (k1, k2)
                lv, rv = values.get(first), value
                if lv is None:
                    lv = values[first] = _chain_value(tables, first)
            else:  # chain vs step: the group's first, (k1, k2), against K3
                lv = values[first] = value
                rv = tables[info[2]]
            if lv == rv or _expanded(lv) == _expanded(rv):
                continue
            _record_failure(
                report, tables, _tautau_tuple(source, k1, first, k2, info, tables.shuffles)
            )
    report.checked += checked


def _record_failure(report, tables, chain):
    """Record ``chain``, a walk's tuple whose values differ on the tables.

    Its words are compared by :func:`semantic_equal` on the tables' own
    realization, which gives the witness; if it finds them equal, tables
    and words disagree and the sweep raises.
    """
    instance = _relation_instance(*chain, tables.shuffles)
    equal, witness = semantic_equal(instance.left, instance.right, tables.realization)
    if equal:
        raise RuntimeError(
            f"step tables and realized words disagree on {instance.description}"
        )
    label, lv, rv = witness
    report.record(
        instance.description,
        *map(format_tensor, (TensorElement.basis(label), lv, rv)),
    )


def _chain_value(tables, chain) -> tuple:
    """The composite of ``chain``'s steps on each basis label of its target.

    Realization is contravariant, so the last step acts first.  While
    the value is positions, the next table is read at them with
    ``map``, in C, whatever its kind; once it is ``{position: coeff}``,
    each earlier table is applied linearly and summed exactly.  The
    value is a tuple in the target's basis order: source positions if
    every step is a function on positions, else ``{position: coeff}``
    without zeros.
    """
    value = tables[chain[-1]]
    for key in chain[-2::-1]:
        step = tables[key]
        if type(value[0]) is int:
            value = tuple(map(step.__getitem__, value))
        else:
            value = tuple([_applied(step, coeffs) for coeffs in value])
    return value


def _applied(step, coeffs) -> dict:
    """The table ``step`` applied linearly to ``{position: coeff}``."""
    out = {}
    get = out.get
    if type(step[0]) is int:
        for p, c in coeffs.items():
            q = step[p]
            out[q] = get(q, 0) + c
    else:
        for p, c in coeffs.items():
            for q, d in step[p].items():
                out[q] = get(q, 0) + c * d
    return _nonzero(out)


def _expanded(value) -> tuple:
    """A chain value with each position p written as ``{p: 1}``."""
    return tuple({v: 1} if type(v) is int else v for v in value)


def check_mixed_relations(max_sum: int, max_len: int) -> VerificationReport:
    """Summed reading of the mixed family, grouped by coarsening.

    For margins (alpha, beta) and a common coarsening gamma, the towers
    of all matrices supported inside gamma's diagonal blocks add up to
    the gamma route; :func:`_factored_towers` sums that group block by
    block.  The per-matrix reading is handled (and refuted) by
    :func:`check_square_condition`.
    """
    _check_bounds(max_sum, max_len)
    report = VerificationReport(
        "mixed-relations",
        {"max_sum": max_sum, "max_len": max_len, "reading": "summed"},
    )
    comps = _all_compositions(max_sum, max_len)[1:]  # all but the empty one
    tables = _CodedTables(default_realization(), max_sum)
    for alpha in comps:
        for beta in comps:
            if beta.sum != alpha.sum:
                continue
            for gamma in common_coarsenings(alpha, beta):
                count, totals = _factored_towers(alpha, beta, gamma, tables)
                report.checked += 1
                _record_first(
                    report,
                    f"mixed alpha={alpha} beta={beta} gamma={gamma} #K={count}",
                    _route_comparison(alpha, beta, gamma, tables)(totals),
                )
    return report


def check_worked_examples(max_n: int) -> VerificationReport:
    """The three two-margin diagram shapes, in the summed reading.

    Shapes: 2x2 and 2x3 margin matrices against the route through (n),
    and block-diagonal 4x5 matrices, a 2x3 block over a 2x2 block,
    against the route through the two-part coarsening of the block
    totals.  Every group is summed block by block by :func:`_factored_towers`.
    """
    report = VerificationReport("worked-examples", {"max_n": max_n})
    tables = _CodedTables(default_realization(), max(max_n, 0))  # no case below n = 2

    def run_case(alpha, beta, gamma, tag):
        report.checked += 1
        _record_first(
            report,
            f"{tag} alpha={alpha} beta={beta} gamma={gamma}",
            _route_comparison(alpha, beta, gamma, tables)(
                _factored_towers(alpha, beta, gamma, tables)[1]
            ),
        )

    for n in range(2, max_n + 1):
        gamma = Composition([n])
        for r in (2, 3):
            for alpha in _of_length(n, 2):
                for beta in _of_length(n, r):
                    run_case(alpha, beta, gamma, f"2x{r}")

    for n1 in range(3, max_n - 1):
        for n2 in range(2, max_n - n1 + 1):
            gamma = Composition([n1, n2])
            for a_top in _of_length(n1, 2):
                for b_top in _of_length(n1, 3):
                    for a_bot in _of_length(n2, 2):
                        for b_bot in _of_length(n2, 2):
                            alpha = Composition(a_top.parts + a_bot.parts)
                            beta = Composition(b_top.parts + b_bot.parts)
                            run_case(alpha, beta, gamma, "block-diagonal")
    return report


def _of_length(n: int, length: int) -> list:
    """Compositions of n with exactly ``length`` parts, in lex order."""
    return [Composition(c) for c in _exact_length(n, length)]


def _factored_towers(alpha, beta, gamma, tables: _CodedTables) -> tuple:
    """How many matrices of (alpha, beta) factor through ``gamma``, and
    their towers summed, in the layout of ``tables.summed_towers``.

    Such a matrix is a direct sum of one matrix per diagonal block of
    gamma, over the runs of alpha and beta the block covers, so the
    group's sum is the product of its blocks' sums: codes add,
    coefficients multiply, and the first block's labels run slowest, as
    in ``tensor_basis``.  A block is summed once per sweep, kept in
    ``tables.blocks``; a group of one block is summed directly.
    """
    rows, cols = refines(gamma, alpha), refines(gamma, beta)
    if rows is None or cols is None:
        raise UsageError(f"{gamma} does not coarsen both {alpha} and {beta}")
    if len(rows) <= 1:
        group = enumerate_matrices(alpha, beta)
        return len(group), tables.summed_towers(alpha.parts, group)
    count, totals, r0, c0 = 1, [{0: 1}], 0, 0
    for nr, nc in zip(rows, cols):
        run = alpha.parts[r0:r0 + nr], beta.parts[c0:c0 + nc]
        if run not in tables.blocks:  # once per block in a sweep
            group = enumerate_matrices(*run)
            tables.blocks[run] = len(group), tables.summed_towers(run[0], group)
        n, sums = tables.blocks[run]
        shift = tables.shift * c0  # the block's first column
        # blocks code disjoint slots, so no two terms of a product meet
        totals = [
            {k1 + (k2 << shift): c1 * c2 for k1, c1 in t.items() for k2, c2 in s.items()}
            for t in totals for s in sums
        ]
        count, r0, c0 = count * n, r0 + nr, c0 + nc
    return count, totals


# ---------------------------------------------------------------------------
# bidegree (1, 2): modified multiplication, defect, six-term expansion


def _survives(degrees) -> bool:
    """The modified multiplication's degree rule: a triple product
    survives exactly when some factor has degree 0."""
    return 0 in degrees


def _modified_product_label(labels, degrees):
    """Merged label of a modified triple product, or None when it dies."""
    if not _survives(degrees):
        return None
    # a slot of degree 0 carries the empty label
    l1, l2, l3 = labels
    return _merge_labels(l1, l2 + l3)


_TRIPLES = {}  # one tuple per left-degree triple, shared by all shapes


@lru_cache(maxsize=None)
def _surviving_triples(shape) -> tuple:
    """Left-degree triples u of a tridegree whose two halves both survive.

    Filters the whole box 0 <= u <= shape by ``_survives`` on u and on
    shape - u, never by the six patterns, so the defect and
    :func:`check_bidegree12_cases`, which read their survivors here, stay
    independent of the expansion and the patterns they are checked
    against.  On a zero tridegree every triple survives.
    """
    a, b, c = shape
    return tuple(
        _TRIPLES.setdefault(u, u)
        for u in product(range(a + 1), range(b + 1), range(c + 1))
        if _survives(u) and _survives((a - u[0], b - u[1], c - u[2]))
    )


def _coded_product(tables, shape, label) -> dict:
    """The first composite of the defect on one label, as pair codes.

    Sums t1[u1] * t2[u2] * t3[u3] over ``_surviving_triples(shape)``,
    t_i being slot i's coded table: a surviving product merges all three
    labels, as in ``_modified_product_label``, and merging adds codes.
    When the survivors fill the whole box, as on every zero tridegree,
    that sum is the product of the three whole tables, whose groups are
    disjoint.  Zero coefficients are kept.
    """
    out = {}
    get = out.get
    triples = _surviving_triples(shape)
    a, b, c = shape
    if len(triples) == (a + 1) * (b + 1) * (c + 1):
        factors = (tuple(map(tables.whole, label)),)
    else:
        t1, t2, t3 = (tables[lam] for lam in label)
        factors = ((t1[u1], t2[u2], t3[u3]) for u1, u2, u3 in triples)
    for g1, g2, g3 in factors:
        g2, g3 = g2.items(), g3.items()
        for k1, c1 in g1.items():
            for k2, c2 in g2:
                k12, c12 = k1 + k2, c1 * c2
                for k3, c3 in g3:
                    k = k12 + k3
                    out[k] = get(k, 0) + c12 * c3
    return out


def _label_defect(tables, shape, label, composite) -> dict:
    """``composite`` (:func:`_coded_product`) minus comult of the modified
    product.  Zero coefficients are kept, and where the product dies
    ``composite`` itself is returned, not a copy."""
    merged = _modified_product_label(label, shape)
    if merged is None:
        return composite
    whole = tables.whole(merged)
    if whole == composite:
        return {}
    out = dict(composite)
    get = out.get
    for k, d in whole.items():
        out[k] = get(k, 0) - d
    return out


def _coded_six_term_12(tables, shape, coeffs) -> dict:
    """The six-map expansion of {label triple: coeff}, as pair codes.

    The tridegree must be positive.  A term's code is a splitting's code
    plus the pair code of the other two labels.  Zero coefficients are kept.
    """
    a = shape[0]
    code, shift, mask = tables.code, tables.shift, tables.mask
    out = {}
    get = out.get
    for (lx, ly, lz), co in coeffs.items():
        cx, cy, cz = code(lx), code(ly), code(lz)
        # (1): x z1 (x) y z2 and (2): y z1 (x) x z2, full range
        o1, o2 = cx + (cy << shift), cy + (cx << shift)
        for k, c in tables.whole(lz).items():
            c *= co
            out[k + o1] = get(k + o1, 0) + c
            out[k + o2] = get(k + o2, 0) + c
        # (3): x y1 (x) z y2; v=0 corner already in (1)
        # (4): z y2 (x) y1 x, (3) swapped; the |y1|=0 corner already in (2)
        o3 = cx + (cz << shift)
        for group in tables[ly][1:]:
            for k, c in group.items():
                c *= co
                k += o3
                out[k] = get(k, 0) + c
                k = (k >> shift) + ((k & mask) << shift)
                out[k] = get(k, 0) + c
        # (5): x1 y (x) x2 z; u=0 corner in (2), u=a corner in (3)
        # (6): x1 z (x) x2 y; u=0 corner in (4), u=a corner in (1)
        o5, o6 = cy + (cz << shift), cz + (cy << shift)
        for group in tables[lx][1:a]:
            for k, c in group.items():
                c *= co
                out[k + o5] = get(k + o5, 0) + c
                out[k + o6] = get(k + o6, 0) + c
    return out


def check_bidegree12(max_total: int) -> list:
    """Defect-vs-expansion sweep and survival patterns, all tridegrees.

    Returns the reports of :func:`check_bidegree12_defect` and
    :func:`check_bidegree12_cases`, in that order.
    """
    return [check_bidegree12_defect(max_total), check_bidegree12_cases(max_total)]


# each order of a label triple's three slots, with its getter
_ARRANGEMENTS = tuple((order, itemgetter(*order)) for order in permutations(range(3)))


def check_bidegree12_defect(max_total: int) -> VerificationReport:
    """Hopf defect against the six-term expansion, all tridegrees.

    Compares the defect with the expansion under both bracketings on
    every h-basis input with a + b + c <= max_total, and checks that the
    defect vanishes when some degree is zero.

    Inputs are visited by multiset of their three slot labels, whose
    arrangements share one :func:`_coded_product` when their
    ``_surviving_triples`` are the representative's reordered.  An
    arrangement's (2,1) bracket is its reverse's (1,2) expansion, swapped:
    the defect is swapped instead and compared with that expansion, and
    arrangements sharing the product share its swapped defect, built once
    per multiset.  On a zero tridegree the product survives, and
    arrangements sharing the product share its defect too when their
    modified products merge to the same label: comult of that label is
    subtracted once per (multiset, merged label).  A failure shows the
    defect and the swapped expansion.
    """
    if max_total < 1:
        raise UsageError("max_total must be >= 1")
    report = VerificationReport("bidegree12-defect", {"max_total": max_total})
    tables = _CodedTables(default_realization(), max_total)
    # (degree, index in partitions_of, label), by degree: the indices
    # order failures as the inputs come
    slots = [
        (d, i, lam)
        for d in range(max_total + 1)
        for i, lam in enumerate(partitions_of(d))
    ]
    shares = {}  # (representative shape, order): may it share the product
    failures = []  # (input-order key, failure fields)
    for n1, x in enumerate(slots):
        for n2, y in enumerate(islice(slots, n1, None), n1):
            for z in islice(slots, n2, None):
                if x[0] + y[0] + z[0] > max_total:
                    break
                rep = (x, y, z)
                inputs = {}  # each arrangement: its order of rep's slots, unzipped
                for order, arrange in _ARRANGEMENTS:
                    arranged = arrange(rep)
                    inputs.setdefault(arranged, (order, *zip(*arranged)))
                report.checked += len(inputs)
                rep_shape, _, rep_label = zip(*rep)
                shared = _coded_product(tables, rep_shape, rep_label)
                positive = min(rep_shape) > 0
                # a positive tridegree's product dies: its defect is the
                # composite itself, so arrangements sharing it share its swap
                shared_swapped = tables.swapped(shared) if positive else None
                expansions = {
                    arranged: _coded_six_term_12(tables, degrees, {label: 1})
                    for arranged, (_, degrees, _, label) in inputs.items()
                    if positive
                }
                zero_defects = {}  # merged label -> defect of the shared product
                for arranged, (order, degrees, index, label) in inputs.items():
                    key = (rep_shape, order)
                    if key not in shares:
                        shares[key] = set(_surviving_triples(degrees)) == {
                            tuple(u[p] for p in order)
                            for u in _surviving_triples(rep_shape)
                        }
                    composite = shared if shares[key] else _coded_product(
                        tables, degrees, label
                    )
                    if not positive:
                        # arrangements sharing the product and the merged
                        # label share the defect
                        memo = zero_defects if composite is shared else {}
                        merged = _modified_product_label(label, degrees)
                        defect = memo.get(merged)
                        if defect is None:
                            defect = memo[merged] = _label_defect(
                                tables, degrees, label, composite
                            )
                        checks = (("zero branch", defect, {}),)
                    else:
                        defect = _label_defect(tables, degrees, label, composite)
                        swapped = (
                            shared_swapped if defect is shared
                            else tables.swapped(defect)
                        )
                        checks = (
                            ("bracket (1,2)", defect, expansions[arranged]),
                            ("bracket (2,1)", swapped, expansions[arranged[::-1]]),
                        )
                    for case, (name, got, value) in enumerate(checks):
                        # both sides may keep zeros: compare raw first
                        if got == value or _nonzero(got) == _nonzero(value):
                            continue
                        if case:  # report the (2,1) expansion unswapped
                            value = tables.swapped(value)
                        failures.append(((degrees, index, case), (
                            "tridegree ({},{},{}) {}".format(*degrees, name),
                            format_tensor(TensorElement.basis(label)),
                            format_graded(tables.graded(_nonzero(defect))),
                            format_graded(tables.graded(value)),
                        )))
    for _, fields in sorted(failures):
        report.record(*fields)
    return report


def check_bidegree12_cases(max_total: int) -> VerificationReport:
    """Survival pattern of the shuffled triple-comult expansion, on every
    positive tridegree with a + b + c <= max_total, in one report.

    For positive degrees (a, b, c) the (u, v, w) summand survives
    exactly when one of the six patterns holds: u=0 with v=b, u=0 with
    w=c, v=0 with u=a, v=0 with w=c, w=0 with u=a, or w=0 with v=b.
    Support is decided from degrees, by the defect's own rule: the
    survivors are the triples of :func:`_surviving_triples` that the
    slots' comultiplication tables offer (the indices of their nonempty
    groups).  Only that support is compared, never a coefficient, so a
    wrong coefficient in the comultiplication cannot show here.
    """
    if max_total < 1:
        raise UsageError("max_total must be >= 1")
    report = VerificationReport("bidegree12-six-cases", {"max_total": max_total})
    tables = _CodedTables(default_realization(), max_total)
    # every degree is positive, so none exceeds max_total - 2
    supports = {
        x: frozenset(u for u, group in enumerate(tables[x]) if group)
        for d in range(1, max_total - 1)
        for x in partitions_of(d)
    }
    for a in range(1, max_total + 1):
        for b in range(1, max_total - a + 1):
            for c in range(1, max_total - a - b + 1):
                expected = {
                    (u, v, w)
                    for u, v, w in product(range(a + 1), range(b + 1), range(c + 1))
                    if (u == 0 and v == b) or (u == 0 and w == c)
                    or (v == 0 and u == a) or (v == 0 and w == c)
                    or (w == 0 and u == a) or (w == 0 and v == b)
                }
                survivors = {}  # labels share few supports: one set per support triple
                for lam, mu, nu in product(*map(partitions_of, (a, b, c))):
                    report.checked += 1
                    key = us, vs, ws = supports[lam], supports[mu], supports[nu]
                    surviving = survivors.get(key)
                    if surviving is None:
                        surviving = survivors[key] = {
                            t for t in _surviving_triples((a, b, c))
                            if t[0] in us and t[1] in vs and t[2] in ws
                        }
                    if surviving != expected:
                        report.record(
                            f"tridegree ({a},{b},{c}) "
                            f"input h{list(lam)} (x) h{list(mu)} (x) h{list(nu)}",
                            "survival pattern",
                            str(sorted(surviving)),
                            str(sorted(expected)),
                        )
    return report


# ---------------------------------------------------------------------------
# the exploratory mixed-bidegree computation


def _padded_products(x, y):
    """Slotwise products of two tensor labels.

    The shorter label is padded with unit slots to the longer length in
    every order-preserving way, one product per padding; labels of
    equal length multiply slotwise once.
    """
    short, label = sorted((x, y), key=len)
    for positions in combinations(range(len(label)), len(short)):
        out = list(label)
        for pos, lam in zip(positions, short):
            out[pos] = _merge_labels(out[pos], lam)
        yield tuple(out)


def _halves(label):
    """Every one-slot comultiplication, cut between the two new slots.

    Yields ``(left, right, coeff)`` with each half a label whose empty
    (degree-zero) slots are dropped.
    """
    splittings = default_realization()._splittings
    for slot, lam in enumerate(label):
        for group in splittings(lam):
            for mu, nu, c in group:
                left = tuple(p for p in label[:slot] + (mu,) if p)
                right = tuple(p for p in (nu,) + label[slot + 1:] if p)
                yield left, right, c


def explore_mixed_bidegree(a: int, beta) -> dict:
    """Both Hopf-square routes on A(a) (x) A(b1, b2), reported per split.

    The upper route multiplies then comultiplies; the lower route
    comultiplies both factors, regroups first halves against second
    halves and multiplies the groups.  Values are collected per pair of
    canonical half-shapes.  No verdict is attached: the computation is
    a structured comparison, not a pass/fail check.
    """
    if a < 0:
        raise UsageError("a must be >= 0")
    beta = Composition(beta)
    if beta.length != 2:
        raise UsageError("beta must have exactly two parts")
    # A(0) is one empty slot: its halves keep it, its products drop it
    x = ((a,) if a else (),)
    bare_x = x if a else ()
    y = tuple((b,) for b in beta.parts)

    def add(pairs, left, right, coeff):
        key = f"{Composition(map(sum, left))}|{Composition(map(sum, right))}"
        bucket = pairs.setdefault(key, {})
        lab = left + right
        bucket[lab] = bucket.get(lab, 0) + coeff

    upper = {}
    for product in _padded_products(bare_x, y):
        for left, right, c in _halves(product):
            add(upper, left, right, c)

    lower = {}
    for xl, xr, xc in _halves(x):
        for yl, yr, yc in _halves(y):
            for left in _padded_products(xl, yl):
                for right in _padded_products(xr, yr):
                    add(lower, left, right, xc * yc)

    difference = {}
    for key in upper.keys() | lower.keys():
        coeffs = difference[key] = dict(upper.get(key, {}))
        for lab, c in lower.get(key, {}).items():
            coeffs[lab] = coeffs.get(lab, 0) - c

    def render(pairs):
        out = {}
        for key, coeffs in sorted(pairs.items()):
            el = TensorElement._trusted(tuple(map(sum, next(iter(coeffs)))), coeffs)
            if not el.is_zero:
                out[key] = format_tensor(el)
        return out

    return {
        "suite": "explore-mixed",
        "a": a,
        "beta": str(beta),
        "element": " (x) ".join(
            format_tensor(TensorElement.basis(label)) for label in (bare_x, y)
        ),
        "upper": render(upper),
        "lower": render(lower),
        "difference": render(difference),
    }
