"""References and injected faults shared by the test files.

The references recompute what a sweep or table computes by a plainer
route: words evaluated one generator at a time, reports rebuilt with one
visit per input, coproduct tables from every cut at once, the Kostka
table grown strip by strip, each strip found by the interlacing test,
and Schur functions from the Jacobi–Trudi determinant.  A fault is a
wrong operator or realization handed to a sweep, or a patch of one name
(a realization hook, a memo or a module function) through
``monkeypatch``, which ends with the test.
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, permutations, product

from hopflike import category, hopfverify, symfunc
from hopflike.category import (
    Merge,
    MorphismWord,
    Shuffle,
    Split,
    apply_generator,
    enumerate_relation_instances,
    merge_chain,
    semantic_equal,
    split_chain,
)
from hopflike.compositions import Composition, refines
from hopflike.contingency import (
    ContingencyMatrix,
    enumerate_matrices,
    kappa,
    sigma_K,
    slot_sources,
)
from hopflike.hopfverify import _modified_product_label
from hopflike.reports import VerificationReport
from hopflike.simplicial import MonotoneMap, degeneracy, face
from hopflike.symfunc import (
    SymElement,
    TensorElement,
    default_realization,
    format_graded,
    format_tensor,
    partitions_of,
    tensor_comult_component,
    tensor_mult_slots,
    tensor_permute,
)


# --- words, matrices and their step-by-step values ---------------------------


def generators_on(comp):
    """Every merge and split admissible on ``comp``."""
    t, parts = comp.length, comp.parts
    yield from (Merge(t, i) for i in range(1, t))
    for i, n in enumerate(parts, 1):
        yield from (Split(t, i, a) for a in range(1, n))


def tower_word(alpha, beta, K):
    """Word beta -> alpha realizing the forward tower A(alpha) -> A(beta).

    Comultiply along alpha into the row refinement, shuffle row order to
    column order, multiply out to beta.  Realized contravariantly, a
    word from beta gives a map out of A(alpha), so the shuffle step uses
    the transposed matrix.
    """
    kap = kappa(K)
    return (
        split_chain(beta, kap.col)
        .then(MorphismWord(kap.col, [Shuffle(transpose(K))]))
        .then(merge_chain(kap.row, alpha))
    )


def route_word(alpha, beta, gamma):
    """Word beta -> alpha realizing multiply-to-gamma then comultiply."""
    return merge_chain(beta, gamma).then(split_chain(gamma, alpha))


def reference_apply(word, el):
    """Realize ``word`` on ``el`` one step at a time, last step first."""
    domains = [word.source]
    for g in word.steps:
        domains.append(apply_generator(g, domains[-1]))
    assert el.shape == domains[-1].parts
    for g, dom in zip(reversed(word.steps), reversed(domains[:-1])):
        if isinstance(g, Merge):
            slot = g.i - 1
            el = tensor_comult_component(
                el, slot, dom.parts[slot], dom.parts[slot + 1]
            )
        elif isinstance(g, Split):
            el = tensor_mult_slots(el, g.i - 1)
        else:
            el = tensor_permute(el, slot_sources(g.K))
        el = TensorElement(el.shape, el.coeffs)  # the validating constructor
        assert el.shape == dom.parts
    return el


def slots_from_sigma(K):
    """For each slot of kappa(K).row, the slot of kappa(K).col it reads.

    Read off the position images of ``sigma_K``: the slot starting at
    position p goes to the target slot that contains its image.
    """
    kap = kappa(K)
    images = sigma_K(K)
    starts = [0, *accumulate(kap.row.parts)][:-1]
    target_starts = [0, *accumulate(kap.col.parts)][:-1]
    return tuple(bisect_right(target_starts, images[p] - 1) - 1 for p in starts)


def transpose(K):
    """``K`` with rows and columns exchanged."""
    # zip(*rows) cannot see the columns of a matrix without rows
    return ContingencyMatrix(
        tuple(zip(*K.entries)) if K.nrows else ((),) * K.ncols, K.nrows
    )


def margins(K):
    """``(row sums, column sums)`` of ``K``'s entries."""
    rows = tuple(sum(row) for row in K.entries)
    return rows, tuple(sum(row[j] for row in K.entries) for j in range(K.ncols))


def _factoring_matrices(alpha, beta, gamma) -> list:
    """The matrices of (alpha, beta) that factor through ``gamma``.

    ``gamma`` must coarsen both margins.  A matrix factors through it
    when its support lies in gamma's diagonal blocks, so it is a direct
    sum of one matrix per block, whose margins are the runs of alpha and
    beta that the block covers.  The group is therefore the product of
    the blocks' enumerations, each combination placed block-diagonally;
    it comes out in the order of ``enumerate_matrices``.  The sweeps sum
    such a group block by block (``hopfverify._factored_towers``); this
    is the group matrix by matrix, to sum against.
    """
    row_runs = refines(gamma, alpha)
    col_runs = refines(gamma, beta)
    if len(row_runs) <= 1:
        return enumerate_matrices(alpha, beta)
    ncols = len(beta.parts)
    choices = []
    r0 = c0 = 0
    for nr, nc in zip(row_runs, col_runs):
        left, right = (0,) * c0, (0,) * (ncols - c0 - nc)
        choices.append([
            tuple(left + row + right for row in K.entries)
            for K in enumerate_matrices(
                alpha.parts[r0:r0 + nr], beta.parts[c0:c0 + nc]
            )
        ])
        r0 += nr
        c0 += nc
    return [
        ContingencyMatrix._trusted(sum(rows, ()), ncols)
        for rows in product(*choices)
    ]


def reference_row_expansions(tables, row, columns) -> tuple:
    """``tables.row_expansions(row, columns)`` peeled label by label.

    Each label of degree ``sum(row)`` is comultiplied whole, last piece
    first, by the realization's ``_splittings`` through the word-level
    ``_comult_action``, one cut per step; then its pieces are coded, piece
    k in slot ``columns[k]``.  No expansion of a shorter row is read.
    """
    code, shift = tables.code, tables.shift
    splittings, expansions = tables.realization._splittings, []
    for lam in partitions_of(sum(row)):
        coeffs = {(lam,): 1}
        for k in range(len(row) - 1, 0, -1):
            coeffs = symfunc._comult_action(0, sum(row[:k]), splittings)(coeffs)
        expansions.append(tuple(
            (sum(code(mu) << shift * j for mu, j in zip(pieces, columns)), c)
            for pieces, c in coeffs.items()
        ))
    return tuple(expansions)


# --- the coproduct and the coalgebra sweeps ----------------------------------


@lru_cache(maxsize=None)
def flat_splittings(lam):
    """Sorted (u, mu, nu, coeff) of h_lam from the product of the parts'
    coproducts: part p contributes h_i (x) h_(p-i) for one i in 0..p."""
    def label(parts):
        return tuple(sorted((p for p in parts if p > 0), reverse=True))

    terms = {}
    for cut in product(*(range(p + 1) for p in lam)):
        key = (sum(cut), label(cut), label(p - i for p, i in zip(lam, cut)))
        terms[key] = terms.get(key, 0) + 1
    return tuple(sorted(key + (c,) for key, c in terms.items()))


def reference_comult_table(lam):
    """``_comult_table``'s layout from scratch: ``flat_splittings`` (one
    cut of every part at once) grouped by left degree, each group sorted."""
    groups = [[] for _ in range(sum(lam) + 1)]
    for u, mu, nu, c in flat_splittings(lam):
        groups[u].append((mu, nu, c))
    return tuple(map(tuple, groups))


def shuffled_product(tables, lam, mu, j) -> dict:
    """The Hopf sweep's right side on h[lam] (x) h[mu] at left degree j:
    the sum over u + v = j of their splittings multiplied, codes added."""
    right = {}
    for u in range(max(0, j - sum(mu)), min(sum(lam), j) + 1):
        for k1, c1 in tables[lam][u].items():
            for k2, c2 in tables[mu][j - u].items():
                right[k1 + k2] = right.get(k1 + k2, 0) + c1 * c2
    return right


def reference_hopf_report(max_degree):
    """``check_hopf_compat``'s report with one visit per ordered input:
    (lam, mu) and (mu, lam) each build their own shuffled product."""
    report = VerificationReport("hopf-compat", {"max_degree": max_degree})
    tables = symfunc._CodedTables(default_realization(), max_degree)
    for a in range(max_degree + 1):
        for b in range(max_degree - a + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    report.checked += 1
                    whole = tables[hopfverify._merge_labels(lam, mu)]
                    for j in range(a + b + 1):
                        right = shuffled_product(tables, lam, mu, j)
                        if whole[j] != {k: v for k, v in right.items() if v}:
                            shape = (j, a + b - j)
                            report.record(
                                f"degrees a={a} b={b} component j={j}",
                                f"h{list(lam)} (x) h{list(mu)}",
                                format_tensor(tables.decode(shape, whole[j])),
                                format_tensor(tables.decode(shape, right)),
                            )
    return report


def reference_bidegree12_report(max_total):
    """``check_bidegree12_defect``'s report with one visit per input: each
    label's (2,1) bracket is the swapped (1,2) expansion of its reverse,
    computed again for that label alone."""
    report = VerificationReport("bidegree12-defect", {"max_total": max_total})
    tables = symfunc._CodedTables(default_realization(), max_total)
    for a in range(max_total + 1):
        for b in range(max_total - a + 1):
            for c in range(max_total - a - b + 1):
                shape = (a, b, c)
                for label in product(*map(partitions_of, shape)):
                    report.checked += 1
                    coeffs = {label: 1}
                    composite = hopfverify._coded_product(tables, shape, label)
                    defect = hopfverify._nonzero(
                        hopfverify._label_defect(tables, shape, label, composite)
                    )
                    if min(shape) > 0:
                        mirrored = hopfverify._coded_six_term_12(
                            tables, shape[::-1], {label[::-1]: 1}
                        )
                        expected = (
                            ("bracket (1,2)",
                             hopfverify._coded_six_term_12(tables, shape, coeffs)),
                            ("bracket (2,1)",
                             {tables.swap(k): v for k, v in mirrored.items()}),
                        )
                    else:
                        expected = (("zero branch", {}),)
                    for case, expansion in expected:
                        if defect != expansion:
                            report.record(
                                f"tridegree ({a},{b},{c}) {case}",
                                format_tensor(TensorElement._trusted(shape, coeffs)),
                                format_graded(tables.graded(defect)),
                                format_graded(tables.graded(expansion)),
                            )
    return report


def reference_hopf_defect_12(x):
    """The defect from the full triple loop: every combination of the
    three slots' splittings, the dead ones discarded afterwards."""
    a, b, c = x.shape
    buckets = {}
    for (l1, l2, l3), co in x.coeffs.items():
        for u1, m1, n1, c1 in flat_splittings(l1):
            for u2, m2, n2, c2 in flat_splittings(l2):
                for u3, m3, n3, c3 in flat_splittings(l3):
                    left_degrees = (u1, u2, u3)
                    right_degrees = (a - u1, b - u2, c - u3)
                    left = _modified_product_label((m1, m2, m3), left_degrees)
                    right = _modified_product_label((n1, n2, n3), right_degrees)
                    if left is None or right is None:
                        continue
                    key = (sum(left_degrees), sum(right_degrees))
                    bucket = buckets.setdefault(key, {})
                    lab = (left, right)
                    bucket[lab] = bucket.get(lab, 0) + co * c1 * c2 * c3
    for label, co in x.coeffs.items():
        lam = _modified_product_label(label, x.shape)
        if lam is None:
            continue
        for u, mu, nu, d in flat_splittings(lam):
            bucket = buckets.setdefault((u, a + b + c - u), {})
            bucket[(mu, nu)] = bucket.get((mu, nu), 0) - co * d
    out = {key: TensorElement(key, coeffs) for key, coeffs in buckets.items()}
    return {key: el for key, el in out.items() if not el.is_zero}


# --- the relation sweeps -----------------------------------------------------


def reference_relation_report(family, max_sum, max_len, realization=None):
    """A relation sweep's report rebuilt from words: ``semantic_equal`` on
    every instance of ``enumerate_relation_instances``, no tables, through
    ``realization`` (the default one if None)."""
    report = VerificationReport(
        f"relations-{family}", {"max_sum": max_sum, "max_len": max_len}
    )
    for instance in enumerate_relation_instances(family, max_sum, max_len):
        report.checked += 1
        equal, witness = semantic_equal(instance.left, instance.right, realization)
        if not equal:
            label, lv, rv = witness
            report.record(
                instance.description,
                format_tensor(TensorElement.basis(label)),
                format_tensor(lv),
                format_tensor(rv),
            )
    return report


# --- the Kostka table and Schur functions ------------------------------------


def interlaces(nu, lam):
    """nu / lam is a horizontal strip: nu_1 >= lam_1 >= nu_2 >= lam_2 >= ..."""
    width = max(len(nu), len(lam))
    nu = nu + (0,) * (width - len(nu))
    lam = lam + (0,) * (width - len(lam))
    return all(a >= b for a, b in zip(nu, lam)) and all(
        b >= a for b, a in zip(lam, nu[1:])
    )


@lru_cache(maxsize=None)
def reference_strips(shape, size):
    """The partitions of |shape| + size that interlace with ``shape``."""
    return [nu for nu in partitions_of(sum(shape) + size) if interlaces(nu, shape)]


def reference_kostka(n):
    """Kostka table with every column grown from the empty shape, one
    horizontal strip per part of the content, each strip found by the
    interlacing test rather than by the table's own enumeration."""
    parts = partitions_of(n)
    index = {lam: i for i, lam in enumerate(parts)}
    columns = []
    for mu in parts:
        shapes = {(): 1}
        for part in mu:
            grown = {}
            for shape, c in shapes.items():
                for nu in reference_strips(shape, part):
                    grown[nu] = grown.get(nu, 0) + c
            shapes = grown
        column = [0] * len(parts)
        for lam, c in shapes.items():
            column[index[lam]] = c
        columns.append(column)
    return tuple(zip(*columns))


def jacobi_trudi(lam):
    """Reference Schur expansion: det(h_(lam_i - i + j)) over all row orders."""
    lam = tuple(lam)
    rows = len(lam)
    if rows == 0:
        return SymElement.one()
    coeffs = {}
    for perm in permutations(range(rows)):
        degrees = []
        dead = False
        for i in range(rows):
            d = lam[i] - i + perm[i]
            if d < 0:
                dead = True
                break
            if d > 0:
                degrees.append(d)
        if dead:
            continue
        inversions = sum(
            1
            for i in range(rows)
            for j in range(i + 1, rows)
            if perm[i] > perm[j]
        )
        sign = -1 if inversions % 2 else 1
        key = tuple(sorted(degrees, reverse=True))
        coeffs[key] = coeffs.get(key, 0) + sign
    return SymElement(sum(lam), "h", coeffs)


# --- injected faults ----------------------------------------------------------


def face_fault(n, i):
    """The face maps with d_1 on [1] -> [2] sending 1 to 1, not to 2."""
    if (n, i) == (2, 1):
        return MonotoneMap(1, 2, (0, 1))  # should be (0, 2)
    return face(n, i)


def degeneracy_fault(n, i):
    """The degeneracy maps with s_0 on [2] -> [1] repeating 1, not 0."""
    if (n, i) == (1, 0):
        return MonotoneMap(2, 1, (0, 1, 1))  # should be (0, 0, 1)
    return degeneracy(n, i)


SWAP = ContingencyMatrix([[0, 2], [2, 0]])
ROW = ContingencyMatrix([[2, 2]])


def exchanged_slots(monkeypatch, matrix):
    """Exchange the first two slot sources of the one shuffle along ``matrix``."""
    real = symfunc.slot_sources

    def faulty(K):
        sources = real(K)
        return (sources[1], sources[0]) + sources[2:] if K == matrix else sources

    monkeypatch.setattr(symfunc, "slot_sources", faulty)


def swap_fault(monkeypatch):
    """Exchange the two degree-2 slots of the one shuffle along SWAP."""
    exchanged_slots(monkeypatch, SWAP)


def row_fault(monkeypatch):
    """Exchange the two slots of the shuffle along ROW, whose sigma is the
    identity, so that its table and its description's K3 disagree."""
    exchanged_slots(monkeypatch, ROW)


def bumped_splittings(lam, u, mu, nu):
    """The splitting tables, with one added to the h[mu] (x) h[nu]
    coefficient at left degree u of h[lam]'s."""

    def splittings(key):
        table = symfunc._comult_table(key)
        if key != lam:
            return table
        return tuple(
            tuple((m, n, c + 1 if (d, m, n) == (u, mu, nu) else c) for m, n, c in group)
            for d, group in enumerate(table)
        )

    return splittings


h2_corrupted = bumped_splittings((2,), 1, (1,), (1,))


def comult_fault(monkeypatch):
    """Add one to the h1 (x) h1 coefficient of the coproduct of h2."""
    monkeypatch.setattr(
        symfunc.PshRealization, "_splittings", staticmethod(h2_corrupted)
    )


def strayed_splittings(key):
    """The splitting tables, with h[2]'s h[1] (x) h[1] written
    h[1,1] (x) h[1]: a left label of degree 2 at left degree 1."""
    table = symfunc._comult_table(key)
    if key != (2,):
        return table
    return tuple(
        tuple(((1, 1) if (d, m) == (1, (1,)) else m, n, c) for m, n, c in group)
        for d, group in enumerate(table)
    )


def stray_fault(monkeypatch):
    """Realize the coproduct by ``strayed_splittings``."""
    monkeypatch.setattr(
        symfunc.PshRealization, "_splittings", staticmethod(strayed_splittings)
    )


def h21_fault(monkeypatch):
    """Add one to the h[1] (x) h[1,1] coefficient of the coproduct of h[2,1]."""
    corrupted = bumped_splittings((2, 1), 1, (1,), (1, 1))
    monkeypatch.setattr(symfunc.PshRealization, "_splittings", staticmethod(corrupted))


def action_fault(monkeypatch, hits, change):
    """Patch the realization's steps: where ``hits(g, domain)`` holds, the
    image of ``coeffs`` becomes ``change(g, coeffs, true image)``."""
    real = symfunc.PshRealization._action

    def faulty(self, g, domain):
        act = real(self, g, domain)
        if not hits(g, domain):
            return act
        return lambda coeffs: change(g, coeffs, act(coeffs))

    monkeypatch.setattr(symfunc.PshRealization, "_action", faulty)


def label_fault(monkeypatch):
    """Multiply labels that should give (3,1) into (2,2) instead.

    Products only: the coproduct tables stay true.
    """
    merge_fault(monkeypatch, (2, 2))


def degree_fault(monkeypatch):
    """Multiply labels that should give (3,1) into (1,3,1), a label of
    degree 5 that no basis of degree 4 holds.  Products only."""
    merge_fault(monkeypatch, (1, 3, 1))


def merge_fault(monkeypatch, wrong):
    """Multiply labels that should give (3,1) into ``wrong``; the
    coproduct tables stay true."""

    def merged(g, coeffs, image):
        slot, out = g.i - 1, {}  # the product's slot
        for label, c in image.items():
            if label[slot] == (3, 1):
                label = label[:slot] + (wrong,) + label[slot + 1:]
            out[label] = out.get(label, 0) + c
        return out

    action_fault(monkeypatch, lambda g, domain: isinstance(g, Split), merged)


def blend_fault(monkeypatch):
    """Realize the shuffle along SWAP as its permutation plus twice the
    identity: a linear map that is not a permutation."""

    def blended(g, coeffs, image):
        out = dict(image)
        for label, c in coeffs.items():
            out[label] = out.get(label, 0) + 2 * c
        return out

    action_fault(
        monkeypatch, lambda g, domain: isinstance(g, Shuffle) and g.K == SWAP, blended
    )


def split_coeff_fault(monkeypatch):
    """Double the product h[1] * h[2] that s[2,2,1] realizes on (1,3).

    One split table then has a coefficient-2 image, so it is linear while
    every other split table stays a table of positions.
    """
    action_fault(
        monkeypatch,
        lambda g, domain: g == Split(2, 2, 1) and domain == Composition((1, 3)),
        lambda g, coeffs, image: {
            label: 2 * c if label == ((1,), (2, 1)) else c
            for label, c in image.items()
        },
    )


class DoubledH21Products(symfunc.PshRealization):
    """A realization whose products double every image coefficient on a
    label with an h[2,1] slot; merges and shuffles stay true."""

    def _action(self, g, domain):
        act = super()._action(g, domain)
        if not isinstance(g, Split):
            return act
        return lambda coeffs: {
            label: 2 * c if (2, 1) in label else c for label, c in act(coeffs).items()
        }


def sigma_fault(monkeypatch):
    """Report the identity position images for the one shuffle along SWAP."""
    real = category.sigma_K

    def faulty(K):
        images = real(K)
        return tuple(range(1, len(images) + 1)) if K == SWAP else images

    monkeypatch.setattr(category, "sigma_K", faulty)


def also_survives(monkeypatch, extra):
    """Let the triple product of slot degrees ``extra`` survive too."""
    real = hopfverify._survives
    monkeypatch.setattr(
        hopfverify, "_survives", lambda degrees: real(degrees) or degrees == extra
    )
    # The survivor memo is process-wide: the fault gets a fresh one, so a
    # sweep run before cannot hide it and it does not outlive the test.
    fresh = lru_cache(maxsize=None)(hopfverify._surviving_triples.__wrapped__)
    monkeypatch.setattr(hopfverify, "_surviving_triples", fresh)


def survival_fault(monkeypatch):
    """Let a triple product whose three degrees are all 1 survive."""
    also_survives(monkeypatch, (1, 1, 1))


def asymmetric_survival_fault(monkeypatch):
    """Let the triple product of degrees (1,2,1), in that slot order only,
    survive: arrangements of one label multiset then differ in survivors."""
    also_survives(monkeypatch, (1, 2, 1))


def six_term_fault(monkeypatch):
    """Add one to every coefficient of the (1,2) expansion on tridegrees
    with a > c, so only the (2,1) bracket of their mirrors reads it."""
    real = hopfverify._coded_six_term_12

    def faulty(tables, shape, coeffs):
        out = real(tables, shape, coeffs)
        return {k: v + 1 for k, v in out.items()} if shape[0] > shape[2] else out

    monkeypatch.setattr(hopfverify, "_coded_six_term_12", faulty)


def merge_order_fault(monkeypatch):
    """Multiply h[2] by h[1], in that order only, into h[1,1,1]."""
    real = hopfverify._merge_labels

    def faulty(lam, mu):
        return (1, 1, 1) if (lam, mu) == ((2,), (1,)) else real(lam, mu)

    monkeypatch.setattr(hopfverify, "_merge_labels", faulty)
