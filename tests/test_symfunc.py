import gc
import itertools
import math
import sys

import pytest

from hopflike.compositions import Composition, enumerate_compositions
from hopflike.category import Merge, MorphismWord, Shuffle, Split
from hopflike import contingency, symfunc
from hopflike.contingency import ContingencyMatrix, count_matrices
from hopflike.errors import (
    BasisMismatchError,
    DegreeMismatchError,
    RealizationError,
    UsageError,
)
from hopflike.hopfverify import _halves, _padded_products
from hopflike.symfunc import (
    SymElement,
    TensorElement,
    TransitionCache,
    _CodedTables,
    _decode_label,
    _inverse_transition,
    _label_code,
    _partition_counts,
    _kostka,
    comult_component,
    comult_splittings,
    default_realization,
    format_sym,
    format_tensor,
    h_mult,
    h_to_m,
    hall_inner,
    m_to_h,
    partitions_of,
    schur,
    tensor_permute,
    transition_cache,
)
from reference import (
    generators_on,
    jacobi_trudi,
    reference_comult_table,
    reference_kostka,
    reference_strips,
)


C = Composition
H = SymElement.h


# --- polynomial oracle: h in finitely many variables -----------------------


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def h_poly(n, nvars):
    """Complete homogeneous polynomial of degree n in nvars variables."""
    out = {}
    for combo in itertools.combinations_with_replacement(range(nvars), n):
        exps = [0] * nvars
        for v in combo:
            exps[v] += 1
        out[tuple(exps)] = out.get(tuple(exps), 0) + 1
    return out


def h_lambda_poly(lam, nvars):
    out = {tuple([0] * nvars): 1}
    for part in lam:
        out = poly_mul(out, h_poly(part, nvars))
    return out


def test_pentagonal_counts_match_partitions():
    assert _partition_counts(30) == [len(partitions_of(n)) for n in range(31)]
    assert _partition_counts(0) == [1]
    assert _partition_counts(100)[100] == 190569292


def test_partitions_of():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert [len(partitions_of(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_h_mult_examples():
    assert h_mult(H(1), H(1)) == SymElement(2, "h", {(1, 1): 1})
    assert h_mult(H(2), H(1)) == SymElement(3, "h", {(2, 1): 1})
    with pytest.raises(DegreeMismatchError):
        H(1) + H(2)
    with pytest.raises(BasisMismatchError):
        h_mult(H(2), h_to_m(H(2)))


def test_h_mult_commutative_associative():
    labels = [(2,), (1, 1), (3,), (2, 1)]
    for a, b in itertools.product(labels, repeat=2):
        x, y = SymElement.basis_element("h", a), SymElement.basis_element("h", b)
        assert h_mult(x, y) == h_mult(y, x)
    for a, b, c in itertools.product(labels[:3], repeat=3):
        x = SymElement.basis_element("h", a)
        y = SymElement.basis_element("h", b)
        z = SymElement.basis_element("h", c)
        assert h_mult(h_mult(x, y), z) == h_mult(x, h_mult(y, z))


def test_h_comult_examples():
    comps = {(u, 2 - u): comult_component(H(2), u, 2 - u) for u in range(3)}
    assert comps[(0, 2)] == TensorElement((0, 2), {((), (2,)): 1})
    assert comps[(1, 1)] == TensorElement((1, 1), {((1,), (1,)): 1})
    assert comps[(2, 0)] == TensorElement((2, 0), {((2,), ()): 1})
    assert comult_component(SymElement.one(), 0, 0) == TensorElement(
        (0, 0), {((), ()): 1}
    )
    assert comult_component(H(1, 1), 1, 1) == TensorElement(
        (1, 1), {((1,), (1,)): 2}
    )


def test_comult_component_needs_the_h_basis():
    for basis in ("m", "s"):
        with pytest.raises(BasisMismatchError):
            comult_component(SymElement.basis_element(basis, (2,)), 1, 1)


def test_comult_component_rejects_negative_degrees():
    # the table is indexed by left degree: -1 must not read its last group
    with pytest.raises(DegreeMismatchError):
        comult_component(H(2), -1, 3)
    with pytest.raises(DegreeMismatchError):
        comult_component(H(2), 3, -1)
    with pytest.raises(RealizationError):
        symfunc.tensor_comult_component(TensorElement.basis([(2,)]), 0, -1, 3)


def test_comult_table_is_grouped_by_left_degree():
    # each table is built from its prefix's memoized table times one
    # part's coproduct; the memoized and a freshly built table both match
    # the reference, group by group
    for n in range(11):
        for lam in partitions_of(n):
            table = comult_splittings(lam)
            assert len(table) == n + 1, lam
            for u, group in enumerate(table):
                assert group, (lam, u)
                for mu, nu, _ in group:
                    assert sum(mu) == u and sum(nu) == n - u, (lam, u)
            assert sum(c for group in table for *_, c in group) == math.prod(
                p + 1 for p in lam
            )
            want = reference_comult_table(lam)
            assert table == want, lam
            assert symfunc._comult_table.__wrapped__(lam) == want, lam


def test_label_codes_round_trip_at_their_width():
    # a sweep up to degree d codes labels at width d.bit_length(); too
    # narrow a field would merge labels silently, since codes stay additive
    for d in range(17):
        width = d.bit_length()
        labels = [lam for n in range(d + 1) for lam in partitions_of(n)]
        codes = [_label_code(lam, width) for lam in labels]
        assert len(set(codes)) == len(labels), d
        for lam, code in zip(labels, codes):
            assert _decode_label(code, width) == lam, (d, lam)
    real = default_realization()
    assert _CodedTables(real, 7).width == 3 and _CodedTables(real, 8).width == 4


def test_pair_codes_add_like_merged_labels():
    tables = _CodedTables(default_realization(), 8)
    pairs = [
        (mu, nu)
        for n in range(9)
        for u in range(n + 1)
        for mu in partitions_of(u)
        for nu in partitions_of(n - u)
    ]
    codes = [tables.pair_code(mu, nu) for mu, nu in pairs]
    assert len(set(codes)) == len(pairs)
    for (mu, nu), code in zip(pairs, codes):
        shape = (sum(mu), sum(nu))
        assert tables.decode(shape, {code: 1}).coeffs == {(mu, nu): 1}
        assert tables.swap(code) == tables.pair_code(nu, mu)
    for (m1, n1), k1 in zip(pairs[::7], codes[::7]):
        for (m2, n2), k2 in zip(pairs[::5], codes[::5]):
            if sum(m1 + n1 + m2 + n2) <= 8:
                merged = (symfunc._merge_labels(m1, m2), symfunc._merge_labels(n1, n2))
                shape = tuple(map(sum, merged))
                assert tables.decode(shape, {k1 + k2: 1}).coeffs == {merged: 1}


def test_merged_labels_share_one_tuple_per_label():
    held = {}
    labels = [lam for n in range(7) for lam in partitions_of(n)]
    for lam, mu in itertools.product(labels, repeat=2):
        merged = symfunc._merge_labels(lam, mu)
        assert merged == tuple(sorted(lam + mu, reverse=True)), (lam, mu)
        assert held.setdefault(merged, merged) is merged, (lam, mu)


def test_label_code_memos_keep_their_own_width():
    # one process, two widths: a memo must never serve the other width
    real = default_realization()
    narrow, wide = _CodedTables(real, 7), _CodedTables(real, 8)
    labels = [lam for n in range(8) for lam in partitions_of(n)]
    for tables, width in [(narrow, 3), (wide, 4), (narrow, 3)]:
        for lam in labels:
            assert tables.code(lam) == _label_code(lam, width), (width, lam)


def test_whole_is_the_union_of_the_groups():
    tables = _CodedTables(default_realization(), 8)
    for n in range(9):
        for lam in partitions_of(n):
            whole = tables.whole(lam)
            union = {k: c for group in tables[lam] for k, c in group.items()}
            assert whole == union, lam
            assert len(whole) == sum(map(len, tables[lam])), lam
            assert tables.whole(lam) is whole


def test_swapped_swaps_every_code():
    tables = _CodedTables(default_realization(), 8)
    coeffs = {
        tables.pair_code(mu, nu): len(mu) - 2 * len(nu)
        for n in range(9)
        for u in range(n + 1)
        for mu in partitions_of(u)
        for nu in partitions_of(n - u)
    }
    assert tables.swapped(coeffs) == {tables.swap(k): c for k, c in coeffs.items()}


def test_coded_tables_decode_to_the_comult_table():
    tables = _CodedTables(default_realization(), 8)
    for n in range(9):
        for lam in partitions_of(n):
            assert [
                tables.decode((u, n - u), group).coeffs
                for u, group in enumerate(tables[lam])
            ] == [
                {(mu, nu): c for mu, nu, c in group}
                for group in comult_splittings(lam)
            ], lam


def test_h_comult_against_alphabet_doubling():
    # comparing h_lam(x, y) with sum of h_mu(x) h_nu(y) coefficientwise
    nvars = 3
    for degree in range(5):
        for lam in partitions_of(degree):
            doubled = h_lambda_poly(lam, 2 * nvars)
            total = {}
            x = SymElement.basis_element("h", lam)
            for u in range(degree + 1):
                piece = comult_component(x, u, degree - u)
                for (mu, nu), coeff in piece.coeffs.items():
                    term = poly_mul(
                        {e + tuple([0] * nvars): c
                         for e, c in h_lambda_poly(mu, nvars).items()},
                        {tuple([0] * nvars) + e: c
                         for e, c in h_lambda_poly(nu, nvars).items()},
                    )
                    for e, c in term.items():
                        total[e] = total.get(e, 0) + coeff * c
            total = {e: c for e, c in total.items() if c}
            assert total == doubled, lam


def test_h_to_m_examples():
    assert h_to_m(H(2)) == SymElement(2, "m", {(2,): 1, (1, 1): 1})
    assert h_to_m(H(1, 1)) == SymElement(2, "m", {(2,): 1, (1, 1): 2})
    assert h_to_m(H(1)) == SymElement(1, "m", {(1,): 1})


def test_h_to_m_against_monomial_expansion():
    nvars = 4
    for degree in range(5):
        for lam in partitions_of(degree):
            poly = h_lambda_poly(lam, nvars)
            expanded = h_to_m(SymElement.basis_element("h", lam))
            for mu in partitions_of(degree):
                exps = tuple(mu) + tuple([0] * (nvars - len(mu)))
                assert poly.get(exps, 0) == expanded.coeffs.get(mu, 0), (lam, mu)


def test_m_to_h_round_trips():
    for degree in range(7):
        for lam in partitions_of(degree):
            x = SymElement.basis_element("h", lam)
            assert m_to_h(h_to_m(x)) == x


def test_basis_changes_give_canonical_elements():
    # h_to_m, m_to_h and schur build their results unvalidated: each must
    # equal its validated rebuild and hold no zero coefficient
    for degree in range(11):
        for lam in partitions_of(degree):
            for r in (
                h_to_m(SymElement.basis_element("h", lam)),
                m_to_h(SymElement.basis_element("m", lam)),
                schur(lam),
            ):
                assert r == SymElement(r.degree, r.basis, r.coeffs), (lam, r)
                assert all(r.coeffs.values()), (lam, r)
    # h[2] - h[1,1] = -m[1,1]: the m[2] sum cancels to 0 and is dropped
    assert h_to_m(H(2) - H(1, 1)).coeffs == {(1, 1): -1}


def test_arithmetic_gives_canonical_elements():
    # +, -, scalar multiples, h_mult and comult_component build their
    # results unvalidated: each must equal its validated rebuild and hold
    # no zero coefficient
    def rebuilt(r):
        if isinstance(r, TensorElement):
            return TensorElement(r.shape, r.coeffs)
        return SymElement(r.degree, r.basis, r.coeffs)

    bases = [[H(*lam) for lam in partitions_of(d)] for d in range(7)]
    results = [(H(2) + H(1, 1)) - H(2)]
    for d, xs in enumerate(bases):
        for x in xs + [xs[0] - 2 * xs[-1]]:
            results += [-x, 3 * x, x - x]
            results += [x + y for y in xs] + [x - y for y in xs]
            results += [h_mult(x, y) for ys in bases[: 7 - d] for y in ys]
            results += [comult_component(x, i, d - i) for i in range(d + 1)]
    for r in results:
        assert r == rebuilt(r), r
        assert all(r.coeffs.values()), r
    assert results[0].coeffs == {(1, 1): 1}
    assert (H(2) - H(2)).coeffs == {}


def test_hall_inner_examples():
    assert hall_inner(H(1, 1), H(1, 1)) == 2
    assert hall_inner(H(2), H(1, 1)) == 1
    assert hall_inner(SymElement.one(), SymElement.one()) == 1
    with pytest.raises(DegreeMismatchError):
        hall_inner(H(1), H(2))


def test_hall_inner_h_m_duality():
    for degree in range(6):
        for lam in partitions_of(degree):
            for mu in partitions_of(degree):
                x = SymElement.basis_element("h", lam)
                y = SymElement.basis_element("m", mu)
                assert hall_inner(x, y) == (1 if lam == mu else 0)


def test_hall_inner_expands_m_and_s_combinations():
    # <m-combination, h_mu> reads the m coefficient of mu; the Schur basis
    # is orthonormal; and h_mu = sum_lam K(lam, mu) s_lam.
    for degree in range(1, 7):
        parts = partitions_of(degree)
        kostka = reference_kostka(degree)
        x = {lam: (-1) ** i * (i + 2) for i, lam in enumerate(parts)}
        y = {lam: i - 3 for i, lam in enumerate(parts)}
        xm, xs = SymElement(degree, "m", x), SymElement(degree, "s", x)
        ys = SymElement(degree, "s", y)
        assert hall_inner(xs, ys) == sum(c * y[lam] for lam, c in x.items())
        for j, mu in enumerate(parts):
            h_mu = SymElement.basis_element("h", mu)
            assert hall_inner(xm, h_mu) == x[mu]
            assert hall_inner(h_mu, xm) == x[mu]
            assert hall_inner(xs, h_mu) == sum(
                x[lam] * kostka[i][j] for i, lam in enumerate(parts)
            )


def test_schur_examples():
    assert schur((1, 1)) == SymElement(2, "h", {(1, 1): 1, (2,): -1})
    for n in range(1, 6):
        assert schur((n,)) == SymElement.basis_element("h", (n,))
    assert hall_inner(schur((1, 1)), schur((1, 1))) == 1


def test_schur_orthonormal():
    for degree in range(6):
        for lam in partitions_of(degree):
            for mu in partitions_of(degree):
                want = 1 if lam == mu else 0
                assert hall_inner(schur(lam), schur(mu)) == want
                s_basis = SymElement.basis_element("s", lam)
                t_basis = SymElement.basis_element("s", mu)
                assert hall_inner(s_basis, t_basis) == want


# --- realization ------------------------------------------------------------


def test_realize_merge_example():
    real = default_realization()
    realized = real.realize_word(MorphismWord(C([1, 1]), [Merge(2, 1)]))
    out = realized(TensorElement((2,), {((2,),): 1}))
    assert out == TensorElement((1, 1), {((1,), (1,)): 1})


def test_realize_split_is_multiplication():
    real = default_realization()
    realized = real.realize_word(MorphismWord(C([5]), [Split(1, 1, 2)]))
    out = realized(TensorElement((2, 3), {((2,), (2, 1)): 1}))
    assert out == TensorElement((5,), {((2, 2, 1),): 1})


def test_realize_shuffle_permutes_slots():
    real = default_realization()
    K = ContingencyMatrix([[1, 2], [3, 4]])
    kap_row = C([1, 2, 3, 4])
    realized = real.realize_word(MorphismWord(kap_row, [Shuffle(K)]))
    el = TensorElement((1, 3, 2, 4), {((1,), (2, 1), (1, 1), (4,)): 1})
    out = realized(el)
    assert out == TensorElement((1, 2, 3, 4), {((1,), (1, 1), (2, 1), (4,)): 1})
    # all-ones matrix swaps the middle slots: w x y z -> w y x z
    K = ContingencyMatrix([[1, 1], [1, 1]])
    realized = real.realize_word(MorphismWord(C([1, 1, 1, 1]), [Shuffle(K)]))
    labels = ((1,), (1,), (1,), (1,))
    assert realized(TensorElement((1, 1, 1, 1), {labels: 1})).coeffs == {labels: 1}


def test_realize_word_fixtures():
    real = default_realization()
    # empty word is the identity
    ident = real.realize_word(MorphismWord(C([2, 1])))
    el = TensorElement((2, 1), {((1, 1), (1,)): 3})
    assert ident(el) == el
    # lower route: multiply then take a comultiplication component
    lower = MorphismWord(C([1, 1]), [Merge(2, 1), Split(1, 1, 1)])
    realized = real.realize_word(lower)
    out = realized(TensorElement((1, 1), {((1,), (1,)): 1}))
    assert out == TensorElement((1, 1), {((1,), (1,)): 2})
    # tower at the split-support matrix is the identity on h1 (x) h1
    K = ContingencyMatrix([[1, 0], [0, 1]])
    upper = MorphismWord(C([1, 1]), [Shuffle(K)])
    realized = real.realize_word(upper)
    el = TensorElement((1, 1), {((1,), (1,)): 1})
    assert realized(el) == el


def test_realize_word_functorial():
    real = default_realization()
    w1 = MorphismWord(C([2, 2]), [Merge(2, 1)])
    w2 = MorphismWord(C([4]), [Split(1, 1, 1), Split(2, 2, 2)])
    whole = real.realize_word(w1.then(w2))
    first = real.realize_word(w1)
    second = real.realize_word(w2)
    for el in real.tensor_basis(C([1, 2, 1])):
        assert whole(el) == first(second(el))


def test_realize_compose_functorial_sweep():
    real = default_realization()
    for n in range(1, 6):
        for comp in enumerate_compositions(n):
            for g1 in generators_on(comp):
                w1 = MorphismWord(comp, [g1])
                for g2 in generators_on(w1.target):
                    w2 = MorphismWord(w1.target, [g2])
                    whole = real.realize_word(w1.then(w2))
                    first = real.realize_word(w1)
                    second = real.realize_word(w2)
                    for el in real.tensor_basis(w2.target):
                        assert whole(el) == first(second(el))


def test_realize_word_reads_the_recorded_objects(monkeypatch):
    from hopflike import category

    K = ContingencyMatrix([[1, 1], [1, 1]])
    word = MorphismWord(
        C([1, 1, 1, 1]), [Shuffle(K), Merge(4, 1), Split(3, 1, 1), Merge(4, 3)]
    )
    calls = []
    apply_generator = category.apply_generator

    def counted(g, domain):
        calls.append(g)
        return apply_generator(g, domain)

    # every module that binds the name, so no import can bypass the count
    for name, module in list(sys.modules.items()):
        if name.startswith("hopflike") and hasattr(module, "apply_generator"):
            monkeypatch.setattr(module, "apply_generator", counted)
    real = default_realization()
    realized = real.realize_word(word)
    for el in real.tensor_basis(word.target):
        realized(el)
    assert calls == []


def test_realized_map_rejects_wrong_shape():
    real = default_realization()
    realized = real.realize_word(MorphismWord(C([1, 1]), [Merge(2, 1)]))
    with pytest.raises(RealizationError):
        realized(TensorElement((3,), {((3,),): 1}))
    word = real.realize_word(MorphismWord(C([1, 1]), [Merge(2, 1), Split(1, 1, 1)]))
    with pytest.raises(RealizationError):
        word(TensorElement((2,), {((2,),): 1}))


def test_tensor_element_validates_labels():
    with pytest.raises(RealizationError):
        TensorElement((2,), {((1,),): 1})
    with pytest.raises(RealizationError):
        TensorElement((1, 1), {((1,),): 1})


def test_tensor_element_rejects_non_partition_labels():
    # one predicate serves the tensor and plain constructors
    for shape, label in [((3,), ((1, 2),)), ((1,), ((1, 0),))]:
        with pytest.raises(RealizationError):
            TensorElement(shape, {label: 1})
    with pytest.raises(UsageError):
        SymElement(3, "h", {(1, 2): 1})
    assert TensorElement((3, 0), {((2, 1), ()): 1}).coeffs == {((2, 1), ()): 1}


# --- the big sum, on tensor labels -----------------------------------------


def padded_sum(x, y):
    """Big product of two {label: coeff} sums."""
    out = {}
    for term_x, c in x.items():
        for term_y, d in y.items():
            for term in _padded_products(term_x, term_y):
                out[term] = out.get(term, 0) + c * d
    return out


def test_big_product_example():
    x = {((2,),): 1}
    y = {((1,), (1,)): 1}
    assert padded_sum(x, y) == {
        ((2, 1), (1,)): 1,
        ((1,), (2, 1)): 1,
    }


def test_big_product_unit():
    unit = {(): 1}
    y = {((1, 1), (1,)): 5}
    assert padded_sum(unit, y) == y
    assert padded_sum(y, unit) == y


def test_big_product_associative_on_single_slots():
    # every bracketing of three one-slot components agrees
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                if a + b + c > 6:
                    continue
                for la in partitions_of(a):
                    for lb in partitions_of(b):
                        for lc in partitions_of(c):
                            x = {(la,): 1}
                            y = {(lb,): 1}
                            z = {(lc,): 1}
                            assert padded_sum(padded_sum(x, y), z) == \
                                padded_sum(x, padded_sum(y, z))


def test_big_coproduct_examples():
    halves = {(left, right): c for left, right, c in _halves(((2,),))}
    assert halves == {
        (((1,),), ((1,),)): 1,
        ((), ((2,),)): 1,
        (((2,),), ()): 1,
    }
    # the unit, as the one-slot tensor of degree 0, splits trivially
    assert list(_halves(((),))) == [((), (), 1)]
    pieces = list(_halves(((1,), (1,))))
    assert len(pieces) == 4
    for left, right, c in pieces:
        assert sum(map(sum, left)) + sum(map(sum, right)) == 2
        assert c


def test_commutative_and_cocommutative():
    for degree in range(9):
        for lam in partitions_of(degree):
            x = SymElement.basis_element("h", lam)
            for u in range(degree + 1):
                comp = comult_component(x, u, degree - u)
                swapped = tensor_permute(
                    comult_component(x, degree - u, u), (1, 0)
                )
                assert comp == swapped
    for a in range(5):
        for b in range(9 - a):
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    x = SymElement.basis_element("h", lam)
                    y = SymElement.basis_element("h", mu)
                    assert h_mult(x, y) == h_mult(y, x)


# --- the Kostka table and the transition layer -----------------------------


def hook_length_count(lam):
    """Standard Young tableaux of shape lam: n! over the product of hooks."""
    columns = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= (p - j - 1) + (columns[j] - i - 1) + 1
    return math.factorial(sum(lam)) // hooks


def rsk_mismatches(max_degree):
    """Pairs where (K^T K)(lam, mu) differs from the contingency count."""
    bad = []
    for degree in range(max_degree + 1):
        matrix = transition_cache().degree_matrix(degree)
        parts = partitions_of(degree)
        for lam in parts:
            for mu in parts:
                if matrix[lam][mu] != count_matrices(lam, mu):
                    bad.append((lam, mu))
    return bad


def dense_product(a, b):
    """a times b for matrices given as row tuples, every entry summed."""
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty transition memos for the test, and again after it."""
    memos = (symfunc._kostka, symfunc._kostka_inverse, symfunc._inverse_transition)

    def clear():
        for memo in memos:
            memo.cache_clear()

    clear()
    monkeypatch.setattr(symfunc, "_default_cache", TransitionCache())
    yield
    clear()


def test_transition_matrix_is_rsk_count():
    # sum_nu K(nu, lam) K(nu, mu) = count_matrices(lam, mu) (Knuth 1970):
    # tableau strips on one side, contingency enumeration on the other
    assert rsk_mismatches(10) == []


def test_tables_match_dense_references(fresh_tables):
    # built from the degrees below and from upper triangles, the tables
    # must equal the strip-per-part build and the full dense products,
    # up to degree 12, the top degree of the benchmark's round trip
    for n in range(13):
        table = _kostka(n)
        assert table == reference_kostka(n), n
        inverse = symfunc._kostka_inverse(n)
        size = range(len(table))
        identity = tuple(tuple(int(i == j) for j in size) for i in size)
        assert dense_product(inverse, table) == identity, n
        assert _inverse_transition(n) == dense_product(inverse, tuple(zip(*inverse)))
        counts = dense_product(tuple(zip(*table)), table)
        parts = partitions_of(n)
        assert transition_cache().degree_matrix(n) == {
            lam: {mu: counts[i][j] for j, mu in enumerate(parts)}
            for i, lam in enumerate(parts)
        }, n


def test_strips_match_the_interlacing_test():
    # the reference finds each strip by nu_1 >= lam_1 >= nu_2 >= ... over
    # every partition of the grown degree, not by growing rows
    for degree in range(9):
        for shape in partitions_of(degree):
            for size in range(5):
                strips = symfunc._horizontal_strips(shape, size)
                assert sorted(strips) == sorted(reference_strips(shape, size))


def test_kostka_standard_column_is_hook_length():
    for n in range(11):
        table = _kostka(n)
        for row, lam in zip(table, partitions_of(n)):
            assert row[-1] == hook_length_count(lam), lam


def test_schur_matches_jacobi_trudi():
    for degree in range(9):
        for lam in partitions_of(degree):
            assert schur(lam) == jacobi_trudi(lam), lam
    # zeros, unsorted parts, negative parts and vanishing labels such as (1, 2)
    for length in range(5):
        for lam in itertools.product(range(-1, 5), repeat=length):
            assert schur(lam) == jacobi_trudi(lam), lam
    assert schur((1, 2)).is_zero


def drop_one_strip(monkeypatch):
    """Lose the strip (1) -> (2), so that K((2), (1,1)) reads 0."""
    real = symfunc._horizontal_strips

    def drop_one(shape, size):
        strips = real(shape, size)
        return [nu for nu in strips if (shape, size, nu) != ((1,), 1, (2,))]

    monkeypatch.setattr(symfunc, "_horizontal_strips", drop_one)


def test_dropped_strip_is_caught(fresh_tables, monkeypatch):
    drop_one_strip(monkeypatch)
    # the table stays unitriangular, so it builds; only K((2), (1,1)) and
    # its relatives are wrong.  h->m->h cannot see this, because both
    # directions come from the same table: the independent oracles must.
    assert _kostka(2) != reference_kostka(2)
    assert ((2,), (1, 1)) in rsk_mismatches(4)
    assert schur((1, 1)) != jacobi_trudi((1, 1))


def test_fault_after_warm_tables_reaches_the_pairing(request, monkeypatch):
    # rows built before the fault must not outlive fresh_tables
    assert hall_inner(H(1, 1), H(1, 1)) == 2
    request.getfixturevalue("fresh_tables")
    drop_one_strip(monkeypatch)
    # with K = identity in degree 2, <h11, h11> reads 1, not the 2
    # matrices of margins (1,1), (1,1).  Schur pairs would stay at delta.
    assert hall_inner(H(1, 1), H(1, 1)) == 1
    assert count_matrices((1, 1), (1, 1)) == 2


def test_wrong_inverse_breaks_round_trip(fresh_tables, monkeypatch):
    real = symfunc._kostka_inverse

    def skewed(degree):
        rows = [list(row) for row in real(degree)]
        rows[0][-1] += 1
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(symfunc, "_kostka_inverse", skewed)
    x = H(1, 1)
    assert m_to_h(h_to_m(x)) != x


def test_non_unit_diagonal_raises(fresh_tables, monkeypatch):
    real = symfunc._horizontal_strips

    def repeat_row(shape, size):
        strips = real(shape, size)
        return strips + [(size,)] if shape == () else strips

    monkeypatch.setattr(symfunc, "_horizontal_strips", repeat_row)
    with pytest.raises(UsageError, match="unitriangular"):
        _inverse_transition(3)


def test_cold_tables_leave_no_cyclic_garbage(fresh_tables):
    # A recursive closure is a reference cycle, so the partition list,
    # the strip enumeration, the count recursion and the matrix fill left
    # one per call for the cyclic collector.
    contingency._count.cache_clear()
    partitions_of.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for n in range(13):
            for lam in partitions_of(n):
                assert hall_inner(schur(lam), H(*lam)) == 1
                assert m_to_h(h_to_m(H(*lam))) == H(*lam)
                count_matrices(lam, lam[::-1])
        for margins in [(2, 2), (1, 2, 1), (3, 3, 3)]:
            contingency.enumerate_matrices(margins, margins)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


# --- formatting ------------------------------------------------------------


def test_format_and_parse_sym():
    x = H(2) - H(1, 1)
    assert format_sym(x) == "h[2] - h[1,1]"
    assert format_sym(SymElement(2, "h", {})) == "0"


def test_format_and_parse_tensor():
    el = TensorElement((1, 1), {((1,), (1,)): 2})
    assert format_tensor(el) == "2*h[1] (x) h[1]"
    el = TensorElement((2, 1), {((2,), (1,)): 1, ((1, 1), (1,)): -3})
    assert format_tensor(el) == "h[2] (x) h[1] - 3*h[1,1] (x) h[1]"
