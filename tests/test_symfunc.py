import itertools
import json
import threading

import pytest

from hopflike.compositions import Composition
from hopflike.category import Merge, MorphismWord, Shuffle, Split, compose
from hopflike.contingency import ContingencyMatrix
from hopflike.errors import (
    BasisMismatchError,
    DegreeMismatchError,
    RealizationError,
)
from hopflike.parsing import parse_sym_element, parse_tensor_element
from hopflike.symfunc import (
    DirectSumElement,
    SymElement,
    TensorElement,
    TransitionCache,
    big_coproduct,
    big_product,
    comult_component,
    default_realization,
    format_sym,
    format_tensor,
    h_comult,
    h_mult,
    h_to_m,
    hall_inner,
    m_to_h,
    partitions_of,
    schur,
    tensor_permute,
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
    comps = dict(h_comult(H(2)))
    assert comps[(0, 2)] == TensorElement((0, 2), {((), (2,)): 1})
    assert comps[(1, 1)] == TensorElement((1, 1), {((1,), (1,)): 1})
    assert comps[(2, 0)] == TensorElement((2, 0), {((2,), ()): 1})
    assert dict(h_comult(SymElement.one()))[(0, 0)] == TensorElement(
        (0, 0), {((), ()): 1}
    )
    assert comult_component(H(1, 1), 1, 1) == TensorElement(
        (1, 1), {((1,), (1,)): 2}
    )


def test_h_comult_against_alphabet_doubling():
    # comparing h_lam(x, y) with sum of h_mu(x) h_nu(y) coefficientwise
    nvars = 3
    for degree in range(5):
        for lam in partitions_of(degree):
            doubled = h_lambda_poly(lam, 2 * nvars)
            total = {}
            for (u, _), piece in h_comult(SymElement.basis_element("h", lam)):
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
    realized = real.realize_generator(Merge(2, 1), C([1, 1]))
    out = realized(TensorElement((2,), {((2,),): 1}))
    assert out == TensorElement((1, 1), {((1,), (1,)): 1})


def test_realize_split_is_multiplication():
    real = default_realization()
    realized = real.realize_generator(Split(1, 1, 2), C([5]))
    out = realized(TensorElement((2, 3), {((2,), (2, 1)): 1}))
    assert out == TensorElement((5,), {((2, 2, 1),): 1})


def test_realize_shuffle_permutes_slots():
    real = default_realization()
    K = ContingencyMatrix([[1, 2], [3, 4]])
    kap_row = C([1, 2, 3, 4])
    realized = real.realize_generator(Shuffle(K), kap_row)
    el = TensorElement((1, 3, 2, 4), {((1,), (2, 1), (1, 1), (4,)): 1})
    out = realized(el)
    assert out == TensorElement((1, 2, 3, 4), {((1,), (1, 1), (2, 1), (4,)): 1})
    # all-ones matrix swaps the middle slots: w x y z -> w y x z
    K = ContingencyMatrix([[1, 1], [1, 1]])
    realized = real.realize_generator(Shuffle(K), C([1, 1, 1, 1]))
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
    whole = real.realize_word(compose(w1, w2))
    first = real.realize_word(w1)
    second = real.realize_word(w2)
    for el in real.tensor_basis(C([1, 2, 1])):
        assert whole(el) == first(second(el))


def all_single_step_words(comp):
    t = comp.length
    for i in range(1, t):
        yield MorphismWord(comp, [Merge(t, i)])
    for i in range(1, t + 1):
        for a in range(1, comp.parts[i - 1]):
            yield MorphismWord(comp, [Split(t, i, a)])


def test_realize_compose_functorial_sweep():
    from hopflike.compositions import enumerate_compositions

    real = default_realization()
    for n in range(1, 6):
        for comp in enumerate_compositions(n):
            for w1 in all_single_step_words(comp):
                for w2 in all_single_step_words(w1.target):
                    whole = real.realize_word(compose(w1, w2))
                    first = real.realize_word(w1)
                    second = real.realize_word(w2)
                    for el in real.tensor_basis(w2.target):
                        assert whole(el) == first(second(el))


def test_realized_map_rejects_wrong_shape():
    real = default_realization()
    realized = real.realize_generator(Merge(2, 1), C([1, 1]))
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


# --- the big sum ------------------------------------------------------------


def test_big_product_example():
    x = DirectSumElement.from_tensor(TensorElement((2,), {((2,),): 1}))
    y = DirectSumElement.from_tensor(
        TensorElement((1, 1), {((1,), (1,)): 1})
    )
    out = big_product(x, y)
    assert dict(out.items()) == {
        C([3, 1]): TensorElement((3, 1), {((2, 1), (1,)): 1}),
        C([1, 3]): TensorElement((1, 3), {((1,), (2, 1)): 1}),
    }


def test_big_product_unit():
    y = DirectSumElement.from_tensor(
        TensorElement((2, 1), {((1, 1), (1,)): 5})
    )
    assert big_product(DirectSumElement.unit(), y) == y
    assert big_product(y, DirectSumElement.unit()) == y


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
                            x = DirectSumElement.from_tensor(
                                TensorElement((a,), {(la,): 1})
                            )
                            y = DirectSumElement.from_tensor(
                                TensorElement((b,), {(lb,): 1})
                            )
                            z = DirectSumElement.from_tensor(
                                TensorElement((c,), {(lc,): 1})
                            )
                            assert big_product(big_product(x, y), z) == \
                                big_product(x, big_product(y, z))


def test_big_coproduct_examples():
    comps = dict(big_coproduct(TensorElement((2,), {((2,),): 1})))
    assert comps[(1, 1)] == TensorElement((1, 1), {((1,), (1,)): 1})
    assert comps[(1, 0)] == TensorElement((0, 2), {((), (2,)): 1})
    assert comps[(1, 2)] == TensorElement((2, 0), {((2,), ()): 1})
    unit = TensorElement((), {(): 1})
    assert big_coproduct(unit) == [((1, 0), unit)]
    pieces = big_coproduct(TensorElement((1, 1), {((1,), (1,)): 1}))
    assert len(pieces) == 4
    for (slot, a), piece in pieces:
        assert sum(piece.shape) == 2
        assert not piece.is_zero


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


# --- transition cache -------------------------------------------------------


def test_cache_persistence_and_checksum(tmp_path):
    path = str(tmp_path / "transitions.json")
    cache = TransitionCache(path)
    matrix = cache.degree_matrix(3)
    assert matrix[((3,), (1, 1, 1))] == 1
    assert matrix[((1, 1, 1), (1, 1, 1))] == 6

    fresh = TransitionCache(path)
    assert fresh.degree_matrix(3) == matrix
    stats = fresh.stats()
    assert stats["degrees"] == [3]
    assert stats["path"] == path

    # corrupt one count: the checksum must reject the block
    with open(path) as fh:
        data = json.load(fh)
    key = next(iter(data["degrees"]["3"]["counts"]))
    data["degrees"]["3"]["counts"][key] += 100
    with open(path, "w") as fh:
        json.dump(data, fh)
    repaired = TransitionCache(path)
    assert repaired.degree_matrix(3) == matrix

    repaired.clear()
    assert repaired.stats()["entries"] == 0
    import os
    assert not os.path.exists(path)


def test_cache_concurrent_fill(tmp_path):
    cache = TransitionCache(str(tmp_path / "t.json"))
    results = []

    def worker():
        results.append(cache.degree_matrix(4))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


# --- formatting and parsing round trips -------------------------------------


def test_format_and_parse_sym():
    x = H(2) - H(1, 1)
    assert format_sym(x) == "h[2] - h[1,1]"
    assert parse_sym_element(format_sym(x)) == x
    assert format_sym(SymElement(2, "h", {})) == "0"
    assert parse_sym_element("s[1,1]") == SymElement.basis_element("s", (1, 1))
    assert parse_sym_element("3") == SymElement(0, "h", {(): 3})


def test_format_and_parse_tensor():
    el = TensorElement((1, 1), {((1,), (1,)): 2})
    assert format_tensor(el) == "2*h[1] (x) h[1]"
    assert parse_tensor_element(format_tensor(el)) == el
    el = TensorElement((2, 1), {((2,), (1,)): 1, ((1, 1), (1,)): -3})
    assert parse_tensor_element(format_tensor(el)) == el
    assert parse_tensor_element("s[1,1] (x) h[1]") == TensorElement(
        (2, 1), {((1, 1), (1,)): 1, ((2,), (1,)): -1}
    )
