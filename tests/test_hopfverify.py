import hashlib
import json
import sys
from collections import Counter
from bisect import bisect_left
from itertools import accumulate, combinations, product
from pathlib import Path

import pytest

from hopflike import category, hopfverify
from hopflike.compositions import (
    Composition,
    common_coarsenings,
    enumerate_compositions,
    refines,
)
from hopflike.contingency import ContingencyMatrix, enumerate_matrices
from hopflike.errors import SumMismatchError, UsageError
from hopflike.hopfverify import (
    _factored_towers,
    _modified_product_label,
    check_bidegree12,
    check_bidegree12_cases,
    check_bidegree12_defect,
    check_hopf_compat,
    check_mixed_relations,
    check_relation_family,
    check_square_condition,
    check_worked_examples,
    explore_mixed_bidegree,
)
from hopflike import symfunc
from hopflike.symfunc import (
    PshRealization,
    RealizedMap,
    TensorElement,
    default_realization,
)
from reference import (
    _factoring_matrices,
    comult_fault,
    margins,
    reference_hopf_defect_12,
)

C = Composition
DATA = Path(__file__).parent / "data"


def sweep_defect(x):
    """The Hopf defect of a three-slot element by output bidegree, from the
    defect sweep's own helpers: each label's product, less the comult of
    its modified product."""
    tables = symfunc._CodedTables(default_realization(), sum(x.shape))
    out = {}
    for label, co in x.coeffs.items():
        composite = hopfverify._coded_product(tables, x.shape, label)
        for k, c in hopfverify._label_defect(tables, x.shape, label, composite).items():
            out[k] = out.get(k, 0) + co * c
    return tables.graded(hopfverify._nonzero(out))


def expansion_12(x):
    """The six-map expansion of a positive three-slot element, by bidegree."""
    tables = symfunc._CodedTables(default_realization(), sum(x.shape))
    return tables.graded(hopfverify._coded_six_term_12(tables, x.shape, x.coeffs))


def expansion_21(x):
    """The (2,1) bracketing: the reversed element's (1,2) expansion with the
    halves of every output pair swapped."""
    tables = symfunc._CodedTables(default_realization(), sum(x.shape))
    reversed_coeffs = {label[::-1]: c for label, c in x.coeffs.items()}
    mirrored = hopfverify._coded_six_term_12(tables, x.shape[::-1], reversed_coeffs)
    return tables.graded(tables.swapped(mirrored))


def test_hopf_compat_small_by_hand():
    # both sides of the (1,1) component of comult(h1 * h1) are 2 h1 (x) h1
    report = check_hopf_compat(2)
    assert report.passed
    report = check_hopf_compat(6)
    assert report.passed and report.checked > 100


def test_square_condition_summed_equals_compat():
    assert check_square_condition(C([1, 1]), C([1, 1]), "summed").passed
    assert check_square_condition(C([2, 1]), C([1, 2]), "summed").passed
    assert check_square_condition(C([2, 2]), C([2, 2]), "summed").passed


def test_square_condition_summed_all_length_two_margins():
    from hopflike.compositions import enumerate_compositions

    for n in range(2, 9):
        pairs = [c for c in enumerate_compositions(n, 2) if c.length == 2]
        for alpha in pairs:
            for beta in pairs:
                assert check_square_condition(alpha, beta, "summed").passed


def test_semantic_equal_rejects_non_parallel_words():
    from hopflike.category import MorphismWord, Merge, semantic_equal
    from hopflike.errors import ChainError

    w1 = MorphismWord(C([1, 1]), [Merge(2, 1)])
    w2 = MorphismWord(C([2, 1]), [Merge(2, 1)])
    with pytest.raises(ChainError):
        semantic_equal(w1, w2)


def test_square_condition_trivial_margins_pass_per_k():
    report = check_square_condition(C([2]), C([2]), "per-k")
    assert report.passed and report.checked == 1


def test_square_condition_rejects_bad_input():
    with pytest.raises(SumMismatchError):
        check_square_condition(C([2]), C([3]), "summed")
    with pytest.raises(UsageError):
        check_square_condition(C([2]), C([2]), "sideways")


def test_per_k_counterexample_matches_fixture():
    report = check_square_condition(C([1, 1]), C([1, 1]), "per-k")
    assert not report.passed
    recorded = (DATA / "square_per_k_11.json").read_text()
    assert report.to_json() + "\n" == recorded
    # the recorded witness re-evaluates to the recorded values
    payload = json.loads(recorded)
    first = payload["failures"][0]
    assert first["left"] == "h[1] (x) h[1]"
    assert first["right"] == "2*h[1] (x) h[1]"
    again = check_square_condition(C([1, 1]), C([1, 1]), "per-k")
    assert again.to_json() == report.to_json()


@pytest.mark.parametrize("parts", [(2, 2), (1, 2, 1)])
def test_per_k_failure_tensors_match_fixture(parts):
    # every matrix fails alone, so the report pins each tower's values
    report = check_square_condition(C(parts), C(parts), "per-k")
    assert len(report.failures) == report.checked
    name = f"square_per_k_{''.join(map(str, parts))}.json"
    assert report.to_json() + "\n" == (DATA / name).read_text(encoding="utf-8")


def test_per_k_realizes_the_route_once(monkeypatch):
    words = []
    realize_word = PshRealization.realize_word

    def counted(self, word):
        words.append(word)
        return realize_word(self, word)

    monkeypatch.setattr(PshRealization, "realize_word", counted)
    parts = C([1, 2, 1, 2])
    report = check_square_condition(parts, parts, "per-k")
    assert report.checked == 58
    assert len(words) == 1


@pytest.mark.parametrize("parts, checked", [((1, 2, 1, 2), 58), ((2, 2, 2), 21)])
def test_per_k_evaluates_the_route_once_per_element(monkeypatch, parts, checked):
    # every matrix fails on the first basis element: one tower-group call
    # per matrix and one for the route's coproduct half, and one route
    # call for that element in all
    routes = groups = 0
    call = RealizedMap.__call__
    summed = symfunc._CodedTables.summed_towers

    def counted_route(self, el):
        nonlocal routes
        routes += 1
        return call(self, el)

    def counted_group(*args):
        nonlocal groups
        groups += 1
        return summed(*args)

    monkeypatch.setattr(RealizedMap, "__call__", counted_route)
    monkeypatch.setattr(symfunc._CodedTables, "summed_towers", counted_group)
    report = check_square_condition(C(parts), C(parts), "per-k")
    assert report.checked == checked
    assert routes == 1
    assert groups == checked + 1


@pytest.mark.parametrize("sweep, routes, checked", [
    (lambda: check_mixed_relations(6, 3), 116, 692),
    (lambda: check_worked_examples(8), 140, 818),
], ids=["mixed-6-3", "worked-8"])
def test_route_coproducts_are_valued_once_per_gamma_beta(
    monkeypatch, sweep, routes, checked
):
    # the route's comultiplied half is the tower of gamma's diagonal,
    # valued once per (gamma, beta) of the sweep, however many alphas
    # share it; the towers are valued once per comparison; and a group of
    # several blocks is summed block by block, each block once per sweep
    groups, sums = {"_route_comparison": [], "sweep": []}, Counter()
    factored, summed = hopfverify._factored_towers, symfunc._CodedTables.summed_towers

    def counted_group(alpha, beta, gamma, tables):
        caller = sys._getframe(1).f_code.co_name
        count, totals = factored(alpha, beta, gamma, tables)
        groups[caller if caller in groups else "sweep"].append((alpha, beta, gamma, count))
        return count, totals

    def counted_sum(self, domain_shape, matrices):
        sums[domain_shape, margins(matrices[0])[1]] += 1
        return summed(self, domain_shape, matrices)

    monkeypatch.setattr(hopfverify, "_factored_towers", counted_group)
    monkeypatch.setattr(symfunc._CodedTables, "summed_towers", counted_sum)
    report = sweep()
    diagonals = groups["_route_comparison"]
    assert report.passed and report.checked == checked
    assert len(groups["sweep"]) == checked
    assert len(diagonals) == routes
    assert len({(gamma, beta) for gamma, beta, _, _ in diagonals}) == routes
    assert all(count == 1 for *_, count in diagonals)
    # one sum per group of one block, and one per distinct block
    want, blocks = Counter(), set()
    for alpha, beta, gamma, _ in groups["sweep"] + diagonals:
        rows, cols = refines(gamma, alpha), refines(gamma, beta)
        if len(rows) == 1:
            want[alpha.parts, beta.parts] += 1
            continue
        r0 = c0 = 0
        for nr, nc in zip(rows, cols):
            blocks.add((alpha.parts[r0:r0 + nr], beta.parts[c0:c0 + nc]))
            r0, c0 = r0 + nr, c0 + nc
    assert blocks and sums == want + Counter(blocks)


def _block_index(parts, gamma):
    """Block of gamma holding each part, by where the part ends."""
    ends = list(accumulate(gamma.parts))
    return [bisect_left(ends, end) for end in accumulate(parts)]


def test_factoring_matrices_match_support_oracle():
    # oracle: every nonzero cell has its row and column in one gamma block
    comps = [c for n in range(1, 7) for c in enumerate_compositions(n, 4)]
    instances = 0
    for alpha in comps:
        for beta in comps:
            if alpha.sum != beta.sum:
                continue
            every = enumerate_matrices(alpha, beta)
            for gamma in common_coarsenings(alpha, beta):
                rows = _block_index(alpha.parts, gamma)
                cols = _block_index(beta.parts, gamma)
                want = sorted(
                    K.entries for K in every
                    if all(
                        rows[i] == cols[j]
                        for i, row in enumerate(K.entries)
                        for j, v in enumerate(row) if v
                    )
                )
                got = sorted(
                    K.entries for K in _factoring_matrices(alpha, beta, gamma)
                )
                assert got == want, (alpha, beta, gamma)
                instances += 1
    assert instances == 2086


@pytest.mark.parametrize("inject", [None, comult_fault], ids=["true", "comult"])
def test_factored_towers_match_the_group_summed_matrix_by_matrix(monkeypatch, inject):
    # oracle: the block product equals summed_towers over the group's
    # explicit matrices, zeros and all, under a true and a faulty coproduct
    if inject:
        inject(monkeypatch)
    comps = [c for n in range(1, 7) for c in enumerate_compositions(n, 4)]
    tables = symfunc._CodedTables(default_realization(), 6)
    instances = 0
    for alpha in comps:
        for beta in comps:
            if alpha.sum != beta.sum:
                continue
            for gamma in common_coarsenings(alpha, beta):
                group = _factoring_matrices(alpha, beta, gamma)
                count, totals = _factored_towers(alpha, beta, gamma, tables)
                assert count == len(group), (alpha, beta, gamma)
                want = tables.summed_towers(alpha.parts, group)
                assert totals == want, (alpha, beta, gamma)
                instances += 1
    assert instances == 2086 and tables.blocks


def test_factored_towers_refuse_a_gamma_that_does_not_coarsen():
    # (3,1) coarsens (2,1,1) but not (2,2), on either side
    tables = symfunc._CodedTables(default_realization(), 4)
    for alpha, beta, names in [
        ((2, 1, 1), (2, 2), r"\(2,1,1\) and \(2,2\)"),
        ((2, 2), (2, 1, 1), r"\(2,2\) and \(2,1,1\)"),
    ]:
        with pytest.raises(UsageError, match=r"\(3,1\) does not coarsen both " + names):
            _factored_towers(C(alpha), C(beta), C([3, 1]), tables)


# Reports past the benchmark's bounds, recorded when every group was still
# summed matrix by matrix (the tower sweeps) and when every Hopf comparison
# and every zero-branch subtraction ran degree by degree and input by input
# (the coalgebra sweeps), and when every tautau instance was valued
# through the generic chain loop: none of these changes may move a byte.
@pytest.mark.parametrize("sweep, digest", [
    (
        lambda: check_worked_examples(9),
        "2c4037359ed9b0d95ff24d559ed5b5ec23cf67754d0ce93c0bb624786db8f324",
    ),
    (
        lambda: check_mixed_relations(7, 3),
        "30251f8576037436c466ff4eb25c5de6947c9638fca6dfdba61822b2d5243715",
    ),
    (
        lambda: check_hopf_compat(13),
        "616176ede47141ceaa1552fc3b285d9b6170efe8445493b669637ffd7a42e897",
    ),
    (
        lambda: check_bidegree12_defect(12),
        "07e6498b8f1c344aed727b54a7cbb6db95dff3d775069cafb5be0b4fe6d9db6d",
    ),
    (
        lambda: check_bidegree12_cases(12),
        "8012264b5f17361dedc79f16110035646496bbb3ccf3c39d34f8c9f087efa8d2",
    ),
    (
        lambda: check_relation_family("tautau", 5, 3),
        "19cdbd74c1a70ed785e0b84516776f70175e5493ddd8dc7068c32967932a6333",
    ),
], ids=[
    "worked-9", "mixed-7-3", "hopf-13", "bidegree12-defect-12",
    "bidegree12-six-cases-12", "relations-tautau-5-3",
])
def test_stretch_reports_are_pinned(sweep, digest):
    report = sweep()
    assert report.passed
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_relation_families_pass():
    assert check_relation_family("dd", 6, 3).passed
    assert check_relation_family("ss", 6, 3).passed
    assert check_relation_family("tautau", 4, 3).passed


@pytest.mark.parametrize(
    "family, max_sum, max_len, checked, values",
    [("dd", 8, 4, 728, 532), ("ss", 8, 4, 1218, 2436), ("tautau", 4, 4, 40820, 40884)],
)
def test_relation_sweeps_value_each_kept_chain_once_per_source(
    monkeypatch, family, max_sum, max_len, checked, values
):
    # dd and ss value both chains of an instance by _chain_value, and keep
    # a value per source only when it is linear, as every dd chain is
    # (merges realize through the coproduct): dd values each of a source's
    # chains once, ss (functions on basis positions) both chains of every
    # instance.  tautau values each instance's chain (k1, k2) by one
    # composition, a map in C, and keeps one value per group first per
    # source: the composition of the chain that opens its group against
    # K3, or else one _chain_value (whose two shuffles compose by one map)
    calls = Counter()
    for name, real in [("_chain_value", hopfverify._chain_value), ("map", map)]:

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(hopfverify, name, counted, raising=False)
    report = check_relation_family(family, max_sum, max_len)
    walk = list(category._relation_chains(family, max_sum, max_len)[1])
    lefts = {(source, left) for source, left, _, _ in walk}
    both = {(source, chain) for source, *sides, _ in walk for chain in sides}
    assert report.passed and report.checked == len(walk) == checked
    if family != "tautau":
        assert calls["_chain_value"] == values
        assert values == (len(both) if family == "dd" else 2 * checked)
        return
    steps = sum(len(right) == 1 for _, _, right, _ in walk)
    assert calls["map"] == checked + calls["_chain_value"]
    assert calls["_chain_value"] + steps == len(lefts)
    assert checked + len(lefts) == values


def test_tautau_sweep_hashes_no_matrix(monkeypatch):
    # tables and chain values are keyed by shuffle ids, so a passing sweep
    # never hashes a margin matrix (keyed by the matrix, it hashed one
    # 163,792 times at 4/4, four times per instance)
    calls = 0
    matrix_hash = ContingencyMatrix.__hash__

    def counted(self):
        nonlocal calls
        calls += 1
        return matrix_hash(self)

    monkeypatch.setattr(ContingencyMatrix, "__hash__", counted)
    hash(ContingencyMatrix([[1]]))
    assert calls == 1  # the patch counts
    report = check_relation_family("tautau", 4, 4)
    assert report.passed and report.checked == 40_820
    assert calls == 1


def test_mixed_relations_summed():
    report = check_mixed_relations(5, 3)
    assert report.passed and report.checked > 50


def test_mixed_family_is_the_summed_check():
    assert check_relation_family("mixed", 4, 2) == check_mixed_relations(4, 2)


def test_worked_examples_small():
    report = check_worked_examples(6)
    assert report.passed
    assert report.checked > 100


def test_modified_mult_examples():
    assert _modified_product_label(((1,), (1,), (1,)), (1, 1, 1)) is None
    assert _modified_product_label(((), (1,), (2,)), (0, 1, 2)) == (2, 1)
    assert _modified_product_label(((2,), (1,), ()), (2, 1, 0)) == (2, 1)


def test_defect_frozen_values():
    # (1,1,1) on h1 (x) h1 (x) h1: eight comultiplication terms by hand
    defect = sweep_defect(TensorElement.basis(((1,), (1,), (1,))))
    assert defect == {
        (1, 2): TensorElement((1, 2), {((1,), (1, 1)): 3}),
        (2, 1): TensorElement((2, 1), {((1, 1), (1,)): 3}),
    }
    # (2,1,1) on h2 (x) h1 (x) h1, expanded by hand
    defect = sweep_defect(TensorElement.basis(((2,), (1,), (1,))))
    assert defect == {
        (1, 3): TensorElement((1, 3), {((1,), (2, 1)): 2}),
        (2, 2): TensorElement((2, 2), {
            ((2,), (1, 1)): 1,
            ((1, 1), (2,)): 1,
            ((1, 1), (1, 1)): 2,
        }),
        (3, 1): TensorElement((3, 1), {((2, 1), (1,)): 2}),
    }


def test_defect_vanishes_on_zero_tridegree():
    assert sweep_defect(TensorElement.basis(((), (1,), (1,)))) == {}
    assert sweep_defect(TensorElement.basis(((2,), (), (1,)))) == {}
    assert sweep_defect(TensorElement.basis(((), (), ()))) == {}


def test_defect_equals_the_full_triple_loop():
    real = default_realization()
    checked = zero = 0
    for a in range(8):
        for b in range(8 - a):
            for c in range(8 - a - b):
                for el in real.tensor_basis((a, b, c)):
                    assert sweep_defect(el) == reference_hopf_defect_12(el), el
                    checked += 1
                    zero += min(a, b, c) == 0
    assert checked == 844 and 0 < zero < checked


def test_unit_labels_at_the_width_step():
    # total degree 8 is where the label code width steps from 3 to 4 bits:
    # h[1^8] is the first label with a multiplicity of 8
    for a in range(9):
        for b in range(9 - a):
            c = 8 - a - b
            el = TensorElement.basis(((1,) * a, (1,) * b, (1,) * c))
            reference = reference_hopf_defect_12(el)
            assert sweep_defect(el) == reference, el
            if min(a, b, c) > 0:
                assert expansion_12(el) == reference, el
                assert expansion_21(el) == reference, el


def test_hopf_failure_decodes_the_widest_label(monkeypatch):
    # both sides of a Hopf comparison merge labels by the same add, so only
    # the decoded failure shows whether h[1^8] kept its own code
    assert check_hopf_compat(8).passed
    real = PshRealization._splittings
    ones = (1,) * 8

    def corrupted(lam):
        table = real(lam)
        if lam != ones:
            return table
        return table[:-1] + (((ones, (), 2),),)

    monkeypatch.setattr(PshRealization, "_splittings", staticmethod(corrupted))
    failure = check_hopf_compat(8).failures[0]
    assert failure.instance == "degrees a=1 b=7 component j=8"
    assert failure.left == "2*h[1,1,1,1,1,1,1,1] (x) h[]"
    assert failure.right == "h[1,1,1,1,1,1,1,1] (x) h[]"


def test_six_term_equals_defect_pointwise():
    for labels in [
        ((1,), (1,), (1,)),
        ((2,), (1,), (1,)),
        ((1, 1), (1,), (1,)),
        ((2,), (2,), (1,)),
        ((1,), (2, 1), (1, 1)),
    ]:
        el = TensorElement.basis(labels)
        assert expansion_12(el) == sweep_defect(el), labels
        assert expansion_21(el) == sweep_defect(el), labels


def test_six_term_linear():
    x = TensorElement.basis(((1,), (1,), (2,)))
    y = TensorElement.basis(((1,), (1,), (1, 1)))
    combined = x + 2 * y
    left = expansion_12(combined)
    right = {}
    for key, el in expansion_12(x).items():
        right[key] = el
    for key, el in expansion_12(y).items():
        right[key] = right.get(key, TensorElement.zero(key)) + 2 * el
    right = {k: v for k, v in right.items() if not v.is_zero}
    assert left == right


def test_six_term_linear_on_label_differences():
    # the coded expansion keeps zero coefficients, so cancelling terms of
    # b1 - b2 must still leave the graded dicts free of zeros
    tridegrees = [
        (a, b, c)
        for a in range(1, 4) for b in range(1, 4) for c in range(1, 4)
        if a + b + c <= 5
    ]
    for shape in tridegrees:
        labels = list(product(*map(symfunc.partitions_of, shape)))
        for l1, l2 in combinations(labels, 2):
            b1, b2 = TensorElement.basis(l1), TensorElement.basis(l2)
            for expand in (expansion_12, expansion_21):
                got = expand(b1 - b2)
                for el in got.values():
                    assert el.coeffs and all(el.coeffs.values()), (shape, l1, l2)
                want = dict(expand(b1))
                for key, el in expand(b2).items():
                    want[key] = want.get(key, TensorElement.zero(key)) - el
                want = {k: v for k, v in want.items() if not v.is_zero}
                assert got == want, (expand.__name__, l1, l2)


def test_six_cases_pattern():
    # total 4 covers the tridegrees (1,1,1) and (1,1,2) with their arrangements
    report = check_bidegree12_cases(4)
    assert report.passed
    assert report.checked == 1 + 3 * 2


def test_bidegree_sweep_small():
    defect_report, cases_report = check_bidegree12(5)
    assert defect_report.passed and cases_report.passed
    assert defect_report.checked > 100


def test_explore_unit_routes_coincide():
    report = explore_mixed_bidegree(0, C([1, 1]))
    assert report["difference"] == {}


def test_explore_contains_displayed_components():
    report = explore_mixed_bidegree(1, C([1, 1]))
    # splits of V1 against the joined (W, V2) slot, one per product term
    assert report["upper"]["(1)|(2)"] == "2*h[1] (x) h[1,1]"
    # the doubled split of the joined slot
    assert "2*h[1] (x) h[1] (x) h[1]" == report["upper"]["(1)|(1,1)"]
    # the computation is exploratory: the routes genuinely differ here
    assert report["difference"] != {}


def test_explore_matches_recorded_fixture():
    # every a <= 3 and two-part beta with a + |beta| <= 6, frozen as JSON
    cases = [
        (a, C([b1, b2]))
        for a in range(4)
        for b1 in range(1, 7)
        for b2 in range(1, 7)
        if a + b1 + b2 <= 6
    ]
    assert len(cases) == 34
    reports = [explore_mixed_bidegree(a, beta) for a, beta in cases]
    recorded = (DATA / "explore_mixed_6.json").read_text(encoding="utf-8")
    assert json.dumps(reports, indent=2) + "\n" == recorded


def test_explore_json_round_trip():
    report = explore_mixed_bidegree(1, C([2, 1]))
    assert json.loads(json.dumps(report)) == report


def test_reports_have_schema_keys():
    report = check_hopf_compat(2)
    payload = report.to_json_dict()
    assert list(payload) == ["suite", "bounds", "checked", "failures", "millis"]
