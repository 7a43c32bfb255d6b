import hashlib
import tracemalloc
from collections import Counter

import pytest

from hopflike.compositions import Composition, enumerate_compositions, refines
from hopflike.contingency import ContingencyMatrix, enumerate_matrices, kappa
from hopflike.category import (
    Merge,
    MorphismWord,
    RelationInstance,
    Shuffle,
    Split,
    _relation_chains,
    _relation_instance,
    _shuffles_by_source,
    apply_generator,
    enumerate_relation_instances,
    merge_chain,
    print_word,
    semantic_equal,
    split_chain,
)
from hopflike.errors import ChainError, GeneratorDomainError, UsageError, WordSyntaxError
from hopflike.hopfverify import (
    _route_comparison,
    check_relation_family,
    check_square_condition,
)
from hopflike.parsing import parse_word
from hopflike.symfunc import _CodedTables, default_realization
from reference import _factoring_matrices, slots_from_sigma


C = Composition


def test_apply_generator_examples():
    assert apply_generator(Merge(3, 1), C([2, 3, 4])) == C([5, 4])
    assert apply_generator(Split(1, 1, 3), C([7])) == C([3, 4])
    K = ContingencyMatrix([[1, 1], [1, 1]])
    assert apply_generator(Shuffle(K), C([1, 1, 1, 1])) == C([1, 1, 1, 1])


def test_apply_generator_domain_errors():
    with pytest.raises(GeneratorDomainError):
        apply_generator(Merge(2, 1), C([3]))
    with pytest.raises(GeneratorDomainError):
        apply_generator(Merge(3, 3), C([1, 1, 1]))
    with pytest.raises(GeneratorDomainError):
        apply_generator(Split(1, 1, 3), C([3]))
    with pytest.raises(GeneratorDomainError):
        apply_generator(Shuffle(ContingencyMatrix([[2]])), C([1, 1]))


def test_generator_bookkeeping_table():
    # merge: sum +0 length -1; split: sum +0 length +1
    for n in range(1, 11):
        for comp in enumerate_compositions(n):
            t = comp.length
            for i in range(1, t):
                out = apply_generator(Merge(t, i), comp)
                assert (out.sum, out.length) == (comp.sum, t - 1)
            for i in range(1, t + 1):
                for a in range(1, comp.parts[i - 1]):
                    out = apply_generator(Split(t, i, a), comp)
                    assert (out.sum, out.length) == (comp.sum, t + 1)
    # shuffle: sum +0 length +0 (on canonical refinements)
    for K in enumerate_matrices(C([2, 2]), C([1, 3])):
        kap = kappa(K)
        out = apply_generator(Shuffle(K), kap.row)
        assert (out.sum, out.length) == (kap.row.sum, kap.row.length)


def test_word_chain_and_compose():
    lower = MorphismWord(C([1, 2]), [Merge(2, 1), Split(1, 1, 1)])
    assert lower.target == C([1, 2])
    w1 = MorphismWord(C([1, 2]), [Merge(2, 1)])
    w2 = MorphismWord(C([3]), [Split(1, 1, 1)])
    assert w1.then(w2).steps == lower.steps
    assert w1.then(MorphismWord(C([3]))) == w1
    with pytest.raises(ChainError):
        w1.then(w1)  # (3) does not chain onto (1,2)


def test_word_invalid_chain_reports_step():
    with pytest.raises(ChainError) as err:
        MorphismWord(C([3]), [Split(1, 1, 1), Split(1, 1, 1)])
    assert err.value.step_index == 2


def test_split_chain_matches_worked_display():
    # (a1,a2)=(3,2) refined by rows of K=[[2,1],[1,1]]
    word = split_chain(C([3, 2]), C([2, 1, 1, 1]))
    assert word.steps == (Split(2, 1, 2), Split(3, 3, 1))
    # six-part version: (a1,a2) -> (k11,k12,k13,k21,k22,k23)
    word = split_chain(C([4, 3]), C([1, 1, 2, 1, 1, 1]))
    assert word.steps == (
        Split(2, 1, 1), Split(3, 2, 1), Split(4, 4, 1), Split(5, 5, 1)
    )
    assert word.target == C([1, 1, 2, 1, 1, 1])


def test_merge_chain_matches_worked_display():
    word = merge_chain(C([1, 1, 1, 1]), C([2, 2]))
    assert word.steps == (Merge(4, 1), Merge(3, 2))
    word = merge_chain(C([1, 1, 1, 1, 1, 1]), C([2, 2, 2]))
    assert word.steps == (Merge(6, 1), Merge(5, 2), Merge(4, 3))


def test_chains_with_zero_cells_collapse():
    K = ContingencyMatrix([[1, 0], [0, 1]])
    kap = kappa(K)
    assert split_chain(C([1, 1]), kap.row).steps == ()
    assert merge_chain(kap.col, C([1, 1])).steps == ()


def test_gamma_examples():
    # a matrix is in the group of each coarsening its diagonal blocks refine
    full = ContingencyMatrix([[1, 1], [1, 1]])
    assert full in _factoring_matrices(C([2, 2]), C([2, 2]), C([4]))
    assert full not in _factoring_matrices(C([2, 2]), C([2, 2]), C([2, 2]))
    four_by_five = ContingencyMatrix([
        [1, 1, 1, 0, 0],
        [1, 1, 1, 0, 0],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1],
    ])
    alpha, beta = C([3, 3, 2, 2]), C([2, 2, 2, 2, 2])
    for gamma in (C([10]), C([6, 4])):
        assert four_by_five in _factoring_matrices(alpha, beta, gamma)
    for gamma in (C([6, 2, 2]), C([8, 2])):
        assert four_by_five not in _factoring_matrices(alpha, beta, gamma)
    assert _factoring_matrices(C([5]), C([5]), C([5])) == [ContingencyMatrix([[5]])]
    assert _factoring_matrices(C([1, 1]), C([1, 1]), C([1, 1])) == [
        ContingencyMatrix([[1, 0], [0, 1]])
    ]


def test_dd_instance_from_worked_example():
    instances = enumerate_relation_instances("dd", 6, 3)
    src = C([1, 2, 3])
    wanted = [
        inst for inst in instances
        if inst.left.source == src
        and inst.left.steps == (Merge(3, 2), Merge(2, 1))
        and inst.right.steps == (Merge(3, 1), Merge(2, 1))
    ]
    assert len(wanted) == 1
    assert wanted[0].left.target == C([6])


def test_ss_has_no_instances_on_two():
    assert enumerate_relation_instances("ss", 2, 4) == []


def test_unknown_family_rejected():
    with pytest.raises(UsageError):
        enumerate_relation_instances("zz", 4, 4)
    # the mixed family holds only for summed towers: no single-word instances
    with pytest.raises(UsageError):
        enumerate_relation_instances("mixed", 4, 2)


def test_relation_instances_are_parallel():
    for family in ("dd", "ss"):
        for inst in enumerate_relation_instances(family, 5, 3):
            assert inst.left.source == inst.right.source
            assert inst.left.target == inst.right.target


def test_dd_and_ss_pass_semantically():
    for family in ("dd", "ss"):
        for inst in enumerate_relation_instances(family, 6, 3):
            equal, witness = semantic_equal(inst.left, inst.right)
            assert equal, (inst.description, witness)


def test_mixed_instance_fails_pointwise_with_witness():
    # one matrix alone is the per-k reading of the square condition
    report = check_square_condition(C([2, 2]), C([2, 2]), "per-k")
    failures = [f for f in report.failures if "K=[[1,1],[1,1]]" in f.instance]
    assert len(failures) == 1
    assert failures[0].witness == "h[2] (x) h[2]"
    assert failures[0].left == "h[1,1] (x) h[1,1]"
    assert failures[0].right == "2*h[2] (x) h[2] + h[1,1] (x) h[1,1]"


def test_mixed_instance_with_split_support_passes():
    # a fully decomposed matrix routes through its own fine coarsening
    fine = C([1, 1])
    group = _factoring_matrices(fine, fine, fine)
    assert group == [ContingencyMatrix([[1, 0], [0, 1]])]
    tables = _CodedTables(default_realization(), 2)
    totals = tables.summed_towers(fine.parts, group)
    assert list(_route_comparison(fine, fine, fine, tables)(totals)) == []


def test_tautau_chains_realize_as_permutations():
    real = default_realization()
    for inst in enumerate_relation_instances("tautau", 4, 4):
        equal, witness = semantic_equal(inst.left, inst.right)
        assert equal, (inst.description, witness)
    # chains of two shuffles act by the composite block permutation
    checked = 0
    for K1 in enumerate_matrices(C([2, 1]), C([1, 2])):
        mid = kappa(K1).col
        for K2 in enumerate_matrices(mid, C([3])) + enumerate_matrices(mid, C([1, 1, 1])):
            if kappa(K2).row != mid:
                continue
            word = MorphismWord(kappa(K1).row, [Shuffle(K1), Shuffle(K2)])
            realized = real.realize_word(word)
            second = slots_from_sigma(K2)
            slot_map = tuple(second[s] for s in slots_from_sigma(K1))
            source, target = word.source.parts, word.target.parts
            assert all(source[q] == target[s] for q, s in enumerate(slot_map))
            for el in real.tensor_basis(word.target):
                got = realized(el)
                label = next(iter(el.coeffs))
                want_label = tuple(label[s] for s in slot_map)
                assert got.coeffs == {want_label: 1}
                checked += 1
    assert checked


def collected_tautau_instances(max_sum, max_len):
    """Reference: collect every chain pair per group, sort the groups, replay."""
    shuffles, by_source = _shuffles_by_source(max_sum, max_len)
    for source in sorted(by_source):
        singles = {}
        for k3, target, images in by_source[source]:
            singles.setdefault((target, images), shuffles[k3])
        chains = {}
        for k1, mid, images1 in by_source[source]:
            for k2, target, images2 in by_source.get(mid, ()):
                composite = tuple(images2[v - 1] for v in images1)
                chains.setdefault((target, composite), []).append(
                    (shuffles[k1], shuffles[k2])
                )
        for (target, composite), pairs in sorted(chains.items()):
            first = MorphismWord(
                source, [Shuffle(pairs[0][0]), Shuffle(pairs[0][1])]
            )
            K3 = singles.get((target, composite))
            if K3 is not None:
                yield RelationInstance(
                    first, MorphismWord(source, [Shuffle(K3)]),
                    f"tautau:chain-vs-step {source}->{target} K3={K3}",
                )
            for K1, K2 in pairs[1:]:
                yield RelationInstance(
                    first, MorphismWord(source, [Shuffle(K1), Shuffle(K2)]),
                    f"tautau:equal-chains {source}->{target}",
                )


def streamed_instances(family, max_sum, max_len):
    """The family's walk turned into instances one at a time."""
    shuffles, chains = _relation_chains(family, max_sum, max_len)
    return (_relation_instance(*chain, shuffles) for chain in chains)


@pytest.mark.parametrize("max_sum, max_len", [(4, 3), (4, 4)])
def test_streamed_tautau_yields_the_collected_instances(max_sum, max_len):
    streamed = Counter(streamed_instances("tautau", max_sum, max_len))
    assert streamed == Counter(collected_tautau_instances(max_sum, max_len))
    assert sum(streamed.values()) > 100


# SHA-256 of the repr of a walk's list of shuffles, then of each chain tuple
WALK_DIGESTS = {
    ("dd", 8, 4): "533f4458866ee2f21d37b134c668f8439710db8cc1fd924de3233f89245fae1b",
    ("ss", 8, 4): "75564923e4b083ba57057263d6a1cecde24eac2298178b0389a36b791f017966",
    ("tautau", 4, 3): "02b2cbea99fac204c57618296fc50ee2751da6ba106bcf07301074f483981f41",
}


@pytest.mark.parametrize("bounds", sorted(WALK_DIGESTS))
def test_walk_order_is_pinned(bounds):
    # A passing report does not show the order of its instances, and a
    # failing one shows only the first failure of each: pin the walk itself.
    shuffles, chains = _relation_chains(*bounds)
    digest = hashlib.sha256()
    for item in [shuffles, *chains]:
        digest.update(repr(item).encode())
    assert digest.hexdigest() == WALK_DIGESTS[bounds]


def test_streamed_tautau_holds_one_word_per_group():
    # 2.9 MB when every chain pair of a source is held at once
    tracemalloc.start()
    try:
        for _ in streamed_instances("tautau", 4, 4):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_tautau_sweep_holds_little_memory():
    # the per-shuffle tables and one value per chain group of a source
    tracemalloc.start()
    try:
        report = check_relation_family("tautau", 4, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == 40_820
    assert peak <= 1_000_000


def test_parse_print_round_trip():
    words = [
        "(3,4) ; d[2,1]",
        "(7) ; s[1,1,3] ; s[2,2,2]",
        "(1,1,1,1) ; tau[[[1,1],[1,1]]] ; d[4,1] ; d[3,2]",
        "()",
        "(5)",
    ]
    for text in words:
        word = parse_word(text)
        assert print_word(word) == text
        assert parse_word(print_word(word)) == word


def test_parse_word_examples():
    word = parse_word("(3,4) ; d[2,1]")
    assert word.source == C([3, 4]) and word.target == C([7])
    word = parse_word("(7) ; s[1,1,3] ; s[2,2,2]")
    assert word.target == C([3, 2, 2])
    assert parse_word("(3, 4)\t;\r\n d [2,1] ") == parse_word("(3,4) ; d[2,1]")


def _objects_words():
    for text in [
        "(3,4) ; d[2,1]",
        "(7) ; s[1,1,3] ; s[2,2,2]",
        "(1,1,1,1) ; tau[[[1,1],[1,1]]] ; d[4,1] ; d[3,2]",
        "()",
    ]:
        yield parse_word(text)
    for n in range(1, 6):
        comps = enumerate_compositions(n)
        for alpha in comps:
            for beta in comps:
                if refines(alpha, beta) is not None:
                    yield split_chain(alpha, beta)
                    yield merge_chain(beta, alpha)


def test_word_objects_are_the_walked_chain():
    checked = 0
    for word in _objects_words():
        objects = word.objects
        assert objects[0] == word.source and objects[-1] == word.target
        assert len(objects) == len(word.steps) + 1
        for g, dom, cod in zip(word.steps, objects, objects[1:]):
            assert apply_generator(g, dom) == cod
        checked += 1
    assert checked > 4


def test_parse_word_chain_error_names_step():
    with pytest.raises(ChainError) as err:
        parse_word("(3) ; d[2,1]")
    assert err.value.step_index == 1


def test_parse_word_syntax_errors_carry_positions():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("(2,")
    assert (err.value.line, err.value.column) == (1, 4)
    with pytest.raises(WordSyntaxError) as err:
        parse_word("(2) ;\n x[1,1]")
    assert err.value.line == 2
    with pytest.raises(WordSyntaxError) as err:
        parse_word("(2) ; d[2 1]")
    assert err.value.column == 11
