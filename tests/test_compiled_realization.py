"""The compiled realization and the coded engines against the references.

``PshRealization.realize_word`` compiles a word into one coefficient map
and validates only the element it is given.  The reference evaluator,
:func:`reference.reference_apply`, walks the same word one generator at
a time through the public slot operations and re-validates every
intermediate element, so a compilation mistake (wrong slot, wrong
degree, wrong order of steps) shows up as a difference.  The tower
sweeps build no words: their grouped evaluator,
``_CodedTables.summed_towers``, is checked against the realized tower
words of :func:`reference.tower_word`, and the route's coded coproduct
half against the realized words of :func:`reference.route_word`.  The
sweeps' reports are checked against the reports the references rebuild,
and the faults of ``tests/reference.py`` are shown to reach the sweeps
they should.
"""

import hashlib
import types
from itertools import permutations, product

import pytest

import hopflike
from hopflike import category, hopfverify, symfunc
from hopflike.errors import RealizationError
from hopflike.category import (
    Merge,
    MorphismWord,
    Shuffle,
    Split,
    apply_generator,
    enumerate_relation_instances,
)
from hopflike.compositions import (
    Composition,
    common_coarsenings,
    enumerate_compositions,
)
from hopflike.contingency import enumerate_matrices
from hopflike.hopfverify import (
    _route_comparison,
    check_bidegree12_cases,
    check_bidegree12_defect,
    check_hopf_compat,
    check_mixed_relations,
    check_relation_family,
    check_square_condition,
    check_worked_examples,
)
from hopflike.symfunc import TensorElement, default_realization, partitions_of
from reference import (
    SWAP,
    DoubledH21Products,
    asymmetric_survival_fault,
    blend_fault,
    comult_fault,
    degree_fault,
    generators_on,
    h21_fault,
    h2_corrupted,
    label_fault,
    merge_order_fault,
    reference_apply,
    reference_bidegree12_report,
    reference_hopf_report,
    reference_relation_report,
    reference_row_expansions,
    route_word,
    row_fault,
    shuffled_product,
    sigma_fault,
    six_term_fault,
    slots_from_sigma,
    split_coeff_fault,
    strayed_splittings,
    survival_fault,
    swap_fault,
    tower_word,
)


def assert_matches_reference(words):
    real = default_realization()
    evaluated = 0
    for word in words:
        compiled = real.realize_word(word)
        for el in real.tensor_basis(word.target):
            assert compiled(el) == reference_apply(word, el), (word, el)
            evaluated += 1
    return evaluated


@pytest.mark.parametrize(
    "family, max_sum, max_len", [("dd", 6, 4), ("ss", 6, 4), ("tautau", 4, 3)]
)
def test_relation_words_match_reference(family, max_sum, max_len):
    words = [
        word
        for instance in enumerate_relation_instances(family, max_sum, max_len)
        for word in (instance.left, instance.right)
    ]
    assert words
    assert assert_matches_reference(words) > len(words)


def test_square_words_match_reference():
    words = []
    for n in range(1, 5):
        comps = enumerate_compositions(n)
        gamma = Composition([n])
        for alpha in comps:
            for beta in comps:
                words.append(route_word(alpha, beta, gamma))
                words.extend(
                    tower_word(alpha, beta, K)
                    for K in enumerate_matrices(alpha, beta)
                )
    assert assert_matches_reference(words) > len(words)


# --- injected faults reach the sweeps ----------------------------------------

SWEEPS = {
    "dd-6-4": lambda: check_relation_family("dd", 6, 4),
    "ss-6-4": lambda: check_relation_family("ss", 6, 4),
    "tautau-4-2": lambda: check_relation_family("tautau", 4, 2),
    "worked-4": lambda: check_worked_examples(4),
    "mixed-4-2": lambda: check_mixed_relations(4, 2),
    "square-22": lambda: check_square_condition((2, 2), (2, 2)),
    "square-13-4": lambda: check_square_condition((1, 3), (4,)),
    "hopf-3": lambda: check_hopf_compat(3),
    "bidegree12-4": lambda: check_bidegree12_defect(4),
    "cases-4": lambda: check_bidegree12_cases(4),
}

# sweep, fault, instance of the first failure.  No word or tower reaches
# the Hopf and bidegree sweeps, so the shuffle fault cannot either.  The
# dd sweep reaches the coproduct and the ss sweep the product.  The swap
# fault is a consistent relabelling, so no tautau relation can see it:
# relations only check that chains agree with each other.  The anchor
# test below, test_shuffle_tables_are_anchored_to_sigma, checks each
# shuffle against sigma_K instead and catches it.  Wrong position images
# group chains that realize differently, so the sigma fault shows in the
# tautau sweep.  The row fault changes the table of the shuffle along
# [[2,2]], whose images are the identity's, so it first shows where that
# shuffle is K3: a chain-vs-step instance, whose description names the
# matrix, not its id.  A tridegree with a zero slot keeps every degree triple
# under any degree rule that spares zero slots, so the survival fault
# first shows at (1,1,1).  Six-cases reads the defect's survivors, so
# both survival faults show there too, at the first input of the
# tridegree they reach.  The towers multiply columns by adding label
# codes, so the label fault reaches the tower sweeps through the route
# alone, first where the route merges h[1] and h[3]: (1,3) -> (4).  The
# (2,2) square is blind to it, since the route's two labels of degree 2
# never merge to (3,1).
FAULT_CASES = [
    ("dd-6-4", comult_fault, "dd:adjacent-left (1,1,2) i=2"),
    ("ss-6-4", label_fault, "ss:same-part (5) i=1 a=2 b=1"),
    ("tautau-4-2", sigma_fault, "tautau:equal-chains (2,2)->(2,2)"),
    ("tautau-4-2", row_fault, "tautau:chain-vs-step (2,2)->(2,2) K3=[[2,2]]"),
    ("worked-4", swap_fault, "2x2 alpha=(2,2) beta=(2,2) gamma=(4)"),
    ("worked-4", comult_fault, "2x2 alpha=(1,2) beta=(1,2) gamma=(3)"),
    ("worked-4", label_fault, "2x2 alpha=(1,3) beta=(1,3) gamma=(4)"),
    ("mixed-4-2", swap_fault, "mixed alpha=(2,2) beta=(2,2) gamma=(4) #K=3"),
    ("mixed-4-2", comult_fault, "mixed alpha=(1,2) beta=(1,2) gamma=(3) #K=2"),
    ("mixed-4-2", label_fault, "mixed alpha=(1,3) beta=(4) gamma=(4) #K=1"),
    ("square-22", swap_fault,
     "alpha=(2,2) beta=(2,2) gamma=(4) #K=3 reading=summed"),
    ("square-22", comult_fault,
     "alpha=(2,2) beta=(2,2) gamma=(4) #K=3 reading=summed"),
    ("square-13-4", label_fault,
     "alpha=(1,3) beta=(4) gamma=(4) #K=1 reading=summed"),
    ("hopf-3", comult_fault, "degrees a=1 b=2 component j=1"),
    ("bidegree12-4", comult_fault, "tridegree (0,1,2) zero branch"),
    ("bidegree12-4", survival_fault, "tridegree (1,1,1) bracket (1,2)"),
    ("bidegree12-4", asymmetric_survival_fault, "tridegree (1,2,1) bracket (1,2)"),
    ("cases-4", survival_fault, "tridegree (1,1,1) input h[1] (x) h[1] (x) h[1]"),
    ("cases-4", asymmetric_survival_fault,
     "tridegree (1,2,1) input h[1] (x) h[2] (x) h[1]"),
]


@pytest.mark.parametrize(
    "sweep, inject, instance",
    [
        pytest.param(name, inject, instance, id=f"{name}-{inject.__name__}")
        for name, inject, instance in FAULT_CASES
    ],
)
def test_injected_fault_is_reported(monkeypatch, sweep, inject, instance):
    assert SWEEPS[sweep]().passed
    inject(monkeypatch)
    failures = SWEEPS[sweep]().failures
    assert failures and failures[0].instance == instance


@pytest.mark.parametrize("sweep", ["worked-4", "mixed-4-2", "square-22"])
def test_tower_sweep_memo_ends_with_the_sweep(monkeypatch, sweep):
    # the row expansions are shared across one sweep only: a faulty
    # coproduct's expansions must not reach a later clean sweep
    with monkeypatch.context() as m:
        comult_fault(m)
        assert not SWEEPS[sweep]().passed
    assert SWEEPS[sweep]().passed


def test_mixed_sweep_builds_one_split_route_per_gamma_alpha(monkeypatch):
    # the split word and its value are kept per (gamma, alpha) for the
    # sweep, however many beta share them
    real, calls = hopfverify.split_chain, []

    def counted(gamma, alpha):
        calls.append((gamma.parts, alpha.parts))
        return real(gamma, alpha)

    monkeypatch.setattr(hopfverify, "split_chain", counted)
    report = check_mixed_relations(5, 3)
    assert report.passed
    comps = [c for n in range(1, 6) for c in enumerate_compositions(n, 3)]
    routes = {
        (gamma.parts, alpha.parts)
        for alpha in comps
        for beta in comps
        if beta.sum == alpha.sum
        for gamma in common_coarsenings(alpha, beta)
    }
    assert sorted(calls) == sorted(routes) and len(calls) < report.checked


def test_surviving_triples_share_one_tuple_per_triple():
    # the box filter, with each equal triple held once across all shapes
    held = {}
    for shape in product(range(6), repeat=3):
        got = hopfverify._surviving_triples(shape)
        a, b, c = shape
        assert got == tuple(
            u for u in product(range(a + 1), range(b + 1), range(c + 1))
            if 0 in u and 0 in (a - u[0], b - u[1], c - u[2])
        ), shape
        for u in got:
            assert held.setdefault(u, u) is u, (shape, u)


def test_survival_fault_reaches_a_positive_bracket(monkeypatch):
    # every tridegree with a zero keeps all its triples, so only a positive
    # one can show a wrong degree rule
    assert SWEEPS["bidegree12-4"]().passed
    survival_fault(monkeypatch)
    brackets = [
        f.instance.split()[1]
        for f in SWEEPS["bidegree12-4"]().failures
        if f.instance.endswith("bracket (1,2)")
    ]
    assert brackets and all(
        min(map(int, t.strip("()").split(","))) > 0 for t in brackets
    )


# --- the coalgebra sweeps value mirror-image inputs together -------------------


@pytest.mark.parametrize(
    "inject, hopf_failures, bidegree_failures",
    [
        pytest.param(None, 0, 0, id="true"),
        pytest.param(comult_fault, 87, 63, id="comult"),
        pytest.param(survival_fault, 0, 174, id="survival"),
        pytest.param(six_term_fault, 0, 64, id="six-term"),
        pytest.param(h21_fault, 38, 59, id="h21"),
        # (h[2], h[1]) and (h[1], h[2]) share a product but not a whole
        pytest.param(merge_order_fault, 4, 2, id="merge-order"),
        # (1,2,1) has survivors that (1,1,2) and (2,1,1) lack, so its
        # labels cannot share a product with their rearrangements
        pytest.param(asymmetric_survival_fault, 0, 100, id="asymmetric-survival"),
    ],
)
def test_paired_coalgebra_sweeps_match_unpaired_reports(
    monkeypatch, inject, hopf_failures, bidegree_failures
):
    if inject:
        inject(monkeypatch)
    for sweep, reference, failures in [
        (check_hopf_compat, reference_hopf_report, hopf_failures),
        (check_bidegree12_defect, reference_bidegree12_report, bidegree_failures),
    ]:
        got, want = sweep(6), reference(6)
        assert got.checked == want.checked
        assert got.failures == want.failures and len(got.failures) == failures


# check_bidegree12_defect(6) under each fault, whole: FAULT_CASES reads only
# the first instance, these also the formatted (1,2) and (2,1) values
@pytest.mark.parametrize(
    "inject, failures, digest",
    [
        pytest.param(
            comult_fault, 63,
            "07035bee0c5c9b0888de483a8a32edb21d8487ef8f565dd000239c635e8fa9b8",
            id="comult",
        ),
        pytest.param(
            survival_fault, 174,
            "0799ab8413db5825a175f5ad260142143c0718a0a532f8d765dfa18d734abdd4",
            id="survival",
        ),
        pytest.param(
            asymmetric_survival_fault, 100,
            "1137f2f22a1d105ee627f8107067270053716253a617b68aa1aad0581471d40f",
            id="asymmetric-survival",
        ),
    ],
)
def test_bidegree_fault_reports_are_pinned(monkeypatch, inject, failures, digest):
    inject(monkeypatch)
    report = check_bidegree12_defect(6)
    assert len(report.failures) == failures
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


# check_worked_examples(6) and check_mixed_relations(5, 3) under the tower
# faults, whole.  Summing a group block by block gives the comult and label
# faults' reports byte for byte as summing it matrix by matrix did.  The swap
# fault keys on the one matrix SWAP, which is also the (2,2)/(2,2) block of
# the mixed groups through (1,4) and (4,1): they fail beside (2,2) through
# (4), where matrix by matrix only (2,2) did.
@pytest.mark.parametrize(
    "inject, worked, mixed, digests",
    [
        pytest.param(swap_fault, 1, 3, (
            "31220aa4a9e02e604fdd6d407478fe83de4ebabb033e820f86e119ac986c228f",
            "325412fbc0f5dfc32c930488932f5fd756793f1ddf58cad68cee2c6926bca001",
        ), id="swap"),
        pytest.param(comult_fault, 100, 125, (
            "c556ef1935dced111ddf11e0cf272cbf141421b7b392898820978bafb9b028d3",
            "06f3f7e46851af2eecfb3de248e8587c605e6ddab30c6774739e0ecd95243bc9",
        ), id="comult"),
        pytest.param(label_fault, 18, 52, (
            "5ee711299dc2208a1d3dcdb63bb4342c278fc06cb1e0492c64b82bd7ad6cf603",
            "57a5482683dcbe15ad09b75ab10a7ba5d55dd86cd700372ab9aa4d6448deb1dd",
        ), id="label"),
    ],
)
def test_tower_fault_reports_are_pinned(monkeypatch, inject, worked, mixed, digests):
    inject(monkeypatch)
    reports = check_worked_examples(6), check_mixed_relations(5, 3)
    assert [len(r.failures) for r in reports] == [worked, mixed]
    assert tuple(
        hashlib.sha256(r.to_json().encode()).hexdigest() for r in reports
    ) == digests


def test_coalgebra_sweeps_pass_after_a_comult_fault(monkeypatch):
    # tables are built from their prefixes' memoized tables, which the
    # realization's hook does not reach: a fault on h[2]'s table must not
    # reach h[2,1]'s, nor outlive the fault
    h21 = (
        (((), (2, 1), 1),),
        (((1,), (1, 1), 1), ((1,), (2,), 1)),
        (((1, 1), (1,), 1), ((2,), (1,), 1)),
        (((2, 1), (), 1),),
    )
    build = symfunc._comult_table.__wrapped__
    with monkeypatch.context() as m:
        comult_fault(m)
        assert not check_hopf_compat(4).passed
        assert not check_bidegree12_defect(4).passed
        assert build((2, 1)) == h21
        assert default_realization()._splittings((2, 1)) == h21
    assert symfunc._comult_table((2, 1)) == h21
    assert check_hopf_compat(4).passed and check_bidegree12_defect(4).passed


def test_six_term_fault_shows_in_the_mirrored_bracket_alone(monkeypatch):
    # only inputs with a > c get a wrong expansion: it fails their own
    # (1,2) bracket and the (2,1) bracket of their mirrors, whose (1,2)
    # brackets pass
    six_term_fault(monkeypatch)
    failures = check_bidegree12_defect(6).failures
    assert failures[0].instance == "tridegree (1,1,2) bracket (2,1)"
    for f in failures:
        a, _, c = map(int, f.instance.split()[1].strip("()").split(","))
        assert f.instance.endswith("bracket (1,2)" if a > c else "bracket (2,1)")


def test_bidegree_sweep_values_each_label_once(monkeypatch):
    # one product per multiset of slot labels, one expansion per positive
    # label, and every label checked
    calls = dict.fromkeys(["_coded_product", "_coded_six_term_12"], 0)
    for name in calls:
        real = getattr(hopfverify, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(hopfverify, name, counted)
    report = check_bidegree12_defect(6)
    labels = [lam for d in range(7) for lam in partitions_of(d)]
    multisets = {
        tuple(sorted(x)) for x in product(labels, repeat=3) if sum(map(sum, x)) <= 6
    }
    positive = sum(
        len(partitions_of(a)) * len(partitions_of(b)) * len(partitions_of(c))
        for a, b, c in product(range(1, 7), repeat=3)
        if a + b + c <= 6
    )
    assert report.passed and report.checked == 415
    assert len(multisets) == 97 and positive == 87
    assert calls == {"_coded_product": len(multisets), "_coded_six_term_12": positive}
    assert not hasattr(hopfverify, "_coded_six_term_21")


# --- the relation sweeps' step tables -----------------------------------------


@pytest.mark.parametrize(
    "family, inject, max_sum, max_len, failures",
    [
        pytest.param("tautau", None, 4, 3, 0, id="true"),
        pytest.param("tautau", swap_fault, 4, 3, 0, id="swap"),
        pytest.param("tautau", sigma_fault, 4, 2, 6, id="sigma"),
        pytest.param("tautau", blend_fault, 4, 2, 1, id="blend"),
        pytest.param("dd", None, 6, 4, 0, id="dd-true"),
        pytest.param("dd", comult_fault, 6, 4, 54, id="dd-comult"),
        pytest.param("dd", label_fault, 6, 4, 0, id="dd-label"),
        pytest.param("ss", None, 6, 4, 0, id="ss-true"),
        pytest.param("ss", comult_fault, 6, 4, 0, id="ss-comult"),
        pytest.param("ss", label_fault, 6, 4, 16, id="ss-label"),
        pytest.param("ss", split_coeff_fault, 6, 4, 1, id="ss-mixed"),
    ],
)
def test_tautau_tables_agree_with_the_word_path(
    monkeypatch, family, inject, max_sum, max_len, failures
):
    # a merge realizes through the coproduct and a split through the
    # product, so dd cannot see the label fault nor ss the coproduct fault
    if inject:
        inject(monkeypatch)
    want = reference_relation_report(family, max_sum, max_len)
    got = check_relation_family(family, max_sum, max_len)
    assert got.to_json() == want.to_json()
    assert len(got.failures) == failures and got.checked > 100


@pytest.mark.parametrize(
    "family, inject, max_sum, max_len",
    [
        ("dd", comult_fault, 6, 4),
        ("ss", label_fault, 6, 4),
        ("tautau", sigma_fault, 4, 2),
    ],
    ids=["dd", "ss", "tautau"],
)
def test_tautau_builds_words_only_for_failures(
    monkeypatch, family, inject, max_sum, max_len
):
    built = []
    post_init = category.RelationInstance.__post_init__

    def counted(self):
        built.append(self.description)
        post_init(self)

    monkeypatch.setattr(category.RelationInstance, "__post_init__", counted)
    assert check_relation_family(family, max_sum, max_len).passed and built == []
    inject(monkeypatch)
    report = check_relation_family(family, max_sum, max_len)
    assert built == [f.instance for f in report.failures] and built


@pytest.mark.parametrize(
    "family, max_sum, max_len, wrong_on",
    [
        ("dd", 3, 3, lambda chain: chain[0][0].i == 1),
        ("ss", 4, 2, lambda chain: chain[0][0].i == 1),
        ("tautau", 2, 2, lambda chain: len(chain) == 1),
    ],
    ids=["dd", "ss", "tautau"],
)
def test_tautau_raises_when_tables_and_words_disagree(
    monkeypatch, family, max_sum, max_len, wrong_on
):
    # empty values on some chains: the first instance with one such side
    # differs on the tables while its words agree
    real = hopfverify._chain_value

    def wrong(tables, chain):
        values = real(tables, chain)
        return [{}] * len(values) if wrong_on(chain) else values

    monkeypatch.setattr(hopfverify, "_chain_value", wrong)
    with pytest.raises(RuntimeError, match=f"disagree on {family}:"):
        check_relation_family(family, max_sum, max_len)


def test_relation_witness_reads_the_tables_realization(monkeypatch):
    # the step tables and the failure's witness come from one realization:
    # a sweep on another realization's tables reports its words' values
    # instead of finding the default realization's words equal
    doubled = DoubledH21Products()
    monkeypatch.setattr(hopfverify, "default_realization", lambda: doubled)
    report = check_relation_family("ss", 4, 3)
    assert len(report.failures) == 3
    assert report.to_json() == reference_relation_report("ss", 4, 3, doubled).to_json()


def shuffles_within(max_sum, max_len):
    """The tautau walk's shuffles, a shuffle's id being its index."""
    return category._shuffles_by_source(max_sum, max_len)[0]


def decoded_table(tables, key):
    """``tables[key]`` as {codomain label: {domain label: coeff}}.

    Rows and positions are read in ``tensor_basis`` order; a position p
    stands for the image {p: 1}.
    """
    g, domain = category._step(key, tables.shuffles)
    labels = tables.realization._basis_labels
    rows, images = labels(apply_generator(g, domain).parts), labels(domain.parts)
    return {
        label: {images[row]: 1} if type(row) is int
        else {images[p]: c for p, c in row.items()}
        for label, row in zip(rows, tables[key], strict=True)
    }


def test_shuffle_tables_match_one_step_words():
    # every step key: the shuffles within 4/4, keyed by id, and each key
    # of the dd and ss walks at 6/4, merges and splits keyed by
    # (generator, domain)
    real = default_realization()
    shuffles = shuffles_within(4, 4)
    tables = symfunc._CodedTables(real, 6, shuffles).steps
    keys = set(range(len(shuffles)))
    for family in ("dd", "ss"):
        for _, left, right, _ in category._relation_chains(family, 6, 4)[1]:
            keys.update(left + right)
    kinds = set()
    for key in keys:
        g, domain = category._step(key, shuffles)
        kinds.add(type(g))
        realized = real.realize_word(MorphismWord(domain, [g]))
        basis = real.tensor_basis(apply_generator(g, domain))
        table = decoded_table(tables, key)
        assert list(table) == [next(iter(el.coeffs)) for el in basis]
        for el in basis:
            assert table[next(iter(el.coeffs))] == realized(el).coeffs, key
        # splits and shuffles send each label to one label: positions
        positions = all(type(row) is int for row in tables[key])
        assert positions == (not isinstance(g, Merge)), key
    assert kinds == {Merge, Split, Shuffle} and len(keys) > 300


def test_position_and_linear_values_compare_equal():
    # each ss chain on its position tables and with one or both tables
    # turned linear: the values differ raw and agree once expanded
    tables = symfunc._CodedTables(default_realization(), 6).steps
    chains = 0
    for _, left, right, _ in category._relation_chains("ss", 6, 4)[1]:
        for chain in (left, right):
            positions = hopfverify._chain_value(tables, chain)
            assert type(positions) is tuple
            assert all(type(p) is int for p in positions)
            for turned in ({chain[0]}, {chain[-1]}, set(chain)):
                mixed = {
                    key: tuple({p: 1} for p in tables[key]) if key in turned
                    else tables[key]
                    for key in chain
                }
                value = hopfverify._chain_value(mixed, chain)
                assert type(value) is tuple and value != positions
                assert hopfverify._expanded(value) == hopfverify._expanded(positions)
            chains += 1
    assert chains > 100


def test_mixed_chains_match_realized_words():
    # chains no walk makes: a merge and a split in either order, so that a
    # linear value meets a position table (whose products can send two
    # images to one label, as h[2] (x) h[1,1] and h[1,1] (x) h[2] do) and
    # a position value meets a linear table
    real = default_realization()
    tables = symfunc._CodedTables(real, 5).steps
    kinds = set()
    for source in (c for n in range(1, 6) for c in enumerate_compositions(n, 3)):
        images = real._basis_labels(source.parts)
        for g in generators_on(source):
            mid = apply_generator(g, source)
            for h in generators_on(mid):
                if type(g) is type(h):
                    continue
                kinds.add((type(g), type(h)))
                chain = ((g, source), (h, mid))
                value = hopfverify._chain_value(tables, chain)
                realized = real.realize_word(MorphismWord(source, [g, h]))
                for el, row in zip(
                    real.tensor_basis(apply_generator(h, mid)), value, strict=True
                ):
                    row = {row: 1} if type(row) is int else row
                    got = {images[p]: c for p, c in row.items()}
                    assert got == realized(el).coeffs, (chain, el)
    assert kinds == {(Merge, Split), (Split, Merge)}


def shuffles_off_sigma(max_sum, max_len):
    """Shuffles whose table moves a slot label away from where sigma_K puts it.

    A table is evaluated on the basis labels whose slots of degree 2 or
    more carry pairwise distinct partitions, so that each label's image
    shows which slot it came from.  Slots of degree 1 all carry h[1]: a
    swap between them cannot show, and they are not compared.
    """
    shuffles = shuffles_within(max_sum, max_len)
    tables = symfunc._CodedTables(default_realization(), max_sum, shuffles).steps
    flagged = []
    for k, K in enumerate(shuffles):
        expected = slots_from_sigma(K)
        for label, value in decoded_table(tables, k).items():
            wide = [lam for lam in label if sum(lam) > 1]
            if len(set(wide)) < len(wide):
                continue
            want = tuple(label[t] for t in expected)
            if value != {want: 1}:
                flagged.append(K)
                break
    return flagged


def test_shuffle_tables_are_anchored_to_sigma(monkeypatch):
    assert shuffles_off_sigma(4, 4) == []
    swap_fault(monkeypatch)
    assert shuffles_off_sigma(4, 4) == [SWAP]
    assert check_relation_family("tautau", 4, 2).passed  # no relation sees it


@pytest.mark.parametrize("inject", [None, comult_fault], ids=["true", "comult"])
def test_summed_towers_match_tower_words(monkeypatch, inject):
    # The faulty table is not coassociative, so only the merge chain's
    # peel order (last piece first) reproduces the words' values.  One
    # code memo serves every group and margin pair, as in a sweep.
    if inject:
        inject(monkeypatch)
    real = default_realization()
    tables = symfunc._CodedTables(real, 5)
    for n in range(6):
        comps = enumerate_compositions(n)
        for alpha in comps:
            for beta in comps:
                matrices = enumerate_matrices(alpha, beta)
                words = [
                    real.realize_word(tower_word(alpha, beta, K))
                    for K in matrices
                ]
                groups = [([K], [w]) for K, w in zip(matrices, words)]
                groups.append((matrices, words))
                basis = real.tensor_basis(alpha)
                for group, maps in groups:
                    totals = tables.summed_towers(alpha.parts, group)
                    assert len(totals) == len(basis)
                    for el, total in zip(basis, totals):
                        want = TensorElement.zero(beta.parts)
                        for tower in maps:
                            want = want + tower(el)
                        got = tables.decode(beta.parts, total)
                        assert got == want, (alpha, beta, group, el)
    assert tables._rows


def test_summed_towers_match_the_hopf_sweeps_shuffled_product():
    # The 2x2 towers of (a, b) summed over margins (j, a+b-j) are the Hopf
    # sweep's right side, valued from the coded tables alone: an anchor for
    # summed_towers that shares neither _add_towers nor a word.
    tables = symfunc._CodedTables(default_realization(), 6)
    checks = 0
    for a, b in product(range(1, 6), repeat=2):
        if a + b > 6:
            continue
        for j in range(1, a + b):
            matrices = enumerate_matrices((a, b), (j, a + b - j))
            totals = tables.summed_towers((a, b), matrices)
            labels = product(partitions_of(a), partitions_of(b))
            for (lam, mu), total in zip(labels, totals, strict=True):
                want = hopfverify._nonzero(shuffled_product(tables, lam, mu, j))
                assert hopfverify._nonzero(total) == want, (a, b, j, lam, mu)
                checks += 1
    assert checks == 342


class H2Corrupted(symfunc.PshRealization):
    _splittings = staticmethod(h2_corrupted)


@pytest.mark.parametrize(
    "real, c", [(default_realization(), 1), (H2Corrupted(), 2)], ids=["true", "h2"]
)
def test_row_expansions_grown_from_prefixes_match_whole_peels(real, c):
    # every row of at most 3 pieces and sum at most 6, under every column
    # assignment: the expansions grown from the prefix's memo equal the
    # whole-label peels, entries and order, on either coproduct table
    tables = symfunc._CodedTables(real, 6)
    rows = [comp.parts for n in range(1, 7) for comp in enumerate_compositions(n, 3)]
    assert len(rows) == 41
    for row in rows:
        for columns in permutations(range(3), len(row)):
            want = reference_row_expansions(tables, row, columns)
            assert tables.row_expansions(row, columns) == want, (row, columns)
    # the fault reaches both builds alike: h[2] to h[1] (x) h[1] reads c
    h1h1 = tables.pair_code((1,), (1,))
    assert tables.row_expansions((1, 1), (0, 1))[0] == ((h1h1, c),)


def test_a_stray_splitting_label_is_a_realization_error():
    # a left label outside its degree has no prefix expansion to grow
    class Strayed(symfunc.PshRealization):
        _splittings = staticmethod(strayed_splittings)

    tables = symfunc._CodedTables(Strayed(), 4)
    assert tables.row_expansions((2,), (0,))  # one piece: no splitting is read
    with pytest.raises(
        RealizationError, match=r"^splitting of h\[2\]: \(1, 1\) is not a partition of 1$"
    ):
        tables.row_expansions((1, 1), (0, 1))


def test_one_realization_feeds_every_table():
    # a realization with another coproduct table reaches all three of one
    # _CodedTables' memos: the coded tables, the towers' row expansions and
    # the merge steps; the default realization's stay true in this process
    merge = (Merge(2, 1), Composition((1, 1)))  # h[2] and h[1,1] to h[1] (x) h[1]
    faulty = symfunc._CodedTables(H2Corrupted(), 4)
    true = symfunc._CodedTables(default_realization(), 4)
    for tables, c in [(faulty, 2), (true, 1)]:
        pair = tables.pair_code
        h1h1 = pair((1,), (1,))
        assert tables[(2,)] == ({pair((), (2,)): 1}, {h1h1: c}, {pair((2,), ()): 1})
        assert tables.row_expansions((1, 1), (0, 1)) == (((h1h1, c),), ((h1h1, 2),))
        assert tables.steps[merge] == ({0: c}, {0: 2})


def test_coded_route_matches_route_word():
    # An empty group has zero towers, so every element of A(alpha) fails
    # and is yielded with its route: the coded coproduct half, read from
    # the towers' row expansions, against the realized route word.
    real = default_realization()
    tables = symfunc._CodedTables(real, 5)
    for n in range(6):
        comps = enumerate_compositions(n)
        for alpha in comps:
            for beta in comps:
                for gamma in common_coarsenings(alpha, beta):
                    word = real.realize_word(route_word(alpha, beta, gamma))
                    comparison = _route_comparison(alpha, beta, gamma, tables)
                    yielded = list(comparison(tables.summed_towers(alpha.parts, [])))
                    assert [el for el, _, _ in yielded] == real.tensor_basis(alpha)
                    for el, towers, route in yielded:
                        assert towers == TensorElement.zero(beta.parts)
                        assert route == word(el), (alpha, beta, gamma, el)


def test_passing_tower_sweeps_realize_no_word(monkeypatch):
    # the towers add codes, the route's coproduct half is coded from the
    # same row expansions and its split half is read from step tables:
    # a passing sweep realizes and evaluates no word at all
    calls = []
    realize_word = symfunc.PshRealization.realize_word
    call = symfunc.RealizedMap.__call__

    def recorded(self, word):
        calls.append(word)
        return realize_word(self, word)

    def evaluated(self, el):
        calls.append(el)
        return call(self, el)

    monkeypatch.setattr(symfunc.PshRealization, "realize_word", recorded)
    monkeypatch.setattr(symfunc.RealizedMap, "__call__", evaluated)
    assert check_worked_examples(5).passed
    assert check_mixed_relations(4, 3).passed
    assert calls == []


def test_route_cross_check_raises_on_disagreement(monkeypatch):
    # step tables that send every element of A(alpha) to the wrong label
    # of A(gamma) disagree with the realized split word on the first
    # failure, and the sweep raises rather than report a false route
    chain_value = hopfverify._chain_value

    def reversed_positions(tables, chain):
        value = chain_value(tables, chain)
        return value[::-1] if len(chain) >= 1 else value

    monkeypatch.setattr(hopfverify, "_chain_value", reversed_positions)
    with pytest.raises(RuntimeError, match="split word disagree"):
        check_worked_examples(4)


def test_linear_split_value_routes_as_the_word(monkeypatch):
    # a product with a coefficient-2 image makes one split table linear:
    # the route sums that value's coded labels, as the realized word does
    split_coeff_fault(monkeypatch)
    real = default_realization()
    tables = symfunc._CodedTables(real, 4)
    comps = enumerate_compositions(4)
    for alpha, beta in product(comps, repeat=2):
        for gamma in common_coarsenings(alpha, beta):
            word = real.realize_word(route_word(alpha, beta, gamma))
            comparison = _route_comparison(alpha, beta, gamma, tables)
            for el, _, route in comparison(tables.summed_towers(alpha.parts, [])):
                assert route == word(el), (alpha, beta, gamma, el)
    assert [type(rows[0]) for rows in tables.steps.values()].count(dict) == 1
    assert not check_mixed_relations(4, 3).passed


@pytest.mark.parametrize(
    "sweep",
    [lambda: check_worked_examples(4), lambda: check_relation_family("ss", 6, 4)],
    ids=["worked-4", "ss-6-4"],
)
def test_degree_fault_is_a_realization_error(monkeypatch, sweep):
    # the product leaves A(domain)'s basis: the step table that reads it
    # names the step and the stray label instead of ending in a KeyError
    assert sweep().passed
    degree_fault(monkeypatch)
    with pytest.raises(RealizationError, match=r"\(1, 3, 1\),\) is not a basis label"):
        sweep()


def test_tower_codes_round_trip_at_the_sweep_width():
    # The widest column is h[1^n]: every slot of h[1] (x) ... (x) h[1]
    # merges into one, so part 1's field holds n at the width of a sweep
    # bounded by n.  Every label of a space of that degree codes apart
    # and decodes back.
    n = 8
    real = default_realization()
    tables = symfunc._CodedTables(real, n)
    alpha, beta = Composition((1,) * n), Composition((n,))
    (total,) = tables.summed_towers(alpha.parts, enumerate_matrices(alpha, beta))
    assert tables.decode(beta.parts, total) == TensorElement.basis([(1,) * n])
    code, shift = tables.code, tables.shift
    for shape in enumerate_compositions(n, 3):
        labels = [next(iter(el.coeffs)) for el in real.tensor_basis(shape)]
        codes = {
            sum(code(lam) << shift * j for j, lam in enumerate(label)): label
            for label in labels
        }
        assert len(codes) == len(labels), shape
        assert tables.decode(shape.parts, dict.fromkeys(codes, 1)).coeffs == (
            dict.fromkeys(labels, 1)
        ), shape


# --- validation stays at the public boundaries --------------------------------


def test_trusted_constructor_is_not_exported():
    public = {
        name
        for name, value in vars(hopflike).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(hopflike.__all__) == sorted(public)
    # the element class, with its trusted constructor, lives in its module
    assert "TensorElement" not in public and "_trusted" not in hopflike.__all__
    assert callable(symfunc.TensorElement._trusted)
