"""Guards on what other code reaches: the benchmark tracer, its recorded
report digests and ``__all__``."""

import json
import sys
from pathlib import Path

import pytest

import hopflike
from hopflike import symfunc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402  (standard library only)
import workloads  # noqa: E402


def test_every_traced_name_resolves():
    for _, module, attr, _ in tracer.LAYERS + tracer.MEMOS:
        owner, name = tracer._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr}"
    for _, module, attr, _ in tracer.MEMOS:
        owner, name = tracer._resolve(module, attr)
        assert hasattr(getattr(owner, name), "cache_info"), f"{module}.{attr}"
    assert "entries" in symfunc.transition_cache().stats()


def test_public_names_are_pinned():
    assert sorted(hopflike.__all__) == [
        "Composition", "ContingencyMatrix", "Failure", "Merge", "MonotoneMap",
        "MorphismWord", "PshRealization", "RelationInstance", "Shuffle",
        "Split", "SymElement", "TensorElement", "VerificationReport",
        "apply_generator", "check_bidegree12", "check_hopf_compat",
        "check_mixed_relations", "check_relation_family", "check_six_cases",
        "check_square_condition", "check_worked_examples", "common_coarsenings",
        "count_matrices", "default_realization", "degeneracy",
        "enumerate_compositions", "enumerate_matrices",
        "enumerate_relation_instances", "explore_mixed_bidegree", "face",
        "h_mult", "h_to_m", "hall_inner", "hopf_defect_12", "kappa", "m_to_h",
        "merge_chain", "modified_mult_12", "parse_word", "partitions_of",
        "print_word", "refines", "schur", "semantic_equal", "sigma_K",
        "six_term_12", "six_term_21", "split_chain",
        "verify_simplicial_identities",
    ]
    for name in hopflike.__all__:
        assert hasattr(hopflike, name), name


@pytest.mark.parametrize("name", [
    "relations-dd-8-4", "relations-ss-8-4", "relations-tautau-4-4",
    "relations-mixed-6-3", "square-11-summed", "square-11-per-k",
    "hopf-12", "bidegree12-11",
])
def test_reports_match_recorded_digests(name):
    # "the same reports" means byte-identical JSON: these are the recorded
    # bytes' SHA-256, for the sweeps fast enough to run on every test run
    digests = json.loads(workloads.DIGESTS.read_text(encoding="utf-8"))
    status, out = workloads.run_cli(workloads.CLI_SWEEPS[name])
    assert status == (1 if name == workloads.PER_K else 0)
    assert workloads.digest(out) == digests[name]
