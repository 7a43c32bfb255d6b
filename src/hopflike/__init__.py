"""Composition-category kernel over exact symmetric functions."""

from .compositions import (
    Composition,
    common_coarsenings,
    enumerate_compositions,
    refines,
)
from .simplicial import MonotoneMap, degeneracy, face, verify_simplicial_identities
from .contingency import (
    ContingencyMatrix,
    count_matrices,
    enumerate_matrices,
    kappa,
    sigma_K,
)
from .category import (
    Merge,
    MorphismWord,
    RelationInstance,
    Shuffle,
    Split,
    apply_generator,
    enumerate_relation_instances,
    merge_chain,
    print_word,
    semantic_equal,
    split_chain,
)
from .parsing import parse_word
from .symfunc import (
    PshRealization,
    SymElement,
    TensorElement,
    default_realization,
    h_mult,
    h_to_m,
    hall_inner,
    m_to_h,
    partitions_of,
    schur,
)
from .hopfverify import (
    check_bidegree12,
    check_hopf_compat,
    check_mixed_relations,
    check_relation_family,
    check_six_cases,
    check_square_condition,
    check_worked_examples,
    explore_mixed_bidegree,
    hopf_defect_12,
    modified_mult_12,
    six_term_12,
    six_term_21,
)
from .reports import Failure, VerificationReport

# The public API.  Internal constructors that skip validation, such as
# ``TensorElement._trusted``, stay out of it.
__all__ = [
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

__version__ = "0.1.0"
