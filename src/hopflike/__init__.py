"""Composition-category kernel over exact symmetric functions."""

from .simplicial import verify_simplicial_identities
from .contingency import count_matrices
from .symfunc import (
    SymElement,
    h_mult,
    h_to_m,
    hall_inner,
    m_to_h,
    schur,
)
from .hopfverify import (
    check_bidegree12,
    check_hopf_compat,
    check_relation_family,
    check_square_condition,
    check_worked_examples,
    explore_mixed_bidegree,
)

# What callers read from the package root; everything else is imported
# from its module.
__all__ = [
    "SymElement", "check_bidegree12", "check_hopf_compat", "check_relation_family",
    "check_square_condition", "check_worked_examples", "count_matrices",
    "explore_mixed_bidegree", "h_mult", "h_to_m", "hall_inner", "m_to_h", "schur",
    "verify_simplicial_identities",
]

__version__ = "0.1.0"
