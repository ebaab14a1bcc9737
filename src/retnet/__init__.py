"""Exact combinatorics for binary phylogenetic networks.

Value types and validation live in :mod:`retnet.model`; canonical codes
and isomorphism in :mod:`retnet.canonical`; exhaustive enumeration in
:mod:`retnet.generate`; the network-to-tree codec in :mod:`retnet.codec`;
display semantics in :mod:`retnet.display`; counting bounds in
:mod:`retnet.bounds`; brute-force solvers in :mod:`retnet.solver`.
"""

from .bounds import (BoundReport, NetworkCountBound, RealInterval,
                     counting_lower_bound, double_factorial,
                     formula_lower_bound, network_count_bound,
                     pair_count_bound, tree_count, tree_set_count,
                     tree_set_count_bounds, verify_math_lemmas)
from .canonical import (CanonicalCode, are_isomorphic, automorphism_count,
                        canonical_code)
from .codec import decode_tau, encode_tau
from .display import displayed_tree, displayed_trees, displays, trivial_network
from .errors import (BudgetExceeded, DomainError, InvalidLabelling,
                     LeafsetMismatch, ModeMismatch, NotATree, NotInImage,
                     ParseError, RetnetError, SwitchingMismatch, TTooLarge)
from .generate import (all_reticulation_labellings, enumerate_networks,
                       enumerate_switchings, enumerate_trees,
                       reticulation_labellings)
from .model import (Graph, ReticulationLabelling, Switching, TreeSet,
                    ValidationReport, ROOTED, UNROOTED, tree_set, validate)
from .solver import min_reticulations, verify_counts, worst_case_r

__version__ = "0.1.0"

__all__ = [
    "ROOTED", "UNROOTED",
    "Graph", "Switching", "ReticulationLabelling", "TreeSet", "ValidationReport",
    "tree_set", "validate",
    "CanonicalCode", "canonical_code", "are_isomorphic", "automorphism_count",
    "enumerate_trees", "enumerate_networks", "enumerate_switchings",
    "reticulation_labellings", "all_reticulation_labellings",
    "encode_tau", "decode_tau",
    "displayed_tree", "displayed_trees", "displays", "trivial_network",
    "BoundReport", "RealInterval", "NetworkCountBound",
    "double_factorial", "tree_count", "tree_set_count",
    "tree_set_count_bounds", "network_count_bound", "pair_count_bound",
    "counting_lower_bound", "formula_lower_bound", "verify_math_lemmas",
    "min_reticulations", "worst_case_r", "verify_counts",
    "RetnetError", "BudgetExceeded", "NotInImage", "InvalidLabelling",
    "SwitchingMismatch", "ModeMismatch", "LeafsetMismatch", "NotATree",
    "DomainError", "TTooLarge", "ParseError",
]
