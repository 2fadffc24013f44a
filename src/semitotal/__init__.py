"""Exact computation for semitotal domination in small graphs.

Graphs live on integer bit masks (at most 64 vertices).  The package
provides exact solvers for plain, total and semitotal domination under both
readings of the distance-2 witness rule, by-size counting polynomials,
vertex-removal stability, and a registry of closed-form identities that a
built-in harness checks against brute-force oracles.
"""

from .graph import Graph, WORD_BITS, bits_list, iter_bits, mask_from
from .errors import (
    BudgetExceededError,
    CapacityError,
    EmptyGraphError,
    IsolatesError,
    ResampleBudgetError,
)
from .families import (
    Attach,
    book,
    complete,
    complete_bipartite,
    cycle,
    disjoint_copies,
    friendship,
    has_dominating_vertex,
    path,
    pendant_path_tree,
    petersen,
    random_split_graph,
    star,
    wheel,
)
from .products import cartesian, corona, disjoint_union, join, rooted_product
from .domination import (
    Conventions,
    DEFAULT_CONVENTIONS,
    PLAIN,
    SEMITOTAL_EXACT,
    SEMITOTAL_WITHIN,
    TOTAL,
    Variant,
    WitnessRule,
    brute_force_number,
    count_by_size,
    domination_number,
    is_dominating,
    is_semitotal,
    is_total_dominating,
    minimum_sets,
    semitotal,
)
from .polynomial import CountPolynomial, closed_form
from .stability import RemovalPolicy, semitotal_stability, stability_witness
from .claims import (
    Claim,
    REGISTRY,
    claim_ids,
    corona_bound_check,
    half_order_characterization_check,
    run_claims,
)
from .report import ClaimRow, VerificationReport
from .graphio import GraphFormat, emit_graph, parse_graph

__all__ = [
    "Attach",
    "BudgetExceededError",
    "CapacityError",
    "Claim",
    "ClaimRow",
    "Conventions",
    "CountPolynomial",
    "DEFAULT_CONVENTIONS",
    "EmptyGraphError",
    "Graph",
    "GraphFormat",
    "IsolatesError",
    "PLAIN",
    "REGISTRY",
    "RemovalPolicy",
    "ResampleBudgetError",
    "SEMITOTAL_EXACT",
    "SEMITOTAL_WITHIN",
    "TOTAL",
    "Variant",
    "VerificationReport",
    "WORD_BITS",
    "WitnessRule",
    "bits_list",
    "book",
    "brute_force_number",
    "cartesian",
    "claim_ids",
    "closed_form",
    "complete",
    "complete_bipartite",
    "corona",
    "corona_bound_check",
    "count_by_size",
    "cycle",
    "disjoint_copies",
    "disjoint_union",
    "domination_number",
    "emit_graph",
    "friendship",
    "half_order_characterization_check",
    "has_dominating_vertex",
    "is_dominating",
    "is_semitotal",
    "is_total_dominating",
    "iter_bits",
    "join",
    "mask_from",
    "minimum_sets",
    "parse_graph",
    "path",
    "pendant_path_tree",
    "petersen",
    "random_split_graph",
    "rooted_product",
    "run_claims",
    "semitotal",
    "semitotal_stability",
    "stability_witness",
    "star",
    "wheel",
]
