"""Exact solvers for k-independent set and weight-k CSPs on sparse instances.

The package decides and counts independent sets in mixed-arity
hypergraphs through truncated inclusion-exclusion over a clique-counting
core, routes weighted binary CSPs by their hardness regime, and ships
the matching instance transformations, brute-force oracles, and a CLI.
"""

from .cliques import count_k_cliques, count_k_is, count_triangles_tripartite
from .csp import (
    EQ2,
    IMPL,
    NAND2,
    NEVER1,
    NOR2,
    NOT1,
    OR2,
    ConstraintFunction,
    CspInstance,
    CspParseError,
    CspResult,
    Regime,
    branch_and_bound,
    classify_binary_family,
    eq_components_subset_sum,
    format_csp,
    impl_prune,
    parse_csp,
    permute_arguments,
    preprocess_easy,
    s_min,
    solve_csp,
    specialize,
    symmetrize,
    u_min,
)
from .errors import ResourceLimit, VerificationError
from .hypergraph import (
    MAX_ARITY,
    Graph,
    HgrError,
    Hypergraph,
    complement,
    format_hgr,
    parse_hypergraph,
    underlying_graph,
)
from .kis import (
    count_invalid,
    count_k_is_hypergraph,
    count_k_is_mixed,
    decide_k_is,
)
from .nand_impl import balance_partition, solve_nand_impl
from .oracle import (
    ORACLE_CAP,
    brute_count_invalid,
    brute_count_k_is,
    brute_solve_csp,
)
from .reductions import (
    build_less_than,
    dense_embed,
    gen_binary_hardness,
    gen_kis_sparse_lb,
    gen_mixed_lb,
    sparse_embed,
)
from .turan import NO_GUARANTEE, find_k_is_sparse, sparse_csp_solve

__version__ = "0.1.0"

__all__ = [
    "ConstraintFunction",
    "CspInstance",
    "CspParseError",
    "CspResult",
    "EQ2",
    "Graph",
    "HgrError",
    "Hypergraph",
    "IMPL",
    "MAX_ARITY",
    "NAND2",
    "NEVER1",
    "NOR2",
    "NO_GUARANTEE",
    "NOT1",
    "OR2",
    "ORACLE_CAP",
    "Regime",
    "ResourceLimit",
    "VerificationError",
    "balance_partition",
    "branch_and_bound",
    "brute_count_invalid",
    "brute_count_k_is",
    "brute_solve_csp",
    "build_less_than",
    "classify_binary_family",
    "complement",
    "count_invalid",
    "count_k_cliques",
    "count_k_is",
    "count_k_is_hypergraph",
    "count_k_is_mixed",
    "count_triangles_tripartite",
    "decide_k_is",
    "dense_embed",
    "eq_components_subset_sum",
    "find_k_is_sparse",
    "format_csp",
    "format_hgr",
    "gen_binary_hardness",
    "gen_kis_sparse_lb",
    "gen_mixed_lb",
    "impl_prune",
    "parse_csp",
    "parse_hypergraph",
    "permute_arguments",
    "preprocess_easy",
    "s_min",
    "solve_csp",
    "solve_nand_impl",
    "sparse_csp_solve",
    "sparse_embed",
    "specialize",
    "symmetrize",
    "u_min",
    "underlying_graph",
    "__version__",
]
