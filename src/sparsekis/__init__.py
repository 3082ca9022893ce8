"""Exact solvers for k-independent set and weight-k CSPs on sparse instances.

The package decides and counts independent sets in mixed-arity
hypergraphs through truncated inclusion-exclusion over a clique-counting
core, routes weighted binary CSPs by their hardness regime, and ships
the matching instance transformations, brute-force oracles, and a CLI.

Every submodule but `cli` is registered in `sys.modules` as a lazy
module whose body runs on its first attribute access, so `import
sparsekis` compiles none of them and the k-IS entry points never load
the CSP solver.  The public names resolve through the module
`__getattr__`, which reads each from its submodule on every access; an
import error in a submodule surfaces at that submodule's first use.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "cliques": ("count_k_cliques", "count_k_is", "count_triangles_tripartite"),
    "csp": (
        "EQ2",
        "IMPL",
        "NAND2",
        "NEVER1",
        "NOR2",
        "NOT1",
        "OR2",
        "ConstraintFunction",
        "CspInstance",
        "CspParseError",
        "CspResult",
        "Regime",
        "branch_and_bound",
        "classify_binary_family",
        "format_csp",
        "impl_prune",
        "parse_csp",
        "permute_arguments",
        "preprocess_easy",
        "s_min",
        "solve_csp",
        "specialize",
        "symmetrize",
        "u_min",
    ),
    "errors": ("ResourceLimit", "VerificationError"),
    "hypergraph": (
        "MAX_ARITY",
        "Graph",
        "HgrError",
        "Hypergraph",
        "complement",
        "format_hgr",
        "parse_hypergraph",
        "underlying_graph",
    ),
    "kis": ("count_invalid", "count_k_is_hypergraph", "count_k_is_mixed", "decide_k_is"),
    "nand_impl": ("balance_partition", "solve_nand_impl"),
    "oracle": ("ORACLE_CAP", "brute_count_invalid", "brute_count_k_is", "brute_solve_csp"),
    "reductions": (
        "build_less_than",
        "dense_embed",
        "gen_binary_hardness",
        "gen_kis_sparse_lb",
        "gen_mixed_lb",
        "sparse_embed",
    ),
    "turan": ("NO_GUARANTEE", "find_k_is_sparse", "sparse_csp_solve"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def _register_lazy(name):
    """sparsekis.<name> in sys.modules, its body left to run on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# `cli` is left to the normal import: `python -m sparsekis.cli` warns, and
# runs the module twice, when it is already in sys.modules.
for _name in _EXPORTS:
    globals()[_name] = _register_lazy(_name)
del _name


def __getattr__(name):
    # Not cached here: a name read while perfbench's tracer has wrapped
    # the submodule's function would keep the wrapper after uninstall.
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
