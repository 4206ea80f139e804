"""Exact-arithmetic leakage analysis for zero-error source coding over confusion graphs.

The graph layer loads with the package.  `rationals`, `lp`, `programs`,
`leakage`, `bounds` and `oracle` are registered lazily: each is in
`sys.modules` and bound here from the start, but its body compiles and runs
only when one of its attributes is first read, so a graph-only command
(`alpha`, `info`, `mis`, `product`) never compiles them.  `leakage` holds the
schemes of the paper's basic model and `bounds` the generalized adversaries'
bounds; neither imports the other, so a scheme command never compiles the
bounds and a `bounds-*` command never compiles the schemes.  Their public
names resolve through `__getattr__` on first use.
"""

import importlib.util
import sys


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Registered before the eager imports below, which import some of them.  The
# search in `__getattr__` loads each module it passes, in this order, so a
# package-level name of `leakage`, `bounds` or `oracle` loads `lp` and
# `programs` too; the CLI reads the modules themselves and loads only what a
# command runs.
_LAZY = tuple(map(_register_lazily, ("rationals", "lp", "programs", "leakage", "bounds", "oracle")))
rationals, lp, programs, leakage, bounds, oracle = _LAZY

from .budget import DEFAULT_ENUMERATION_BUDGET, WorkMeter, enumeration_budget
from .errors import DomainError, ResourceBudgetError, ZeroleakError
from .fixtures import fixture_corpus, resolve_fixture
from .graphs import (
    Graph,
    Hypergraph,
    VertexSetFamily,
    adjacency,
    and_power,
    and_product,
    associated_hypergraph,
    closed_neighborhood,
    decode_index,
    encode_symbols,
    independence_number,
    is_vertex_transitive,
    make_family,
    make_graph,
    make_hypergraph,
    maximal_independent_sets,
    mis_of_or_power,
    or_power,
    or_product,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "DEFAULT_ENUMERATION_BUDGET",
    "DistributionGrid",
    "DomainError",
    "FoldedColoring",
    "Graph",
    "GuessBudget",
    "GuessFamily",
    "Hypergraph",
    "LeakageValue",
    "OptimalLeakage",
    "ResourceBudgetError",
    "StochasticMapping",
    "ValidationReport",
    "VertexSetFamily",
    "WorkMeter",
    "ZeroleakError",
    "adjacency",
    "and_power",
    "and_product",
    "approx_guess_bounds",
    "associated_hypergraph",
    "b_fold_coloring_from_weights",
    "bits_display",
    "closed_neighborhood",
    "covering_number",
    "decode_index",
    "distribution_grid",
    "encode_symbols",
    "enumeration_budget",
    "fixture_corpus",
    "format_ratio",
    "fractional_chromatic",
    "fractional_covering",
    "fractional_packing",
    "generate_valid_mapping",
    "independence_number",
    "is_vertex_transitive",
    "leakage_rate",
    "make_family",
    "make_graph",
    "make_hypergraph",
    "make_mapping",
    "maximal_independent_sets",
    "maximal_leakage",
    "maximin_eta",
    "merge_codewords",
    "mis_of_or_power",
    "multi_approx_guess_bounds",
    "multi_guess_bounds",
    "optimal_leakage_t",
    "optimal_scalar_mapping",
    "or_power",
    "or_product",
    "parse_ratio",
    "resolve_fixture",
    "rho_fixed_px",
    "validate_mapping",
    "verify_eta_duality",
    "verify_mergeability_closure",
    "verify_multi_guess_floor",
    "verify_packing_reciprocity",
    "worst_case_rho",
]


def __getattr__(name: str):
    """A public name of a lazy module, loading the modules searched."""
    if name in __all__:
        for module in _LAZY:
            if hasattr(module, name):
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
