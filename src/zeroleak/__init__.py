"""Exact-arithmetic leakage analysis for zero-error source coding over confusion graphs.

The graph layer (`budget`, `errors`, `fixtures`, `graphs`) loads with the
package.  `rationals`, `lp`, `programs`, `leakage`, `bounds` and `oracle`
are registered lazily: each is in `sys.modules` and bound here from the
start, but its body compiles and runs only when one of its attributes is
first read, so a graph-only command (`alpha`, `info`, `mis`, `product`)
never compiles them.  `leakage` holds the schemes of the paper's basic
model and `bounds` the generalized adversaries' bounds; neither imports the
other, so a scheme command never compiles the bounds and a `bounds-*`
command never compiles the schemes.  `_HOME` names the module of each
public name, and `__getattr__` reads the name off that module alone on
first use, so a package-level name runs its home module and what that
module imports, nothing else.
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


# Registered before the graph layer is imported, since some of it imports them.
rationals, lp, programs, leakage, bounds, oracle = map(
    _register_lazily, ("rationals", "lp", "programs", "leakage", "bounds", "oracle")
)

from . import budget, errors, fixtures, graphs

__version__ = "0.1.0"

# each public name and the module it is read from
_HOME = {
    "BoundsReport": bounds,
    "DEFAULT_ENUMERATION_BUDGET": budget,
    "DistributionGrid": oracle,
    "DomainError": errors,
    "FoldedColoring": leakage,
    "Graph": graphs,
    "GuessBudget": bounds,
    "GuessFamily": oracle,
    "Hypergraph": graphs,
    "LeakageValue": rationals,
    "OptimalLeakage": leakage,
    "ResourceBudgetError": errors,
    "StochasticMapping": leakage,
    "ValidationReport": leakage,
    "VertexSetFamily": graphs,
    "WorkMeter": budget,
    "ZeroleakError": errors,
    "adjacency": graphs,
    "and_power": graphs,
    "and_product": graphs,
    "approx_guess_bounds": bounds,
    "associated_hypergraph": graphs,
    "b_fold_coloring_from_weights": leakage,
    "bits_display": rationals,
    "closed_neighborhood": graphs,
    "covering_number": programs,
    "decode_index": graphs,
    "distribution_grid": oracle,
    "encode_symbols": graphs,
    "enumeration_budget": budget,
    "fixture_corpus": fixtures,
    "format_ratio": rationals,
    "fractional_chromatic": programs,
    "fractional_covering": programs,
    "fractional_packing": programs,
    "generate_valid_mapping": oracle,
    "independence_number": graphs,
    "is_vertex_transitive": graphs,
    "leakage_rate": leakage,
    "make_family": graphs,
    "make_graph": graphs,
    "make_hypergraph": graphs,
    "make_mapping": leakage,
    "maximal_independent_sets": graphs,
    "maximal_leakage": leakage,
    "maximin_eta": programs,
    "merge_codewords": leakage,
    "mis_of_or_power": graphs,
    "multi_approx_guess_bounds": bounds,
    "multi_guess_bounds": bounds,
    "optimal_leakage_t": leakage,
    "optimal_scalar_mapping": leakage,
    "or_power": graphs,
    "or_product": graphs,
    "parse_ratio": rationals,
    "resolve_fixture": fixtures,
    "rho_fixed_px": oracle,
    "validate_mapping": leakage,
    "verify_eta_duality": oracle,
    "verify_mergeability_closure": oracle,
    "verify_multi_guess_floor": oracle,
    "verify_packing_reciprocity": oracle,
    "worst_case_rho": oracle,
}

__all__ = list(_HOME)


def __getattr__(name: str):
    """A public name, read off its home module and kept here."""
    if name in _HOME:
        globals()[name] = value = getattr(_HOME[name], name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
