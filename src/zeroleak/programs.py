"""The named LP and set-cover problems behind the leakage quantities.

Four linear programs (fractional chromatic number, maximin split weight,
fractional covering of a hypergraph, fractional closed-neighborhood packing)
plus exact integer set cover.  All values are exact rationals from the
simplex in `lp`; the covering solver adds an inclusion-based presolve and a
result cache because product-identity checks solve thousands of tiny
instances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .budget import WorkMeter
from .errors import DomainError, ZeroleakError
from .graphs import Graph, Hypergraph, closed_neighborhood, maximal_independent_sets
from .lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, LpSolution, make_lp, solve_lp


class WeightedFamily(NamedTuple):
    """An LP optimum together with the weight it puts on each set."""

    value: Fraction
    sets: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]


class WeightedVertices(NamedTuple):
    value: Fraction
    weights: tuple[Fraction, ...]


def _optimal(solution: LpSolution, what: str) -> LpSolution:
    if solution.status != "optimal":
        raise ZeroleakError("internal_error", f"{what} program came back {solution.status}")
    return solution


def fractional_chromatic(g: Graph) -> WeightedFamily:
    """Minimum total weight on maximal independent sets covering every vertex once.

    Weights are only constrained to be nonnegative: with unit costs, an
    optimal weight never exceeds 1, since any excess over 1 could be removed
    and every cover would still hold.  The optimum is 1 exactly when the
    graph has no edges.
    """
    sets = maximal_independent_sets(g)
    n = g.vertex_count
    constraints = []
    for x in range(n):
        row = [Fraction(1) if x in s else Fraction(0) for s in sets]
        constraints.append((row, GREATER_EQUAL, Fraction(1)))
    program = make_lp("min", [Fraction(1)] * len(sets), constraints)
    solution = _optimal(solve_lp(program), "fractional chromatic")
    return WeightedFamily(solution.value, sets, solution.assignment)


def maximin_eta(g: Graph) -> WeightedFamily:
    """Maximize the smallest per-vertex coverage of a unit weight split.

    Weights kappa over maximal independent sets sum to one; the value is the
    largest floor z with coverage(x) >= z for every vertex.  Weights are
    only constrained to be nonnegative: the unit sum already keeps each
    kappa, and so the floor z, at most 1.
    """
    sets = maximal_independent_sets(g)
    m = len(sets)
    n = g.vertex_count
    constraints = []
    for x in range(n):
        row = [Fraction(1) if x in s else Fraction(0) for s in sets] + [Fraction(-1)]
        constraints.append((row, GREATER_EQUAL, Fraction(0)))
    constraints.append(([Fraction(1)] * m + [Fraction(0)], EQUAL, Fraction(1)))
    program = make_lp("max", [Fraction(0)] * m + [Fraction(1)], constraints)
    solution = _optimal(solve_lp(program), "maximin split")
    return WeightedFamily(solution.value, sets, solution.assignment[:m])


# ---------------------------------------------------------------------------
# Hypergraph covering
# ---------------------------------------------------------------------------

def _check_exposed(vertices, edges) -> None:
    covered = set()
    for e in edges:
        covered |= e
    for v in vertices:
        if v not in covered:
            raise DomainError("exposed_vertex", f"vertex {v} is in no hyperedge", {"vertex": v})


def _presolve(vertices, edges):
    """Drop dominated structure without changing the covering optimum.

    A hyperedge strictly inside another can always hand its weight to the
    superset.  A vertex whose incident edges all contain some other vertex is
    covered whenever that vertex is, so its constraint is implied.
    """
    keep_edges = []
    for i, e in enumerate(edges):
        if any(e < f for f in edges):
            continue
        keep_edges.append(i)
    incidence = {}
    for v in vertices:
        incidence[v] = frozenset(i for i in keep_edges if v in edges[i])
    keep_vertices = []
    for v in vertices:
        dominated = False
        for w in vertices:
            if w == v:
                continue
            if incidence[w] < incidence[v] or (incidence[w] == incidence[v] and w < v):
                dominated = True
                break
        if not dominated:
            keep_vertices.append(v)
    return keep_vertices, keep_edges


_kf_cache: dict[tuple, tuple[Fraction, tuple[Fraction, ...]]] = {}


def _kf_lp(vertices: tuple[int, ...], edges: tuple[frozenset, ...]):
    """Fractional covering optimum for an exposed-free instance, cached by shape."""
    index = {v: i for i, v in enumerate(vertices)}
    key = (len(vertices), tuple(sorted(tuple(sorted(index[v] for v in e)) for e in edges)))
    order = sorted(range(len(edges)), key=lambda i: tuple(sorted(index[v] for v in edges[i])))
    hit = _kf_cache.get(key)
    if hit is not None:
        value, canon_weights = hit
        weights = [Fraction(0)] * len(edges)
        for slot, i in enumerate(order):
            weights[i] = canon_weights[slot]
        return value, tuple(weights)

    keep_vertices, keep_edges = _presolve(vertices, edges)
    weights = [Fraction(0)] * len(edges)
    full = next((i for i in keep_edges if all(v in edges[i] for v in keep_vertices)), None)
    if full is not None:
        value = Fraction(1)
        weights[full] = Fraction(1)
    else:
        constraints = []
        for v in keep_vertices:
            row = [Fraction(1) if v in edges[i] else Fraction(0) for i in keep_edges]
            constraints.append((row, GREATER_EQUAL, Fraction(1)))
        program = make_lp("min", [Fraction(1)] * len(keep_edges), constraints)
        solution = _optimal(solve_lp(program), "fractional covering")
        value = solution.value
        for i, w in zip(keep_edges, solution.assignment):
            weights[i] = w

    canon_weights = tuple(weights[i] for i in order)
    _kf_cache[key] = (value, canon_weights)
    return value, tuple(weights)


def fractional_covering(h: Hypergraph) -> WeightedVertices:
    """LP relaxation of the b-fold covering number; exact and always >= 1."""
    edges = tuple(frozenset(e) for e in h.hyperedges)
    _check_exposed(h.vertex_ids, edges)
    value, weights = _kf_lp(tuple(h.vertex_ids), edges)
    return WeightedVertices(value, weights)


def covering_number(h: Hypergraph) -> int:
    """Smallest number of hyperedges whose union is the vertex set.

    Branch and bound on an uncovered vertex, branches ordered by the residual
    LP weight of the candidate edges (descending, edge index breaking ties),
    pruned with ceil of the residual fractional optimum.
    """
    edges = tuple(frozenset(e) for e in h.hyperedges)
    _check_exposed(h.vertex_ids, edges)
    universe = frozenset(h.vertex_ids)
    meter = WorkMeter("set_cover_search")

    # greedy warm start for the incumbent
    uncovered = set(universe)
    greedy = 0
    while uncovered:
        best = max(range(len(edges)), key=lambda i: (len(edges[i] & uncovered), -i))
        uncovered -= edges[best]
        greedy += 1
    best_known = greedy

    def ceil_frac(x: Fraction) -> int:
        return -((-x.numerator) // x.denominator)

    def search(uncovered: frozenset, chosen: int) -> None:
        nonlocal best_known
        meter.spend(1)
        if not uncovered:
            best_known = min(best_known, chosen)
            return
        vertices = tuple(sorted(uncovered))
        value, weights = _kf_lp(vertices, tuple(e & uncovered for e in edges))
        if chosen + ceil_frac(value) >= best_known:
            return
        pivot = min(vertices, key=lambda v: (sum(1 for e in edges if v in e), v))
        candidates = [i for i in range(len(edges)) if pivot in edges[i]]
        candidates.sort(key=lambda i: (-weights[i], i))
        for i in candidates:
            search(uncovered - edges[i], chosen + 1)

    search(universe, 0)
    return best_known


def fractional_packing(theta: Graph) -> WeightedVertices:
    """Maximum total vertex weight with every closed neighborhood summing to <= 1.

    Weights are only constrained to be nonnegative: each vertex lies in its
    own closed neighborhood, so its weight is at most 1.
    """
    if theta.vertex_count == 0:
        raise DomainError("empty_graph", "packing needs a nonempty graph")
    n = theta.vertex_count
    neighborhoods = []
    seen = set()
    for x in range(n):
        hood = closed_neighborhood(theta, x)
        if hood not in seen:
            seen.add(hood)
            neighborhoods.append(hood)
    constraints = []
    for hood in neighborhoods:
        row = [Fraction(1) if v in hood else Fraction(0) for v in range(n)]
        constraints.append((row, LESS_EQUAL, Fraction(1)))
    program = make_lp("max", [Fraction(1)] * n, constraints)
    solution = _optimal(solve_lp(program), "fractional packing")
    return WeightedVertices(solution.value, solution.assignment)
