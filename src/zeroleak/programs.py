"""The named LP and set-cover problems behind the leakage quantities.

Four linear programs (fractional chromatic number, maximin split weight,
fractional covering of a hypergraph, fractional closed-neighborhood packing)
plus exact integer set cover.  All values are exact rationals from the
one-phase simplex in `lp`, so every program is posed in its one shape: a
maximum over integer `<=` rows with nonnegative right-hand sides.  Three of
them are unit packings over 0/1 rows, built by one helper: maximize the
weight on some vertices with every set (a maximal independent set, a kept
hyperedge, a closed neighborhood) summing to <= 1.  The two covering
programs are solved as such packing duals, and their cover weights are that
LP's row prices; by LP duality both forms have the same optimum.  The
maximin split builds its own rows, with -1 entries and zero right-hand
sides.  The covering core works on hyperedges as int masks over vertex
ranks, with an inclusion-based presolve and a per-operation cache of LP
optima by rank-space shape, because a covering search and the
approximate-guess bounds solve many tiny instances of few shapes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .budget import WorkMeter
from .errors import DomainError
from .graphs import Graph, Hypergraph, _bits, maximal_independent_sets, rank_masks, vertex_mask
from .lp import LinearProgram, LpSolution, solve_lp


class WeightedFamily(NamedTuple):
    """An LP optimum together with the weight it puts on each set."""

    value: Fraction
    sets: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]


class FractionalColoring(NamedTuple):
    """The chi_f optimum with both halves of its certificate.

    `weights` are the set weights, one per maximal independent set, and
    `vertex_weights` the optimal fractional clique: each sums to `value`.
    """

    value: Fraction
    sets: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    vertex_weights: tuple[Fraction, ...]


class WeightedVertices(NamedTuple):
    value: Fraction
    weights: tuple[Fraction, ...]


def _unit_packing(masks, columns) -> LpSolution:
    """Maximize the total weight on `columns` with every mask summing to <= 1.

    One column per bit position in `columns` and one row per mask, with a 1
    where the mask has that bit: the assignment is the column weights, the
    duals the mask prices.
    """
    rows = tuple((tuple(mask >> v & 1 for v in columns), 1) for mask in masks)
    return solve_lp(LinearProgram((1,) * len(columns), rows))


def _mis_masks(g: Graph):
    """The maximal independent sets, and the same sets as masks."""
    sets = maximal_independent_sets(g)
    return sets, [vertex_mask(s) for s in sets]


def fractional_chromatic(g: Graph) -> FractionalColoring:
    """Minimum total weight on maximal independent sets covering every vertex once.

    Solved as its dual, the fractional clique LP: maximize the total vertex
    weight with every maximal independent set summing to <= 1, one row per
    set.  The set weights are that LP's row prices, so they are nonnegative,
    cover every vertex to at least 1 and sum to the optimum.  The vertex
    weights are its optimal assignment, the fractional clique.  The optimum
    is 1 exactly when the graph has no edges.
    """
    sets, masks = _mis_masks(g)
    solution = _unit_packing(masks, range(g.vertex_count))
    return FractionalColoring(solution.value, sets, solution.duals, solution.assignment)


def maximin_eta(g: Graph) -> WeightedFamily:
    """Maximize the smallest per-vertex coverage of a unit weight split.

    Weights kappa over maximal independent sets are the first columns, and
    the floor z is the last: maximize z with z - coverage(x) <= 0 for every
    vertex x and sum(kappa) <= 1.  Every vertex lies in some set, so the
    optimum is positive, and then the sum is exactly 1 (scaling the weights
    up would raise every coverage).  The split is solved as its own LP, not
    read off `fractional_chromatic`, so the two stay independent routes to
    eta = 1 / chi_f; its one caller is the duality oracle.
    """
    sets, masks = _mis_masks(g)
    m = len(sets)
    rows = [(tuple(-(s >> x & 1) for s in masks) + (1,), 0) for x in range(g.vertex_count)]
    rows.append(((1,) * m + (0,), 1))
    solution = solve_lp(LinearProgram((0,) * m + (1,), tuple(rows)))
    return WeightedFamily(solution.value, sets, solution.assignment[:m])


# ---------------------------------------------------------------------------
# Hypergraph covering
# ---------------------------------------------------------------------------
#
# The covering core works on int masks: bit r of an edge stands for the
# vertex of rank r.  A kf cache is a dict from a covering instance's shape to
# its LP optimum; whoever starts a top-level operation creates one and passes
# it down, so the cache lives for one operation.

def _check_exposed(universe: int, edges, ids) -> None:
    covered = 0
    for e in edges:
        covered |= e
    exposed = universe & ~covered
    if exposed:
        v = ids[(exposed & -exposed).bit_length() - 1]
        raise DomainError("exposed_vertex", f"vertex {v} is in no hyperedge", {"vertex": v})


def _presolve(width: int, edges):
    """Drop dominated structure without changing the covering optimum.

    A hyperedge strictly inside another can always hand its weight to the
    superset; equal edges are all kept.  A vertex whose incident edges all
    contain some other vertex is covered whenever that vertex is, so its
    constraint is implied; of vertices with the same incident edges, the
    lowest is kept.  Returns the kept vertices as a mask and the kept edges'
    indices.

    Both scans are masks, not pairs: the edges holding all of an edge are the
    AND of its vertices' masks of holding edges, and the vertices a vertex
    dominates are the AND of the kept edges holding it.
    """
    distinct = list(dict.fromkeys(edges))
    members = list(map(_bits, distinct))
    holders = [0] * width  # per vertex, the distinct edges holding it, by index into distinct
    for k, bits in enumerate(members):
        for v in bits:
            holders[v] |= 1 << k
    dropped = set()
    for k, bits in enumerate(members):
        supersets = (1 << len(distinct)) - 1
        for v in bits:
            supersets &= holders[v]
        if supersets != 1 << k:
            dropped.add(distinct[k])
    keep_edges = [i for i, e in enumerate(edges) if e not in dropped]

    vertices = (1 << width) - 1
    incidence = [0] * width  # per vertex, the kept distinct edges holding it
    inside = [vertices] * width  # per vertex, the vertices of every kept edge holding it
    for k, (e, bits) in enumerate(zip(distinct, members)):
        if e not in dropped:
            for v in bits:
                incidence[v] |= 1 << k
                inside[v] &= e
    alike: dict[int, int] = {}  # per incidence, the vertices that have it
    for v, mine in enumerate(incidence):
        alike[mine] = alike.get(mine, 0) | 1 << v
    dominated = 0
    for w, mine in enumerate(incidence):
        same = alike[mine]
        # w dominates the vertices with strictly more edges, and its equals above it
        dominated |= inside[w] & ~same | same & -(2 << w)
    return vertices & ~dominated, keep_edges


def _kf_lp(edges: tuple[int, ...], kf_cache: dict):
    """Fractional covering optimum of rank masks that cover ranks 0..k-1, cached by shape.

    The shape is the sorted edge masks, which also fix k.  A hit maps the
    stored weights back through the sort, equal masks in index order.  The
    LP solved is the packing dual of the presolved instance, one column per
    kept vertex and one row per kept edge; the edge weights are its row
    prices.
    """
    order = sorted(range(len(edges)), key=edges.__getitem__)
    key = tuple(edges[i] for i in order)
    hit = kf_cache.get(key)
    if hit is not None:
        value, canon_weights = hit
        weights = [Fraction(0)] * len(edges)
        for slot, i in enumerate(order):
            weights[i] = canon_weights[slot]
        return value, tuple(weights)

    union = 0
    for e in edges:
        union |= e
    width = union.bit_length()
    keep_vertices, keep_edges = _presolve(width, edges)
    weights = [Fraction(0)] * len(edges)
    full = next((i for i in keep_edges if edges[i] & keep_vertices == keep_vertices), None)
    if full is not None:
        value = Fraction(1)
        weights[full] = Fraction(1)
    else:
        kept = [v for v in range(width) if keep_vertices >> v & 1]
        solution = _unit_packing((edges[i] for i in keep_edges), kept)
        value = solution.value
        for i, w in zip(keep_edges, solution.duals):
            weights[i] = w

    kf_cache[key] = (value, tuple(weights[i] for i in order))
    return value, tuple(weights)


def fractional_cover(universe: int, edges: tuple[int, ...], ids, kf_cache: dict):
    """(value, edge weights) of the covering LP of mask edges over `universe`.

    `ids[r]` names rank r in the `exposed_vertex` error.
    """
    _check_exposed(universe, edges, ids)
    return _kf_lp(rank_masks(edges, universe), kf_cache)


def min_cover_size(universe: int, edges: tuple[int, ...], ids, kf_cache: dict) -> int:
    """Fewest mask edges whose union is `universe`, by branch and bound.

    A greedy cover (most new vertices, lowest index on ties) is the first
    incumbent.  Each node of an explicit-stack search charges one
    `set_cover_search` unit, is pruned when its size plus the ceiling of its
    residual LP optimum cannot beat the incumbent, and otherwise branches on
    the uncovered vertex in the fewest edges (lowest rank on ties), trying
    its edges by residual LP weight, descending, then by index.
    """
    _check_exposed(universe, edges, ids)
    meter = WorkMeter("set_cover_search")

    uncovered = universe
    best_known = 0
    while uncovered:
        best = max(range(len(edges)), key=lambda i: ((edges[i] & uncovered).bit_count(), -i))
        uncovered &= ~edges[best]
        best_known += 1

    ranks = range(universe.bit_length())
    containing = [[i for i, e in enumerate(edges) if e >> v & 1] for v in ranks]
    pivot_order = sorted(ranks, key=lambda v: (len(containing[v]), v))
    stack = [(universe, 0)]
    while stack:
        uncovered, chosen = stack.pop()
        meter.spend(1)
        if not uncovered:
            best_known = min(best_known, chosen)
            continue
        value, weights = _kf_lp(rank_masks(edges, uncovered), kf_cache)
        if chosen + math.ceil(value) >= best_known:
            continue
        pivot = next(v for v in pivot_order if uncovered >> v & 1)
        candidates = sorted(containing[pivot], key=lambda i: (-weights[i], i))
        stack.extend((uncovered & ~edges[i], chosen + 1) for i in reversed(candidates))
    return best_known


def _hypergraph_masks(h: Hypergraph) -> tuple[int, tuple[int, ...]]:
    rank = {v: r for r, v in enumerate(h.vertex_ids)}
    return (1 << len(rank)) - 1, tuple(sum(1 << rank[v] for v in e) for e in h.hyperedges)


def fractional_covering(h: Hypergraph) -> WeightedVertices:
    """LP relaxation of the b-fold covering number, exact.

    At least 1 when there is a vertex; the empty hypergraph has the empty
    cover, of value 0.
    """
    universe, edges = _hypergraph_masks(h)
    value, weights = fractional_cover(universe, edges, h.vertex_ids, {})
    return WeightedVertices(value, weights)


def covering_number(h: Hypergraph) -> int:
    """Smallest number of hyperedges whose union is the vertex set.

    0 for the empty hypergraph (the empty cover).  The search is
    `min_cover_size` on the hyperedges as masks over the vertex ranks.
    """
    universe, edges = _hypergraph_masks(h)
    return min_cover_size(universe, edges, h.vertex_ids, {})


def fractional_packing(theta: Graph) -> WeightedVertices:
    """Maximum total vertex weight with every closed neighborhood summing to <= 1.

    Weights are only constrained to be nonnegative: each vertex lies in its
    own closed neighborhood, so its weight is at most 1.
    """
    if theta.vertex_count == 0:
        raise DomainError("empty_graph", "packing needs a nonempty graph")
    neighborhoods = dict.fromkeys(row | 1 << v for v, row in enumerate(theta.rows))
    solution = _unit_packing(neighborhoods, range(theta.vertex_count))
    return WeightedVertices(solution.value, solution.assignment)
