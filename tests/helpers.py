"""Brute-force oracles and graph generators the tests trust over the library.

Everything here is deliberately naive: subset enumeration, grid search over
bounded denominators, breadth-first reachability.  Slow but obviously right at
the sizes the tests use.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from zeroleak import Graph, Hypergraph, make_graph


def brute_mis(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All maximal independent sets by checking every vertex subset."""
    n = g.vertex_count
    independent = []
    for mask in range(1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        if all(not g.has_edge(u, v) for u, v in itertools.combinations(members, 2)):
            independent.append(frozenset(members))
    maximal = [
        s for s in independent
        if s and not any(s < other for other in independent)
    ]
    return tuple(sorted(tuple(sorted(s)) for s in maximal))


def brute_chi_f(g: Graph, sets, denominator: int) -> Fraction:
    """Minimum total weight over the grid of weights with the given denominator.

    Exact when some optimal solution uses only these denominators; the caller
    must know that about the instance.
    """
    best = None
    options = [Fraction(k, denominator) for k in range(denominator + 1)]
    for weights in itertools.product(options, repeat=len(sets)):
        if any(
            sum(w for s, w in zip(sets, weights) if x in s) < 1
            for x in range(g.vertex_count)
        ):
            continue
        total = sum(weights)
        if best is None or total < best:
            best = total
    return best


def brute_eta(g: Graph, sets, denominator: int) -> Fraction:
    """Largest minimum coverage over unit-sum weight splits on the grid."""
    best = Fraction(0)
    m = len(sets)
    for cuts in itertools.combinations(range(denominator + m - 1), m - 1):
        weights = []
        prev = -1
        for c in cuts:
            weights.append(Fraction(c - prev - 1, denominator))
            prev = c
        weights.append(Fraction(denominator + m - 2 - prev, denominator))
        floor = min(
            sum(w for s, w in zip(sets, weights) if x in s)
            for x in range(g.vertex_count)
        )
        best = max(best, floor)
    return best


def brute_fractional_covering(h: Hypergraph, max_b: int) -> Fraction:
    """Minimum m/b over integer edge multisets covering every vertex b times."""
    edges = [frozenset(e) for e in h.hyperedges]
    best = None
    for b in range(1, max_b + 1):
        cap = (best.numerator * b) // best.denominator + 1 if best is not None else len(edges) * b
        for total in range(1, cap + 1):
            found = False
            for counts in _compositions(total, len(edges)):
                coverage_ok = all(
                    sum(c for c, e in zip(counts, edges) if v in e) >= b
                    for v in h.vertex_ids
                )
                if coverage_ok:
                    found = True
                    break
            if found:
                value = Fraction(total, b)
                if best is None or value < best:
                    best = value
                break
    return best


def brute_covering_number(h: Hypergraph) -> int:
    edges = [frozenset(e) for e in h.hyperedges]
    universe = set(h.vertex_ids)
    for size in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, size):
            if set().union(*combo) >= universe:
                return size
    raise AssertionError("no cover exists")


def brute_packing(theta: Graph, denominator: int) -> Fraction:
    """Max total vertex weight on a grid with closed neighborhoods capped at 1."""
    n = theta.vertex_count
    hoods = []
    for x in range(n):
        hood = {x}
        for u, v in theta.edges:
            if u == x:
                hood.add(v)
            if v == x:
                hood.add(u)
        hoods.append(hood)
    best = Fraction(0)
    options = [Fraction(k, denominator) for k in range(denominator + 1)]
    for weights in itertools.product(options, repeat=n):
        if all(sum(weights[v] for v in hood) <= 1 for hood in hoods):
            best = max(best, sum(weights))
    return best


def coordinate_product(g: Graph, h: Graph, op: str) -> Graph:
    """OR or AND product straight from the coordinate rule, pair by pair.

    Vertex (i, j) is i * |V(h)| + j.  OR: distinct pairs adjacent iff adjacent
    in some slot.  AND: distinct pairs adjacent iff every slot is equal or
    adjacent.
    """
    nh = h.vertex_count
    n = g.vertex_count * nh
    edges = []
    for a, b in itertools.combinations(range(n), 2):
        (i1, j1), (i2, j2) = divmod(a, nh), divmod(b, nh)
        if op == "or":
            adjacent = g.has_edge(i1, i2) or h.has_edge(j1, j2)
        else:
            adjacent = (i1 == i2 or g.has_edge(i1, i2)) and (j1 == j2 or h.has_edge(j1, j2))
        if adjacent:
            edges.append((a, b))
    return make_graph(n, edges)


def brute_hypergraph_edges(T, theta: Graph, t: int) -> tuple[tuple[int, ...], ...]:
    """Distinct nonempty traces on T of the closed neighborhoods of theta's AND power.

    y is in the closed neighborhood of x iff every coordinate of y equals or
    is adjacent to the same coordinate of x.
    """
    n = theta.vertex_count

    def digits(x):
        out = []
        for _ in range(t):
            x, r = divmod(x, n)
            out.append(r)
        return out

    members = sorted(set(T))
    traces = set()
    for x in range(n**t):
        trace = tuple(
            y for y in members
            if all(p == q or theta.has_edge(p, q) for p, q in zip(digits(x), digits(y)))
        )
        if trace:
            traces.add(trace)
    return tuple(sorted(traces))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def all_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield make_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def is_connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in range(g.vertex_count):
            if u not in seen and g.has_edge(u, v):
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.vertex_count


def connected_graphs(n: int):
    return [g for g in all_graphs(n) if is_connected(g)]


def k22() -> Graph:
    return make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
