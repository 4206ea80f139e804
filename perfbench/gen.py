"""Seeded input generator for the benchmark.

Everything the program reads is built here, from the benchmark's own code:
base graphs, OR and AND powers by the coordinate rule, dense random graphs,
edgeless graphs, all-ones budget tables and a duplicate-codebook mapping.
Nothing here imports zeroleak.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

# A graph is (n, frozenset of (u, v) pairs with u < v, labels or None).


def graph(n, edges, labels=None):
    return n, frozenset((min(u, v), max(u, v)) for u, v in edges), labels


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return graph(n, itertools.combinations(range(n), 2))


def edgeless(n):
    return graph(n, [])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return graph(10, outer + inner + spokes)


FIG1_LABELS = ("VH", "H", "VL", "L")


def fig1():
    """Confusion graph of the paper's running example: highs vs lows."""
    return graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)], FIG1_LABELS)


def fig1_theta():
    """Adversary graph of the running example: a guess within one step wins."""
    return graph(4, [(0, 1), (2, 3)], FIG1_LABELS)


def random_graph(n, p, rng):
    """G(n, p): each of the n*(n-1)/2 pairs is an edge with probability p."""
    return graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p])


def coords(x, t, base):
    """Big-endian base-`base` digits of sequence index x, length t."""
    out = []
    for _ in range(t):
        x, r = divmod(x, base)
        out.append(r)
    return tuple(reversed(out))


def product(g, h, op):
    """OR or AND product; vertex (i, j) is i * |V(h)| + j.

    OR: distinct pairs adjacent iff adjacent in some slot.
    AND: distinct pairs adjacent iff every slot is equal or adjacent.
    """
    ng, eg, _ = g
    nh, eh, _ = h

    def adj(edges, a, b):
        return (min(a, b), max(a, b)) in edges

    edges = []
    for a, b in itertools.combinations(range(ng * nh), 2):
        (i1, j1), (i2, j2) = divmod(a, nh), divmod(b, nh)
        if op == "or":
            linked = adj(eg, i1, i2) or adj(eh, j1, j2)
        else:
            linked = (i1 == i2 or adj(eg, i1, i2)) and (j1 == j2 or adj(eh, j1, j2))
        if linked:
            edges.append((a, b))
    return graph(ng * nh, edges)


def power(g, t, op):
    result = g
    for _ in range(t - 1):
        result = product(result, g, op)
    return result


def independent(g, members):
    edges = g[1]
    return all((u, v) not in edges for u, v in itertools.combinations(sorted(members), 2))


def brute_mis(g):
    """Maximal independent sets of a small graph by subset enumeration."""
    n = g[0]
    sets = [frozenset(v for v in range(n) if mask >> v & 1) for mask in range(1, 1 << n)]
    indep = [s for s in sets if independent(g, s)]
    return sorted(tuple(sorted(s)) for s in indep if not any(s < o for o in indep))


def mis_of_or_power(g, t):
    """MIS of the OR power: one MIS per coordinate, encoded big-endian."""
    n = g[0]
    out = []
    for combo in itertools.product(brute_mis(g), repeat=t):
        members = []
        for symbols in itertools.product(*combo):
            x = 0
            for s in symbols:
                x = x * n + s
            members.append(x)
        out.append(tuple(sorted(members)))
    return sorted(out)


def duplicate_codebook_mapping(g, t, r, rng):
    """Zero-error scheme whose codewords are the MIS of G^t, each listed twice.

    Each source splits r probability units at random among the codewords
    containing it, so every duplicate pair stays mergeable.
    """
    names, columns = [], []
    for s in mis_of_or_power(g, t):
        base = "+".join(map(str, s))
        for k in (1, 2):
            names.append(f"{base}#{k}")
            columns.append(frozenset(s))
    rows = []
    for x in range(g[0] ** t):
        containing = [j for j, s in enumerate(columns) if x in s]
        counts = [0] * len(columns)
        for _ in range(r):
            counts[rng.choice(containing)] += 1
        rows.append([Fraction(c, r) for c in counts])
    return {"t": t, "codewords": names, "rows": rows}


def graph_obj(g):
    n, edges, labels = g
    obj = {"n": n, "edges": [list(e) for e in sorted(edges)]}
    if labels is not None:
        obj["labels"] = list(labels)
    return obj


def mapping_obj(m):
    rows = [[f"{e.numerator}/{e.denominator}" for e in row] for row in m["rows"]]
    return {"t": m["t"], "codewords": m["codewords"], "rows": rows}


def budget_table(length):
    """All-ones guess budget: one guess at every t, declared subexponential."""
    return {"values": [1] * length, "growth": "1/1"}


def dump(obj):
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


class Inputs:
    """Writes each named input once into one directory and returns its path."""

    def __init__(self, directory: Path, seed: int):
        self.dir = directory
        self.seed = seed
        self.dir.mkdir(parents=True, exist_ok=True)

    def rng(self, purpose):
        # one independent stream per input, so adding an input moves no other
        return random.Random(f"{self.seed}:{purpose}")

    def _write(self, name, obj):
        path = self.dir / f"{name}.json"
        if not path.exists():
            path.write_bytes(dump(obj))
        return str(path)

    def graph(self, name, g):
        return self._write(name, graph_obj(g))

    def mapping(self, name, m):
        return self._write(name, mapping_obj(m))

    def table(self, name, length):
        return self._write(name, budget_table(length))
