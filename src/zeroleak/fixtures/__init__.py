"""Named example graphs: parametric builders, and JSON for the rest.

`fixture:NAME` on the command line resolves here.  The parametric patterns
c<n> (cycle), k<n> (complete), e<n> (edgeless) and p<n> (path) are built;
only the graphs no pattern makes (`fig1`, `fig1_theta`, `petersen`) ship as
JSON files, so each name has one source.  A parametric fixture checks the
number of edges it is about to list against a `fixture_edges` meter first,
so a huge n fails at once instead of allocating.
"""

from __future__ import annotations

import json
import os

from ..budget import WorkMeter
from ..errors import DomainError
from ..graphs import Graph, make_graph
from ..jsonio import graph_from_obj

SHIPPED = ("fig1", "fig1_theta", "petersen")
# the example corpus, in name order
CORPUS = ("c5", "c7", "e1", "e2", "e3", "e5", "fig1", "fig1_theta", "k2", "k3", "k4", "k5", "p3", "petersen")


def _edge_guard(edges: int) -> None:
    WorkMeter("fixture_edges").check_size(edges, "fixture edge list")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError("bad_fixture_size", f"a cycle needs at least 3 vertices, got {n}")
    _edge_guard(n)
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise DomainError("bad_fixture_size", f"a complete graph needs at least 1 vertex, got {n}")
    _edge_guard(n * (n - 1) // 2)
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edgeless_graph(n: int) -> Graph:
    if n < 1:
        raise DomainError("bad_fixture_size", f"an edgeless graph needs at least 1 vertex, got {n}")
    return make_graph(n, [])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise DomainError("bad_fixture_size", f"a path needs at least 1 vertex, got {n}")
    _edge_guard(n - 1)
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def _load_shipped(name: str) -> Graph:
    # read beside this module: importing importlib.resources would slow every CLI start
    with open(os.path.join(os.path.dirname(__file__), f"{name}.json"), encoding="utf-8") as f:
        return graph_from_obj(json.load(f))


def resolve_fixture(name: str) -> Graph:
    """Look up a fixture by name: a shipped file or a parametric pattern."""
    if name in SHIPPED:
        return _load_shipped(name)
    kind, digits = name[:1], name[1:]
    if digits.isdigit():
        n = int(digits)
        if kind == "c":
            return cycle_graph(n)
        if kind == "k":
            return complete_graph(n)
        if kind == "e":
            return edgeless_graph(n)
        if kind == "p":
            return path_graph(n)
    raise DomainError("unknown_fixture", f"no fixture named {name!r}", {"known": list(CORPUS)})


def fixture_corpus() -> tuple[tuple[str, Graph], ...]:
    """Every corpus fixture, by name, in name order."""
    return tuple((name, resolve_fixture(name)) for name in CORPUS)
