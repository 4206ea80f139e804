import itertools
import random

import pytest

from zeroleak import (
    DomainError,
    Graph,
    ResourceBudgetError,
    and_power,
    and_product,
    associated_hypergraph,
    closed_neighborhood,
    decode_index,
    encode_symbols,
    fixture_corpus,
    independence_number,
    is_vertex_transitive,
    make_family,
    make_graph,
    make_hypergraph,
    maximal_independent_sets,
    mis_of_or_power,
    or_power,
    or_product,
    resolve_fixture,
)
from zeroleak.graphs import _power_by_squaring, first_edge_within, product_sets, product_traces
from helpers import (
    all_graphs,
    brute_hypergraph_edges,
    brute_mis,
    brute_product_sets,
    connected_graphs,
    coordinate_product,
    k22,
)


def test_make_graph_normalizes_edges():
    g = make_graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert g.has_edge(2, 0) and g.has_edge(0, 2)
    assert not g.has_edge(0, 1)


def test_graph_from_rows_checks_the_rows():
    g = Graph(3, (0b110, 0b001, 0b001), ("a", "b", "c"))
    assert g == make_graph(3, [(0, 1), (0, 2)], ("a", "b", "c"))
    assert g.edges == frozenset({(0, 1), (0, 2)}) and g.edge_count == 2
    bad = [
        ((0b010, 0b000), "bad_rows"),  # asymmetric
        ((0b011, 0b001), "self_loop"),
        ((0b110, 0b001), "bad_edge"),  # bit 2 names no vertex of a 2-vertex graph
        ((0b10,), "bad_rows"),  # one row for two vertices
        ((0b10, 0b01, 0), "bad_rows"),
        ([0b10, 0b01], "bad_rows"),  # not a tuple
        ((-2, -3), "bad_rows"),
    ]
    for rows, code in bad:
        with pytest.raises(DomainError) as e:
            Graph(2, rows)
        assert e.value.code == code, rows
    with pytest.raises(DomainError) as e:
        Graph(-1, ())
    assert e.value.code == "bad_vertex_count"


def test_make_graph_rejects_bad_input():
    with pytest.raises(DomainError) as e:
        make_graph(-1, [])
    assert e.value.code == "bad_vertex_count"
    with pytest.raises(DomainError) as e:
        make_graph(2, [(0, 2)])
    assert e.value.code == "bad_edge"
    with pytest.raises(DomainError) as e:
        make_graph(2, [(1, 1)])
    assert e.value.code == "self_loop"
    # endpoints are exact ints, and a pair unpacks into two of them
    for pair in ((0, True), (0, 1.0), (0, 1, 1), 5):
        with pytest.raises(DomainError) as e:
            make_graph(2, [(0, 1), pair])
        assert (e.value.code, e.value.message) == ("bad_edge", f"edge endpoints must be integers, got {pair!r}")
    with pytest.raises(DomainError) as e:
        make_graph(2, [], labels=("a",))
    assert e.value.code == "bad_labels"
    with pytest.raises(DomainError) as e:
        make_graph(2, [], labels=("a", "a"))
    assert e.value.code == "bad_labels"


def test_encode_decode_roundtrip():
    for base in (2, 3, 5):
        for t in (1, 2, 3):
            for index in range(base**t):
                symbols = decode_index(index, t, base)
                assert len(symbols) == t
                assert encode_symbols(symbols, base) == index
    # big-endian: first symbol is the most significant digit
    assert encode_symbols((1, 0), 5) == 5
    assert decode_index(7, 2, 5) == (1, 2)


def test_or_product_matches_definition():
    # adjacent iff adjacent in at least one coordinate, distinct overall
    rng = random.Random(7)
    for _ in range(20):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        g = _random_graph(rng, n1)
        h = _random_graph(rng, n2)
        p = or_product(g, h)
        assert p.vertex_count == n1 * n2
        for a in range(p.vertex_count):
            for b in range(p.vertex_count):
                if a == b:
                    continue
                a1, a2 = divmod(a, n2)
                b1, b2 = divmod(b, n2)
                expect = (a1 != b1 and g.has_edge(a1, b1)) or (
                    a2 != b2 and h.has_edge(a2, b2)
                )
                assert p.has_edge(a, b) == expect


def test_and_product_matches_definition():
    # adjacent iff every coordinate is equal or adjacent, distinct overall
    rng = random.Random(11)
    for _ in range(20):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        g = _random_graph(rng, n1)
        h = _random_graph(rng, n2)
        p = and_product(g, h)
        for a in range(p.vertex_count):
            for b in range(p.vertex_count):
                if a == b:
                    continue
                a1, a2 = divmod(a, n2)
                b1, b2 = divmod(b, n2)
                expect = (a1 == b1 or g.has_edge(a1, b1)) and (
                    a2 == b2 or h.has_edge(a2, b2)
                )
                assert p.has_edge(a, b) == expect


def test_or_product_of_k2_pair_is_k4():
    k2 = resolve_fixture("k2")
    p = or_product(k2, k2)
    assert p.vertex_count == 4
    assert len(p.edges) == 6


def test_powers():
    c5 = resolve_fixture("c5")
    assert or_power(c5, 1) == c5
    assert or_power(c5, 2) == or_product(c5, c5)
    assert and_power(c5, 2) == and_product(c5, c5)
    with pytest.raises(DomainError) as e:
        or_power(c5, 0)
    assert e.value.code == "bad_power"


def test_closed_neighborhood():
    p3 = resolve_fixture("p3")
    assert closed_neighborhood(p3, 0) == frozenset({0, 1})
    assert closed_neighborhood(p3, 1) == frozenset({0, 1, 2})
    with pytest.raises(DomainError) as e:
        closed_neighborhood(p3, 3)
    assert e.value.code == "vertex_out_of_range"


def test_closed_neighborhood_of_and_power_is_product_of_neighborhoods():
    for theta in all_graphs(3):
        n = theta.vertex_count
        power = and_power(theta, 2)
        for x1 in range(n):
            for x2 in range(n):
                expect = frozenset(
                    u1 * n + u2
                    for u1 in closed_neighborhood(theta, x1)
                    for u2 in closed_neighborhood(theta, x2)
                )
                got = closed_neighborhood(power, x1 * n + x2)
                assert got == expect


def test_mis_against_brute_force():
    graphs = [
        resolve_fixture(name)
        for name in ("c5", "c7", "p3", "k4", "e3", "fig1", "petersen")
    ]
    rng = random.Random(23)
    graphs += [_random_graph(rng, rng.randint(1, 6)) for _ in range(30)]
    for g in graphs:
        assert maximal_independent_sets(g) == brute_mis(g)


def test_mis_frozen_values():
    c5 = resolve_fixture("c5")
    assert maximal_independent_sets(c5) == (
        (0, 2),
        (0, 3),
        (1, 3),
        (1, 4),
        (2, 4),
    )
    assert independence_number(c5) == 2
    assert independence_number(resolve_fixture("petersen")) == 4


def test_mis_rejects_empty_graph():
    for search in (maximal_independent_sets, independence_number):
        with pytest.raises(DomainError) as e:
            search(make_graph(0, []))
        assert e.value.code == "empty_graph"


def _longest_mis(g):
    return max(map(len, maximal_independent_sets(g)))


def test_independence_number_matches_enumeration():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert independence_number(g) == _longest_mis(g), g.edges
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randint(1, 14)
        density = rng.random()
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
        assert independence_number(g) == _longest_mis(g), g.edges
    for name, g in fixture_corpus():
        assert independence_number(g) == _longest_mis(g), name
    c5, petersen = resolve_fixture("c5"), resolve_fixture("petersen")
    for g, alpha in ((or_power(c5, 2), 4), (or_power(c5, 4), 16), (or_power(petersen, 2), 16)):
        assert independence_number(g) == _longest_mis(g) == alpha


def test_independence_number_units_are_pinned(monkeypatch):
    # n units for the greedy first set, then one unit per candidate scanned
    # per node; the counts fix the greedy set, the cover and the branch order
    c5, c7 = resolve_fixture("c5"), resolve_fixture("c7")
    pinned = [
        (make_graph(5, []), 10),
        (c5, 12),
        (c7, 18),
        (resolve_fixture("petersen"), 36),
        (or_power(c5, 2), 111),
        (or_power(c7, 2), 379),
    ]
    for g, units in pinned:
        monkeypatch.setenv("ZEROLEAK_BUDGET", str(units))
        independence_number(g)  # within budget
        monkeypatch.setenv("ZEROLEAK_BUDGET", str(units - 1))
        with pytest.raises(ResourceBudgetError) as e:
            independence_number(g)
        assert e.value.budget_name == "mis_enumeration"


def test_mis_of_or_power_matches_direct_enumeration():
    for name in ("c5", "k3", "p3"):
        g = resolve_fixture(name)
        direct = maximal_independent_sets(or_power(g, 2))
        assert mis_of_or_power(g, 2) == direct
    assert mis_of_or_power(k22(), 2) == maximal_independent_sets(or_power(k22(), 2))


def test_mis_of_or_power_squares_the_count():
    for name in ("c5", "k4", "p3"):
        g = resolve_fixture(name)
        assert len(mis_of_or_power(g, 2)) == len(maximal_independent_sets(g)) ** 2


def test_vertex_transitivity():
    assert is_vertex_transitive(resolve_fixture("c5"))
    assert is_vertex_transitive(resolve_fixture("k5"))
    assert is_vertex_transitive(resolve_fixture("petersen"))
    assert is_vertex_transitive(resolve_fixture("e3"))
    assert not is_vertex_transitive(resolve_fixture("p3"))
    assert not is_vertex_transitive(make_graph(4, [(0, 1), (0, 2), (0, 3)]))


def _brute_vertex_transitive(g):
    n = g.vertex_count
    images = {
        p[0]
        for p in itertools.permutations(range(n))
        if all(g.has_edge(p[u], p[v]) for u, v in g.edges)
    }
    return images == set(range(n))


def _cycles(*lengths):
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return make_graph(start, edges)


def test_vertex_transitivity_matches_a_search_over_all_permutations():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert is_vertex_transitive(g) == _brute_vertex_transitive(g), g.edges
    # regular but not vertex-transitive, then regular and vertex-transitive;
    # in the 4-regular graph on 8 vertices vertex 0 reaches every vertex by
    # maps that keep adjacency but are not one-to-one
    four_regular = make_graph(8, [
        (0, 1), (0, 2), (0, 3), (0, 6), (1, 2), (1, 4), (1, 5), (2, 3),
        (2, 7), (3, 4), (3, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    ])
    cases = ((_cycles(3, 4), False), (_cycles(3, 5), False), (four_regular, False), (_cycles(4, 4), True), (k22(), True))
    for g, expected in cases:
        assert is_vertex_transitive(g) == _brute_vertex_transitive(g) == expected, g.edges


def test_vertex_transitivity_cap():
    ring = make_graph(11, [(i, (i + 1) % 11) for i in range(11)])
    with pytest.raises(ResourceBudgetError) as e:
        is_vertex_transitive(ring)
    assert e.value.code == "budget_exceeded"
    assert e.value.detail["limit"] == 10


def test_hypergraph_validation():
    h = make_hypergraph([3, 1, 2], [(2, 1), (3,), (1, 2)])
    assert h.vertex_ids == (1, 2, 3)
    assert h.hyperedges == ((1, 2), (3,))
    assert make_hypergraph([1], [()]).hyperedges == ()  # empty edges dropped
    with pytest.raises(DomainError) as e:
        make_hypergraph([1], [(2,)])
    assert e.value.code == "bad_hypergraph"
    from zeroleak import Hypergraph

    with pytest.raises(DomainError) as e:
        Hypergraph((1,), ((),))
    assert e.value.code == "bad_hypergraph"
    with pytest.raises(DomainError) as e:
        Hypergraph((1, 1), ())
    assert e.value.code == "bad_hypergraph"


def test_family_collapses_and_sorts():
    fam = make_family([(1, 0), (0, 1), ()])
    assert fam.sets == ((), (0, 1))
    assert fam.multiplicities == (1, 2)
    assert fam.size == 3
    assert fam.coverage(0) == 2
    assert fam.coverage(2) == 0


def test_family_validation():
    from zeroleak import VertexSetFamily

    with pytest.raises(DomainError) as e:
        VertexSetFamily(((0, 1),), (1, 2))
    assert e.value.code == "bad_family"
    with pytest.raises(DomainError) as e:
        VertexSetFamily(((1, 0),), (1,))
    assert e.value.code == "bad_family"
    with pytest.raises(DomainError) as e:
        VertexSetFamily(((0,),), (0,))
    assert e.value.code == "bad_family"


def test_associated_hypergraph_small_case():
    # fig1 with the two-edge side channel: singleton independent sets,
    # closed neighborhoods are the side-channel pairs
    theta = resolve_fixture("fig1_theta")
    h = associated_hypergraph((0,), theta, 1)
    assert h.vertex_ids == (0,)
    assert h.hyperedges == ((0,),)
    h2 = associated_hypergraph((0, 2), theta, 1)
    assert h2.vertex_ids == (0, 2)
    assert h2.hyperedges == ((0,), (2,))


def test_associated_hypergraph_full_set_is_neighborhood_traces():
    p3 = resolve_fixture("p3")
    h = associated_hypergraph((0, 1, 2), p3, 1)
    assert h.vertex_ids == (0, 1, 2)
    assert h.hyperedges == ((0, 1), (0, 1, 2), (1, 2))
    with pytest.raises(DomainError) as e:
        associated_hypergraph((), p3, 1)
    assert e.value.code == "empty_vertex_set"


def _random_graph(rng, n):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.5
    ]
    return make_graph(n, edges)


def test_connected_graph_counts():
    # sanity for the exhaustive generators the acceptance tests lean on
    assert len(connected_graphs(1)) == 1
    assert len(connected_graphs(2)) == 1
    assert len(connected_graphs(3)) == 4
    assert len(connected_graphs(4)) == 38
    assert len(connected_graphs(5)) == 728


def test_products_match_the_coordinate_rule_on_fixture_pairs():
    corpus = [g for _, g in fixture_corpus() if g.vertex_count <= 7]
    for g in corpus:
        for h in corpus:
            for op, product in (("or", or_product), ("and", and_product)):
                p = product(g, h)
                assert p == coordinate_product(g, h, op)
                assert p.rows == make_graph(p.vertex_count, p.edges).rows


def test_powers_by_squaring_match_the_left_fold():
    for name in ("p3", "c5", "k2", "e2"):
        g = resolve_fixture(name)
        for power, product in ((or_power, or_product), (and_power, and_product)):
            fold = g
            for t in range(1, 6):
                assert power(g, t) == fold, (name, t)
                if t < 5:
                    fold = product(fold, g)
        sets = maximal_independent_sets(g)
        for t in range(1, 6):
            assert product_sets(sets, g.vertex_count, t) == [T for _, T in brute_product_sets(g, t)], (name, t)

    def kronecker(a, b):
        return [x * y for x in a for y in b]

    for vector in ([1], [2, 3], [3, 0, 5, 7]):
        fold = vector
        for t in range(1, 6):
            assert _power_by_squaring(vector, t, kronecker) == fold, (vector, t)
            fold = kronecker(fold, vector)


def test_product_guard_precedes_allocation():
    big = make_graph(1100, [])
    for product in (or_product, and_product):
        with pytest.raises(ResourceBudgetError) as e:
            product(big, big)
        assert e.value.budget_name == "graph_product"


def test_product_trace_guard_precedes_allocation(monkeypatch):
    # ten singleton traces per factor: 1000 traces of 1000 bits, 16 words each
    singletons = (10, tuple(1 << k for k in range(10)))
    monkeypatch.setenv("ZEROLEAK_BUDGET", "15999")
    with pytest.raises(ResourceBudgetError) as e:
        product_traces([singletons] * 3)
    assert e.value.budget_name == "trace_family"
    monkeypatch.setenv("ZEROLEAK_BUDGET", "16000")
    width, masks = product_traces([singletons] * 3)
    assert width == 1000 and masks == tuple(1 << k for k in range(1000))


def test_associated_hypergraph_matches_the_trace_definition():
    rng = random.Random(31)
    for name in ("c5", "p3", "fig1_theta", "k3", "petersen"):
        theta = resolve_fixture(name)
        for t in (1, 2):
            total = theta.vertex_count**t
            sets = [tuple(range(total)), *maximal_independent_sets(or_power(theta, t))[:3]]
            sets += [rng.sample(range(total), rng.randint(1, min(total, 6))) for _ in range(3)]
            for T in sets:
                h = associated_hypergraph(T, theta, t)
                assert h.vertex_ids == tuple(sorted(set(T)))
                assert h.hyperedges == brute_hypergraph_edges(T, theta, t)


def test_mis_enumeration_units_are_pinned(monkeypatch):
    # one unit per search node; the counts fix the pivot rule and branch order
    c7 = resolve_fixture("c7")
    pinned = [(resolve_fixture("c5"), 9), (c7, 16), (resolve_fixture("petersen"), 35), (or_power(c7, 2), 442)]
    for g, units in pinned:
        monkeypatch.setenv("ZEROLEAK_BUDGET", str(units))
        maximal_independent_sets.cache_clear()
        maximal_independent_sets(g)  # within budget
        monkeypatch.setenv("ZEROLEAK_BUDGET", str(units - 1))
        maximal_independent_sets.cache_clear()
        with pytest.raises(ResourceBudgetError) as e:
            maximal_independent_sets(g)
        assert e.value.budget_name == "mis_enumeration"
    maximal_independent_sets.cache_clear()


def test_first_edge_within_is_the_first_pair_of_an_ascending_scan():
    rng = random.Random(41)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 9))
        chosen = rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count))
        members = sorted(chosen)
        expect = next(
            ((a, b) for i, a in enumerate(members) for b in members[i + 1:] if g.has_edge(a, b)),
            None,
        )
        assert first_edge_within(g, sum(1 << v for v in chosen)) == expect
