import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from zeroleak import (
    DomainError,
    GuessBudget,
    approx_guess_bounds,
    covering_number,
    fixture_corpus,
    fractional_chromatic,
    fractional_covering,
    fractional_packing,
    make_graph,
    make_hypergraph,
    maximal_independent_sets,
    maximin_eta,
    multi_approx_guess_bounds,
    or_power,
    resolve_fixture,
)
from zeroleak import budget, programs
from zeroleak.lp import solve_lp
from zeroleak.programs import fractional_cover
from helpers import (
    brute_chi_f,
    brute_covering_number,
    brute_eta,
    brute_fractional_covering,
    brute_mis,
    brute_packing,
    k22,
)


def test_chromatic_frozen_values():
    expected = {
        "c5": Fraction(5, 2),
        "c7": Fraction(7, 3),
        "p3": Fraction(2),
        "k2": Fraction(2),
        "k3": Fraction(3),
        "k4": Fraction(4),
        "k5": Fraction(5),
        "e1": Fraction(1),
        "e3": Fraction(1),
        "fig1": Fraction(2),
        "petersen": Fraction(5, 2),
    }
    for name, value in expected.items():
        assert fractional_chromatic(resolve_fixture(name)).value == value


def test_chromatic_against_grid_search():
    for name, denominator in (("c5", 2), ("k3", 1), ("p3", 1), ("fig1", 1)):
        g = resolve_fixture(name)
        sets = brute_mis(g)
        assert fractional_chromatic(g).value == brute_chi_f(g, sets, denominator)


def test_chromatic_weights_are_a_feasible_cover():
    for name in ("c5", "c7", "petersen", "p3"):
        g = resolve_fixture(name)
        result = fractional_chromatic(g)
        assert sum(result.weights) == result.value
        for x in range(g.vertex_count):
            cover = sum(w for s, w in zip(result.sets, result.weights) if x in s)
            assert cover >= 1


def test_eta_frozen_values():
    assert maximin_eta(resolve_fixture("c5")).value == Fraction(2, 5)
    assert maximin_eta(resolve_fixture("k4")).value == Fraction(1, 4)
    assert maximin_eta(resolve_fixture("p3")).value == Fraction(1, 2)
    assert maximin_eta(resolve_fixture("petersen")).value == Fraction(2, 5)


def test_eta_against_grid_search():
    c5 = resolve_fixture("c5")
    assert maximin_eta(c5).value == brute_eta(c5, brute_mis(c5), 5)
    p3 = resolve_fixture("p3")
    assert maximin_eta(p3).value == brute_eta(p3, brute_mis(p3), 2)


def test_eta_weights_sum_to_one_and_attain_floor():
    for name in ("c5", "c7", "fig1", "k5"):
        g = resolve_fixture(name)
        result = maximin_eta(g)
        assert sum(result.weights) == 1
        floor = min(
            sum(w for s, w in zip(result.sets, result.weights) if x in s)
            for x in range(g.vertex_count)
        )
        assert floor == result.value


def test_duality_spot_checks():
    rng = random.Random(31)
    graphs = [resolve_fixture(n) for n in ("c5", "c7", "p3", "fig1", "petersen", "e3")]
    for _ in range(25):
        n = rng.randint(1, 6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        graphs.append(make_graph(n, edges))
    for g in graphs:
        assert maximin_eta(g).value * fractional_chromatic(g).value == 1


def test_chromatic_of_the_petersen_or_square_fits_a_small_budget(monkeypatch):
    # 100 vertices and 225 sets: 2,817 MIS search nodes and 139 pivots fit
    # in 4,096 units of every meter
    monkeypatch.setenv("ZEROLEAK_BUDGET", "4096")
    square = or_power(resolve_fixture("petersen"), 2)
    assert fractional_chromatic(square).value == Fraction(25, 4)


@pytest.mark.parametrize(
    "solve, pivots, value",
    [
        (lambda: fractional_chromatic(or_power(resolve_fixture("petersen"), 2)), 139, Fraction(25, 4)),
        (lambda: maximin_eta(or_power(resolve_fixture("c5"), 2)), 32, Fraction(4, 25)),
        (lambda: fractional_packing(resolve_fixture("petersen")), 11, Fraction(5, 2)),
        (lambda: fractional_covering(make_hypergraph(range(7), [(i, (i + 1) % 7) for i in range(7)])),
         7, Fraction(7, 2)),
        (lambda: fractional_chromatic(or_power(resolve_fixture("c5"), 3)), 218, Fraction(125, 8)),
        (lambda: maximin_eta(or_power(resolve_fixture("c5"), 3)), 495, Fraction(8, 125)),
        (lambda: maximin_eta(or_power(resolve_fixture("c7"), 2)), 157, Fraction(9, 49)),
    ],
    ids=[
        "chif_petersen_or_square", "maximin_c5_or_square", "packing_petersen", "covering_c7_edges",
        "chif_c5_or_cube", "maximin_c5_or_cube", "maximin_c7_or_square",
    ],
)
def test_each_program_spends_its_pinned_pivots(monkeypatch, solve, pivots, value):
    # Bland's rule on the same integer program takes the same pivots; a
    # change to how a program is built or solved that moves them shows here
    spent = Counter()
    spend = budget.WorkMeter.spend

    def counted(self, amount=1):
        spent[self.name] += amount
        return spend(self, amount)

    monkeypatch.setattr(budget.WorkMeter, "spend", counted)
    assert solve().value == value
    assert spent["lp_pivots"] == pivots


def test_covering_triangle():
    h = make_hypergraph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    result = fractional_covering(h)
    assert result.value == Fraction(3, 2)
    assert result.value == brute_fractional_covering(h, 2)
    for v in h.vertex_ids:
        assert sum(w for e, w in zip(h.hyperedges, result.weights) if v in e) >= 1
    assert covering_number(h) == 2
    assert brute_covering_number(h) == 2


def test_covering_full_edge_shortcut():
    h = make_hypergraph([0, 1, 2], [(0, 1), (0, 1, 2), (2,)])
    result = fractional_covering(h)
    assert result.value == 1
    assert result.weights == (Fraction(0), Fraction(1), Fraction(0))
    assert covering_number(h) == 1


def test_covering_exposed_vertex():
    h = make_hypergraph([0, 1], [(0,)])
    with pytest.raises(DomainError) as e:
        fractional_covering(h)
    assert e.value.code == "exposed_vertex"
    assert e.value.detail == {"vertex": 1}
    with pytest.raises(DomainError):
        covering_number(h)


def test_covering_random_instances_against_brute_force():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 5)
        vertices = list(range(n))
        edges = []
        for _ in range(rng.randint(1, 5)):
            e = tuple(sorted(rng.sample(vertices, rng.randint(1, n))))
            edges.append(e)
        for v in vertices:  # keep every vertex covered
            if not any(v in e for e in edges):
                edges.append((v,))
        h = make_hypergraph(vertices, edges)
        assert covering_number(h) == brute_covering_number(h)
        lp = fractional_covering(h)
        assert lp.value <= covering_number(h)
        assert lp.value == brute_fractional_covering(h, 4)


def _rank_masks(h):
    rank = {v: r for r, v in enumerate(h.vertex_ids)}
    return (1 << len(rank)) - 1, tuple(sum(1 << rank[v] for v in e) for e in h.hyperedges)


def test_covering_cache_respects_vertex_names(monkeypatch):
    # one shape under different ids, and in another edge order, goes through
    # one cache: one LP, and the weights land on the right edges
    solves = []
    monkeypatch.setattr(programs, "solve_lp", lambda program: solves.append(program) or solve_lp(program))
    a = make_hypergraph([0, 1, 2], [(0, 1), (1,), (2,)])
    b = make_hypergraph([10, 20, 30], [(10, 20), (20,), (30,)])
    universe, edges = _rank_masks(a)
    assert _rank_masks(b) == (universe, edges)
    shuffled = (edges[2], edges[0], edges[1])
    cache = {}
    results = [fractional_cover(e, cache) for e in (edges, edges, shuffled)]
    assert len(solves) == 1 and len(cache) == 1
    assert results[0] == results[1] == (Fraction(2), (Fraction(1), Fraction(0), Fraction(1)))
    assert results[2] == (Fraction(2), (Fraction(1), Fraction(1), Fraction(0)))
    for v in b.vertex_ids:
        assert sum(w for e, w in zip(b.hyperedges, results[1][1]) if v in e) >= 1


def test_covering_the_empty_hypergraph_takes_the_empty_cover():
    h = make_hypergraph([], [])
    assert fractional_covering(h) == (Fraction(0), ())
    assert covering_number(h) == 0


def test_no_module_level_container_in_programs_grows():
    def sizes():
        return {
            name: len(value)
            for name, value in vars(programs).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        }

    before = sizes()
    fig1, theta = resolve_fixture("fig1"), resolve_fixture("fig1_theta")
    for g in (resolve_fixture("c5"), resolve_fixture("petersen")):
        h = make_hypergraph(range(g.vertex_count), maximal_independent_sets(g))
        fractional_covering(h)
        covering_number(h)
        approx_guess_bounds(g, g)
        multi_approx_guess_bounds(g, g, GuessBudget.table((1, 1), growth=1))
    multi_approx_guess_bounds(fig1, theta, GuessBudget.constant(1))
    assert sizes() == before


def test_integer_cover_of_mis_hypergraph_dominates_chromatic():
    for name in ("c5", "c7", "p3", "fig1", "petersen"):
        g = resolve_fixture(name)
        from zeroleak import maximal_independent_sets

        sets = maximal_independent_sets(g)
        h = make_hypergraph(range(g.vertex_count), sets)
        assert covering_number(h) >= fractional_chromatic(g).value


def test_packing_values():
    assert fractional_packing(resolve_fixture("p3")).value == 1
    assert fractional_packing(resolve_fixture("fig1_theta")).value == 2
    assert fractional_packing(resolve_fixture("c5")).value == Fraction(5, 3)
    assert fractional_packing(resolve_fixture("k4")).value == 1
    assert fractional_packing(resolve_fixture("petersen")).value == Fraction(5, 2)
    assert fractional_packing(resolve_fixture("e3")).value == 3


def test_packing_against_grid_search():
    for name, denominator in (("p3", 1), ("fig1_theta", 1), ("c5", 3), ("k4", 1)):
        g = resolve_fixture(name)
        assert fractional_packing(g).value == brute_packing(g, denominator)


def test_packing_weights_feasible():
    for name in ("c5", "c7", "petersen", "p3"):
        g = resolve_fixture(name)
        result = fractional_packing(g)
        assert sum(result.weights) == result.value
        from zeroleak import closed_neighborhood

        for x in range(g.vertex_count):
            assert sum(result.weights[v] for v in closed_neighborhood(g, x)) <= 1


def test_uncapped_weights_stay_at_most_one():
    # the programs carry no [0, 1] caps; the optimum must never need them
    for _name, g in fixture_corpus():
        weights = (
            fractional_chromatic(g).weights + maximin_eta(g).weights + fractional_packing(g).weights
        )
        assert all(0 <= w <= 1 for w in weights)


def test_packing_empty_graph():
    with pytest.raises(DomainError) as e:
        fractional_packing(make_graph(0, []))
    assert e.value.code == "empty_graph"


def test_packing_on_k22_fixture_helper():
    # closed neighborhoods in K_{2,2} are 3-sets; symmetric optimum 4/3
    assert fractional_packing(k22()).value == Fraction(4, 3)


def _presolve_by_pairs(width, edges):
    # the presolve as quadratic scans over pairs of edges and of vertices
    keep_edges = [i for i, e in enumerate(edges) if not any(e & f == e != f for f in edges)]
    incidence = [0] * width
    for j, i in enumerate(keep_edges):
        for v in range(width):
            if edges[i] >> v & 1:
                incidence[v] |= 1 << j
    keep_vertices = 0
    for v, mine in enumerate(incidence):
        dominated = any(
            other & mine == other and (other != mine or w < v)
            for w, other in enumerate(incidence)
            if w != v
        )
        if not dominated:
            keep_vertices |= 1 << v
    return keep_vertices, keep_edges


@st.composite
def _covering_instances(draw):
    width = draw(st.integers(min_value=0, max_value=9))
    masks = st.integers(min_value=0, max_value=(1 << width) - 1)
    edges = draw(st.lists(masks, max_size=10))
    # repeated edges, which the presolve must keep together
    repeats = draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    return width, tuple(draw(st.permutations(edges + repeats)))


@settings(deadline=None, max_examples=300)
@given(_covering_instances())
@example((3, (0b011, 0b011, 0b001)))  # a duplicated superset
@example((3, (0, 0, 0b100)))  # empty edges, and vertices in no edge
@example((4, (0b0011, 0b1100, 0b0011, 0b1100)))  # vertices with equal incidence
def test_the_presolve_by_masks_equals_the_scans_by_pairs(case):
    width, edges = case
    assert programs._presolve(width, edges) == _presolve_by_pairs(width, edges)
