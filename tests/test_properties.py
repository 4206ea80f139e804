import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from zeroleak import (
    GuessFamily,
    StochasticMapping,
    fractional_chromatic,
    b_fold_coloring_from_weights,
    generate_valid_mapping,
    independence_number,
    make_graph,
    maximal_independent_sets,
    maximal_leakage,
    maximin_eta,
    merge_codewords,
    mis_of_or_power,
    resolve_fixture,
    rho_fixed_px,
    validate_mapping,
)
from zeroleak.jsonio import (
    canonical_json_bytes,
    graph_from_obj,
    mapping_from_obj,
    mapping_to_obj,
)
from zeroleak import oracle
from zeroleak.errors import ResourceBudgetError
from zeroleak.oracle import _first_mergeable_pair, verify_mergeability_closure
from zeroleak.rationals import format_ratio
from zeroleak.graphs import Graph, and_product, or_power, or_product

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@st.composite
def graphs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return make_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@given(graphs())
def test_duality_holds_on_random_graphs(g):
    assert maximin_eta(g).value * fractional_chromatic(g).value == 1


@given(graphs())
def test_chromatic_between_ratio_and_size(g):
    chi = fractional_chromatic(g).value
    n = g.vertex_count
    alpha = independence_number(g)
    assert Fraction(n, alpha) <= chi <= n
    assert (chi == 1) == (len(g.edges) == 0)


@given(graphs(max_n=9))
def test_independence_number_is_the_longest_mis(g):
    assert independence_number(g) == max(map(len, maximal_independent_sets(g)))


@given(graphs())
def test_mis_members_are_independent_and_maximal(g):
    sets = maximal_independent_sets(g)
    assert len(set(sets)) == len(sets)
    for s in sets:
        members = set(s)
        assert not any(g.has_edge(u, v) for u in members for v in members if u < v)
        for v in range(g.vertex_count):
            if v not in members:
                assert any(g.has_edge(v, u) for u in members)  # cannot be extended


@given(graphs())
def test_every_vertex_is_in_some_mis(g):
    sets = maximal_independent_sets(g)
    for v in range(g.vertex_count):
        assert any(v in s for s in sets)


@given(
    graphs(),
    st.lists(
        st.fractions(min_value=0, max_value=2, max_denominator=4),
        min_size=0,
        max_size=12,
    ),
)
def test_b_fold_coloring_covers_exactly_b(g, bumps):
    chromatic = fractional_chromatic(g)
    weights = list(chromatic.weights)
    for i, bump in enumerate(bumps[: len(weights)]):
        weights[i] += bump  # over-provisioned but still feasible
    b, family = b_fold_coloring_from_weights(g, weights)
    assert b >= 1
    for x in range(g.vertex_count):
        assert family.coverage(x) == b


@given(graphs(max_n=4), st.integers(min_value=0, max_value=10**6))
def test_random_schemes_are_valid_and_rho_is_at_least_one(g, seed):
    rng = random.Random(seed)
    m = generate_valid_mapping(g, 1, 3, rng)
    assert validate_mapping(m, g).ok
    fam = GuessFamily.singleton(g, 1)
    px = [Fraction(1, g.vertex_count)] * g.vertex_count
    value = rho_fixed_px(m, px, fam)
    assert 1 <= value <= maximal_leakage(m).log2_of


@given(graphs(max_n=4), st.integers(min_value=0, max_value=10**6))
def test_rho_at_skewed_priors_stays_at_least_one(g, seed):
    rng = random.Random(seed)
    m = generate_valid_mapping(g, 1, 2, rng)
    fam = GuessFamily.singleton(g, 1)
    parts = [rng.randint(1, 5) for _ in range(g.vertex_count)]
    total = sum(parts)
    value = rho_fixed_px(m, [Fraction(k, total) for k in parts], fam)
    assert value >= 1


@given(st.integers(min_value=0, max_value=10**6))
def test_merging_never_raises_leakage(seed):
    g = resolve_fixture("c5")
    rng = random.Random(seed)
    m = generate_valid_mapping(g, 1, 4, rng, duplicate_codebook=True)
    before = maximal_leakage(m).log2_of
    product = or_power(g, 1)
    pair = _first_mergeable_pair(m, product)
    assert pair is not None  # duplicated codebook always leaves a merge
    merged = merge_codewords(m, m.codewords[pair[0]], m.codewords[pair[1]], g)
    assert validate_mapping(merged, g).ok
    assert maximal_leakage(merged).log2_of <= before


def _merge_chain(g, t, r, seed):
    """Merge the first mergeable pair until none is left; yield (mapping, its resumed-scan pair, product)."""
    m = generate_valid_mapping(g, t, r, random.Random(seed), duplicate_codebook=True)
    product = or_power(g, t)
    pair = (0, 1)
    while True:
        pair = _first_mergeable_pair(m, product, pair)
        yield m, pair, product
        if pair is None:
            return
        m = merge_codewords(m, m.codewords[pair[0]], m.codewords[pair[1]], g)


@settings(max_examples=40)
@given(graphs(), st.integers(min_value=1, max_value=2), st.integers(1, 4), st.integers(0, 10**6))
def test_merges_equal_the_fully_checked_mapping(g, t, r, seed):
    for m, _, _ in _merge_chain(g, t, r, seed):
        checked = StochasticMapping(m.t, m.codewords, m.denominator, m.counts)
        assert m == checked and hash(m) == hash(checked)
        assert (m.denominator, m.counts) == (checked.denominator, checked.counts)
        # the carried supports are the masks read off the counts
        assert m.supports == checked.supports


def _reference_scheme(g, t, r, rng, duplicate_codebook):
    """A random scheme dealt the first way: codeword names built per call, `randrange` per unit."""
    copies = ("#1", "#2") if duplicate_codebook else ("",)
    names, holders = [], [[] for _ in range(g.vertex_count**t)]
    for s in mis_of_or_power(g, t):
        base = "+".join(str(v) for v in s)
        for copy in copies:
            for x in s:
                holders[x].append(len(names))
            names.append(base + copy)
    rows = []
    for containing in holders:
        counts = [0] * len(names)
        for _ in range(r):
            counts[containing[rng.randrange(len(containing))]] += 1
        rows.append(tuple(counts))
    return StochasticMapping(t, tuple(names), r, tuple(rows))


@settings(max_examples=60)
@given(graphs(), st.integers(1, 2), st.integers(1, 4), st.booleans(), st.integers(0, 10**6))
def test_schemes_are_dealt_from_the_reference_stream(g, t, r, duplicate, seed):
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(2):
        m = generate_valid_mapping(g, t, r, ours, duplicate)
        assert m == _reference_scheme(g, t, r, reference, duplicate)
    assert ours.getstate() == reference.getstate()


def test_the_codebook_cache_is_bounded_and_answers_alike():
    names = ("c5", "c7", "p3", "k3", "petersen", "fig1", "e3")
    cases = [(resolve_fixture(name), t) for name in names for t in (1, 2)]
    slots = oracle._codebook.cache_info().maxsize
    assert len(cases) > slots
    dealt = [generate_valid_mapping(g, t, 3, random.Random(i), True) for i, (g, t) in enumerate(cases)]
    assert oracle._codebook.cache_info().currsize <= slots
    for i, (g, t) in reversed(list(enumerate(cases))):
        again = generate_valid_mapping(g, t, 3, random.Random(i), True)
        assert again == dealt[i] == _reference_scheme(g, t, 3, random.Random(i), True)
    assert oracle._codebook.cache_info().currsize <= slots


def test_a_cached_codebook_still_meets_a_smaller_budget(monkeypatch):
    # C5 at t=2: 25 product sets of up to 4 members, 150 mis_enumeration
    # units, against 25 * 4 = 100 scheme units
    c5 = resolve_fixture("c5")
    generate_valid_mapping(c5, 2, 4, random.Random(0))
    monkeypatch.setenv("ZEROLEAK_BUDGET", "120")
    with pytest.raises(ResourceBudgetError) as e:
        generate_valid_mapping(c5, 2, 4, random.Random(0))
    assert e.value.detail["budget"] == "mis_enumeration"


def _fraction_closure(g, t, trials, seed, r=4):
    """The merge chain's worst step, merge count and failing trial, in Fractions.

    It calls the oracle module's bindings, so a test that patches them
    patches both routes.
    """
    rng = random.Random(seed)
    product = or_power(g, t)
    worst_step, merges = Fraction(0), 0
    for trial in range(trials):
        m = generate_valid_mapping(g, t, r, rng, duplicate_codebook=True)
        value = maximal_leakage(m).log2_of
        pair = (0, 1)
        while (pair := _first_mergeable_pair(m, product, pair)) is not None:
            merged = oracle.merge_codewords(m, m.codewords[pair[0]], m.codewords[pair[1]], g)
            merged_value = maximal_leakage(merged).log2_of
            merges += 1
            worst_step = max(worst_step, merged_value / value)
            if merged_value > value or not oracle.validate_mapping(merged, g):
                return worst_step, merges, trial
            m, value = merged, merged_value
    return worst_step, merges, None


def _sabotaged(kind, at):
    """Patches for the oracle: its call number `at` to merge_codewords returns
    the identity scheme, whose leakage is the top one, or to validate_mapping
    reports a fault."""
    calls = [0]
    real = getattr(oracle, kind)

    def patched(m, *args):
        calls[0] += 1
        if calls[0] != at:
            return real(m, *args)
        if kind == "validate_mapping":
            return False
        n = m.source_count
        identity = tuple(tuple(int(x == y) for y in range(n)) for x in range(n))
        return StochasticMapping(m.t, tuple(map(str, range(n))), 1, identity)

    return patched


@settings(max_examples=60)
@given(
    graphs(max_n=4),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.sampled_from([None, "merge_codewords", "validate_mapping"]),
    st.integers(1, 6),
)
def test_the_integer_merge_chain_equals_the_fraction_one(g, t, trials, seed, kind, at):
    routes = []
    for route in (verify_mergeability_closure, _fraction_closure):
        with pytest.MonkeyPatch.context() as patch:
            if kind is not None:
                patch.setattr(oracle, kind, _sabotaged(kind, at))
            routes.append(route(g, t, trials, seed))
    report, (worst_step, merges, failure) = routes
    assert report["lhs"] == format_ratio(worst_step)
    assert report["witness"]["merges"] == merges
    assert report["status"] == ("pass" if failure is None else "fail")
    assert report["witness"].get("trial") == failure


def test_a_merge_reduces_by_the_gcd():
    half = StochasticMapping(1, ("a", "b"), 2, ((1, 1),))
    merged = merge_codewords(half, "a", "b", make_graph(1, []))
    assert (merged.codewords, merged.denominator, merged.counts) == (("(a&b)",), 1, ((1,),))
    assert merged.supports == (1,)


@settings(max_examples=40)
@given(graphs(), st.integers(min_value=1, max_value=2), st.integers(1, 4), st.integers(0, 10**6))
def test_the_resumed_pair_scan_equals_a_full_scan(g, t, r, seed):
    for m, pair, product in _merge_chain(g, t, r, seed):
        assert pair == _first_mergeable_pair(m, product)


@given(graphs())
def test_graph_json_roundtrip(g):
    obj = json.loads(canonical_json_bytes(g))
    assert graph_from_obj(obj) == g


@given(graphs(max_n=4), st.integers(min_value=0, max_value=10**6))
def test_mapping_json_roundtrip(g, seed):
    m = generate_valid_mapping(g, 1, 4, random.Random(seed))
    obj = json.loads(canonical_json_bytes(mapping_to_obj(m)))
    assert mapping_from_obj(obj) == m


@given(graphs())
def test_canonical_json_is_stable(g):
    first = canonical_json_bytes(g)
    second = canonical_json_bytes(graph_from_obj(json.loads(first)))
    assert first == second


def _stdlib_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


@st.composite
def _graphs_to_write(draw):
    """Graphs on 0-40 vertices at a drawn edge density, labelled or not."""
    n = draw(st.integers(0, 40))
    density = draw(st.sampled_from([0.0, 0.03, 0.1, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    labels = draw(st.none() | st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True))
    return make_graph(n, edges, labels)


def _nest(value, path):
    """value inside dicts (str keys) and lists, outermost first."""
    for key in reversed(path):
        value = [1, value, "x"] if key is None else {key: value, "z": [[0, 1]]}
    return value


@given(_graphs_to_write(), st.lists(st.none() | st.sampled_from(["a", "graph", "é"]), max_size=3))
@example(make_graph(40, [(0, 39), (0, 20), (1, 38), (2, 3)]), [])  # sparse rows, far neighbours
@example(make_graph(40, list(itertools.combinations(range(40), 2)), [f"é{v}" for v in range(40)]), ["graph", None])
@example(make_graph(33, [(0, v) for v in range(1, 33, 2)] + [(1, 32)]), [None, None, None])  # one dense row
def test_canonical_json_bytes_of_a_graph_are_the_stdlib_bytes(g, path):
    obj = {"n": g.vertex_count, "edges": [[a, b] for a, b in sorted(g.edges)]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    assert canonical_json_bytes(_nest(g, path)) == _stdlib_bytes(_nest(obj, path))


_ints = st.one_of(st.integers(-5, 5), st.integers(), st.integers(-(10**40), 10**40))
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    st.floats(),
    st.just(-0.0),
    st.just(float("nan")),
    st.text(),
    st.text(alphabet='"\\\x00\x01\x1f\x7f\n\t,[]{}E: é€😀\u2028'),
)
_json_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children),
        st.dictionaries(st.text(), children),
        st.dictionaries(st.integers(), children, max_size=3),
        st.lists(_ints),
        st.lists(st.lists(_ints)),
        st.lists(st.one_of(_ints, st.booleans())),
        st.lists(st.lists(st.one_of(_ints, st.booleans(), st.none()))),
        st.lists(st.text()),
        st.lists(st.lists(st.text())),
        st.lists(st.lists(st.one_of(st.text(), _ints))),
        st.tuples(_ints, _ints),
        st.sampled_from([[], [[]], {}, [[], [1]], [[1], []], [{}], [[[]]], [[1, [2]]]]),
    ),
    max_leaves=40,
)


@given(_json_trees)
def test_canonical_json_bytes_are_the_stdlib_bytes(obj):
    assert canonical_json_bytes(obj) == _stdlib_bytes(obj)


def test_canonical_json_bytes_of_deep_nesting():
    obj = 7
    for depth in range(300):
        obj = [obj, [depth, -depth]] if depth % 2 else {"k": obj, "ints": [[depth]], "s": ["a\\"]}
    assert canonical_json_bytes(obj) == _stdlib_bytes(obj)


@given(
    st.integers(min_value=2, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    )
)
def test_decoding_pair_lists_equals_make_graph(case):
    n, pairs = case
    pairs = [(u, v) for u, v in pairs if u != v]
    g = graph_from_obj({"n": n, "edges": [[u, v] for u, v in pairs]})
    assert g == make_graph(n, pairs)
    assert g.edges == {(min(p), max(p)) for p in pairs}
    assert Graph(n, g.rows) == g


@given(graphs(max_n=4), graphs(max_n=4))
def test_products_pass_the_public_validator(g, h):
    for product in (or_product, and_product):
        p = product(g, h)
        assert Graph(p.vertex_count, p.rows) == p
