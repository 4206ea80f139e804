import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zeroleak import (
    BoundsReport,
    DomainError,
    GuessBudget,
    ZeroleakError,
    LeakageValue,
    ResourceBudgetError,
    StochasticMapping,
    approx_guess_bounds,
    b_fold_coloring_from_weights,
    fractional_chromatic,
    generate_valid_mapping,
    leakage_rate,
    make_graph,
    make_hypergraph,
    make_mapping,
    maximal_independent_sets,
    maximin_eta,
    maximal_leakage,
    merge_codewords,
    multi_approx_guess_bounds,
    mis_of_or_power,
    multi_guess_bounds,
    optimal_leakage_t,
    optimal_scalar_mapping,
    or_power,
    resolve_fixture,
    validate_mapping,
)
from zeroleak import bounds, programs
from zeroleak.fixtures import fixture_corpus
from zeroleak.graphs import product_traces, trace_masks
from zeroleak.programs import min_cover_size
from helpers import brute_covering_number, brute_hypergraph_edges, brute_product_sets, k22


def test_leakage_value():
    v = LeakageValue(Fraction(5, 2))
    assert v.bits == pytest.approx(1.321928094887, abs=1e-12)
    assert LeakageValue(Fraction(1)).bits == 0.0
    with pytest.raises(DomainError) as e:
        LeakageValue(Fraction(1, 2))
    assert e.value.code == "bad_leakage_value"
    with pytest.raises(DomainError):
        LeakageValue(2.5)


def test_mapping_validation():
    with pytest.raises(DomainError) as e:
        make_mapping(0, ["y"], [["1/1"]])
    assert e.value.code == "bad_mapping"
    with pytest.raises(DomainError):
        make_mapping(1, [], [[]])
    with pytest.raises(DomainError):
        make_mapping(1, ["y", "y"], [["1/2", "1/2"]])
    with pytest.raises(DomainError):
        make_mapping(1, ["y", "z"], [["1/2"]])  # row width
    with pytest.raises(DomainError):
        make_mapping(1, ["y"], [["2/1"]])  # entry > 1
    with pytest.raises(DomainError):
        make_mapping(1, ["y", "z"], [["1/2", "1/4"]])  # row sum
    with pytest.raises(DomainError):
        make_mapping(1, ["y"], [["нет"]])  # unparseable


def test_make_mapping_keeps_the_first_fault_message():
    cases = [
        ([["2/1"]], ["y"], "row 0 entry Fraction(2, 1) outside [0, 1]"),
        ([["1/1", "0/1"], ["-1/3", "4/3"]], ["y", "z"], "row 1 entry Fraction(-1, 3) outside [0, 1]"),
        ([["1/2", "1/4"]], ["y", "z"], "row 0 sums to 3/4, not 1"),
        ([["1/1", "0/1"], ["1/3", "1/3"]], ["y", "z"], "row 1 sums to 2/3, not 1"),
        # row order first: a short row 0 is reported before a bad entry in row 1
        ([["1/1"], ["3/2", "0/1"]], ["y", "z"], "row 0 has 1 entries for 2 codewords"),
    ]
    for rows, names, message in cases:
        with pytest.raises(DomainError) as e:
            make_mapping(1, names, rows)
        assert (e.value.code, e.value.message) == ("bad_mapping", message)


def test_common_denominator_growth_is_metered(monkeypatch):
    # 20 unrelated 71-bit denominators: 40 counts of 22 words, 840 words beyond the first
    rows = [[Fraction(1, 2**70 + k), 1 - Fraction(1, 2**70 + k)] for k in range(1, 41, 2)]
    monkeypatch.setenv("ZEROLEAK_BUDGET", "800")
    with pytest.raises(ResourceBudgetError) as e:
        make_mapping(1, ["y", "z"], rows)
    assert e.value.budget_name == "mapping_counts"
    monkeypatch.setenv("ZEROLEAK_BUDGET", "1000")
    assert make_mapping(1, ["y", "z"], rows).rows == tuple(map(tuple, rows))


def test_constructor_checks_integer_counts():
    names = ("y", "z")
    cases = [
        (2, ((True, 1),), "row 0 entry True outside [0, 1]"),
        (2, ((1, 1), (1.0, 1)), "row 1 entry 1.0 outside [0, 1]"),
        (0, ((0, 0),), "denominator must be a positive integer, got 0"),
        (-2, ((-1, -1),), "denominator must be a positive integer, got -2"),
        (True, ((1, 0),), "denominator must be a positive integer, got True"),
        (2.0, ((1, 1),), "denominator must be a positive integer, got 2.0"),
        (2, ((3, -1),), "row 0 entry Fraction(3, 2) outside [0, 1]"),
        (2, ((1, 1), (-1, 3)), "row 1 entry Fraction(-1, 2) outside [0, 1]"),
        (4, ((1, 3), (1, 1)), "row 1 sums to 1/2, not 1"),
        (2, ((1, 1), (2,)), "row 1 has 1 entries for 2 codewords"),
        (2, (), "a mapping needs at least one source row"),
    ]
    for d, counts, message in cases:
        with pytest.raises(DomainError) as e:
            StochasticMapping(1, names, d, counts)
        assert (e.value.code, e.value.message) == ("bad_mapping", message)


def test_equal_matrices_have_one_canonical_form():
    halves = StochasticMapping(1, ("y", "z"), 2, ((1, 1), (2, 0)))
    quarters = StochasticMapping(1, ("y", "z"), 4, ((2, 2), (4, 0)))
    assert halves == quarters and hash(halves) == hash(quarters)
    assert (quarters.denominator, quarters.counts) == (2, ((1, 1), (2, 0)))
    assert quarters.rows == ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0)))
    assert make_mapping(1, ["y", "z"], [["2/4", "1/2"], ["1/1", "0/1"]]) == halves
    assert StochasticMapping(1, ("y",), 6, [[6], [6]]) == make_mapping(1, ["y"], [["1/1"], ["1/1"]])


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["c5", "p3", "k3", "fig1", "e2"]),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_fraction_rows_rebuild_the_same_mapping(name, t, r, duplicate, seed):
    m = generate_valid_mapping(resolve_fixture(name), t, r, random.Random(seed), duplicate)
    rebuilt = make_mapping(m.t, m.codewords, m.rows)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    assert r % m.denominator == 0


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["c5", "p3", "k3", "fig1", "e2"]),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_supports_are_the_rows_with_a_positive_count(name, t, r, duplicate, seed):
    m = generate_valid_mapping(resolve_fixture(name), t, r, random.Random(seed), duplicate)
    assert len(m.supports) == len(m.codewords)
    for j, support in enumerate(m.supports):
        assert support == sum(1 << x for x, row in enumerate(m.counts) if row[j] > 0)


def test_validate_mapping():
    fig1 = resolve_fixture("fig1")
    good = make_mapping(
        1,
        ["high", "low"],
        [["1/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"], ["0/1", "1/1"]],
    )
    report = validate_mapping(good, fig1)
    assert report.ok and bool(report) and report.witness is None

    bad = make_mapping(
        1,
        ["all"],
        [["1/1"], ["1/1"], ["1/1"], ["1/1"]],
    )
    report = validate_mapping(bad, fig1)
    assert not report.ok
    assert report.witness == ("all", 0, 2)  # first confusable pair in scan order

    with pytest.raises(DomainError) as e:
        validate_mapping(good, resolve_fixture("p3"))
    assert e.value.code == "dimension_mismatch"


def test_maximal_leakage_extremes():
    n = 4
    k4 = resolve_fixture("k4")
    identity = make_mapping(
        1,
        [str(i) for i in range(n)],
        [["1/1" if i == j else "0/1" for j in range(n)] for i in range(n)],
    )
    assert validate_mapping(identity, k4).ok
    assert maximal_leakage(identity).log2_of == n

    e3 = resolve_fixture("e3")
    constant = make_mapping(1, ["y"], [["1/1"]] * 3)
    assert validate_mapping(constant, e3).ok
    assert maximal_leakage(constant).log2_of == 1


def test_leakage_rate_is_fractional_chromatic():
    for name in ("c5", "c7", "p3", "k4", "fig1", "petersen", "e3"):
        g = resolve_fixture(name)
        assert leakage_rate(g).log2_of == fractional_chromatic(g).value


def test_optimal_leakage_t_on_fixtures():
    c5 = resolve_fixture("c5")
    result = optimal_leakage_t(c5, 1)
    assert result.value.log2_of == Fraction(5, 2)
    assert result.matches
    assert result.witness_value.log2_of == Fraction(5, 2)
    assert validate_mapping(result.witness, c5).ok

    result2 = optimal_leakage_t(c5, 2)
    assert result2.value.log2_of == Fraction(25, 4)
    assert result2.matches
    assert validate_mapping(result2.witness, c5).ok


@pytest.mark.parametrize("t", [1, 2])
def test_tensor_certificate_agrees_with_the_split_lp_on_the_power(t):
    # the maximin split LP on the 100-vertex Petersen square takes 4,249 pivots
    for name, g in fixture_corpus():
        if (name, t) == ("petersen", 2):
            continue
        result = optimal_leakage_t(g, t)
        assert result.value.log2_of * maximin_eta(or_power(g, t)).value == 1, name
        assert result.matches, name
        assert validate_mapping(result.witness, g).ok, name


@pytest.mark.parametrize("name, t, value", [("c5", 4, Fraction(625, 16)), ("petersen", 2, Fraction(25, 4)),
                                            ("c7", 3, Fraction(343, 27))])
def test_tensor_certificate_answers_past_the_split_lp(name, t, value):
    g = resolve_fixture(name)
    result = optimal_leakage_t(g, t)
    assert result.value.log2_of == value and result.matches
    assert validate_mapping(result.witness, g).ok


def _tampered_coloring(**fields):
    """A stand-in for fractional_chromatic that answers for C5 with some fields replaced."""
    real = fractional_chromatic(resolve_fixture("c5"))
    return lambda g: real._replace(**fields)


@pytest.mark.parametrize(
    "tampered, message",
    [
        (_tampered_coloring(vertex_weights=(Fraction(-1, 2),) + (Fraction(3, 4),) * 4), "is negative"),
        # (0, 1) is an edge of C5
        (_tampered_coloring(sets=((0, 1), (0, 3), (1, 3), (1, 4), (2, 4))), "confusable sequences 0 and 1"),
        # vertex 0 is only in the first two sets: covered to 1/4 + 1/2
        (_tampered_coloring(weights=(Fraction(1, 4),) + (Fraction(1, 2),) * 4), "covered to less than 1"),
        # the set (0, 2) sums to 3/4 + 1/2
        (_tampered_coloring(vertex_weights=(Fraction(3, 4),) + (Fraction(1, 2),) * 4), "dual sum over 1"),
        # a cover and a packing, but twice and half of chi_f
        (_tampered_coloring(weights=(Fraction(1),) * 5), "totals are not both"),
        (_tampered_coloring(vertex_weights=(Fraction(1, 4),) * 5), "totals are not both"),
    ],
)
def test_a_broken_certificate_is_an_internal_error(monkeypatch, tampered, message):
    monkeypatch.setattr(programs, "fractional_chromatic", tampered)
    for t in (1, 2):
        with pytest.raises(ZeroleakError) as e:
            optimal_leakage_t(resolve_fixture("c5"), t)
        assert e.value.code == "internal_error" and message in e.value.message


def test_optimal_leakage_is_submultiplicative_at_two():
    # equality here; the two-symbol optimum is the square of the one-symbol one
    for name in ("p3", "k3", "fig1"):
        g = resolve_fixture(name)
        one = optimal_leakage_t(g, 1).value.log2_of
        two = optimal_leakage_t(g, 2).value.log2_of
        assert two == one * one


def test_b_fold_coloring_from_optimal_weights():
    c5 = resolve_fixture("c5")
    chromatic = fractional_chromatic(c5)
    b, family = b_fold_coloring_from_weights(c5, chromatic.weights)
    assert b == 2
    assert family.size == 5
    for x in range(5):
        assert family.coverage(x) == b


def test_b_fold_coloring_trims_to_exact_coverage():
    e2 = make_graph(2, [])
    b, family = b_fold_coloring_from_weights(e2, [Fraction(2)])
    assert b == 1
    for x in range(2):
        assert family.coverage(x) == 1
    assert family.size == 2  # hollowed classes stay in the multiset

    e1 = make_graph(1, [])
    b1, fam1 = b_fold_coloring_from_weights(e1, [Fraction(2)])
    assert fam1.size == 2
    assert fam1.sets[0] == ()  # emptied class retained
    assert fam1.coverage(0) == 1


def test_b_fold_coloring_rejects_bad_weights():
    c5 = resolve_fixture("c5")
    with pytest.raises(DomainError) as e:
        b_fold_coloring_from_weights(c5, [Fraction(1)])
    assert e.value.code == "dimension_mismatch"
    with pytest.raises(DomainError) as e:
        b_fold_coloring_from_weights(c5, [Fraction(-1)] + [Fraction(1)] * 4)
    assert e.value.code == "infeasible_weights"
    with pytest.raises(DomainError) as e:
        b_fold_coloring_from_weights(c5, [Fraction(1, 4)] * 5)
    assert e.value.code == "infeasible_weights"


def test_optimal_scalar_mapping_on_c5():
    c5 = resolve_fixture("c5")
    scheme = optimal_scalar_mapping(c5)
    assert validate_mapping(scheme, c5).ok
    assert maximal_leakage(scheme).log2_of == Fraction(5, 2)
    assert len(scheme.codewords) == 5
    nonzero = {e for row in scheme.rows for e in row if e > 0}
    assert nonzero == {Fraction(1, 2)}


def test_optimal_scalar_mapping_hits_the_rate_everywhere():
    for name in ("c5", "c7", "p3", "k2", "k5", "e1", "e3", "fig1", "fig1_theta"):
        g = resolve_fixture(name)
        scheme = optimal_scalar_mapping(g)
        assert validate_mapping(scheme, g).ok
        assert maximal_leakage(scheme).log2_of == fractional_chromatic(g).value


def test_merge_codewords_on_split_scheme():
    # start from a wasteful three-codeword scheme and merge back to optimal
    fig1 = resolve_fixture("fig1")
    split = make_mapping(
        1,
        ["vh", "h", "low"],
        [
            ["1/1", "0/1", "0/1"],
            ["0/1", "1/1", "0/1"],
            ["0/1", "0/1", "1/1"],
            ["0/1", "0/1", "1/1"],
        ],
    )
    assert validate_mapping(split, fig1).ok
    assert maximal_leakage(split).log2_of == 3

    merged = merge_codewords(split, "vh", "h", fig1)
    assert merged.codewords == ("(vh&h)", "low")
    assert validate_mapping(merged, fig1).ok
    assert maximal_leakage(merged).log2_of == 2
    assert merged.rows[0] == (Fraction(1), Fraction(0))


def test_merge_codewords_rejections():
    fig1 = resolve_fixture("fig1")
    scheme = optimal_scalar_mapping(fig1)
    names = scheme.codewords
    with pytest.raises(DomainError) as e:
        merge_codewords(scheme, names[0], names[0], fig1)
    assert e.value.code == "bad_merge"
    with pytest.raises(DomainError) as e:
        merge_codewords(scheme, "nope", names[0], fig1)
    assert e.value.code == "unknown_codeword"
    with pytest.raises(DomainError) as e:
        merge_codewords(scheme, names[0], names[1], fig1)
    assert e.value.code == "not_mergeable"
    assert set(e.value.detail) == {"u", "v"}
    with pytest.raises(DomainError) as e:
        merge_codewords(scheme, names[0], names[1], resolve_fixture("p3"))
    assert e.value.code == "dimension_mismatch"


def test_merge_rejects_a_taken_merged_name():
    m = make_mapping(
        1,
        ["a", "b", "(a&b)"],
        [["1/1", "0/1", "0/1"], ["0/1", "0/1", "1/1"], ["0/1", "1/1", "0/1"]],
    )
    with pytest.raises(DomainError) as e:
        merge_codewords(m, "a", "b", resolve_fixture("e3"))
    assert e.value.code == "bad_merge"
    assert e.value.detail == {"name": "(a&b)"}
    merged = merge_codewords(m, "a", "(a&b)", resolve_fixture("e3"))
    assert merged.codewords == ("(a&(a&b))", "b")


def test_merged_columns_reduce_the_denominator():
    m = make_mapping(1, ["y", "z"], [["1/4", "3/4"]])
    assert m.denominator == 4
    merged = merge_codewords(m, "y", "z", resolve_fixture("e1"))
    assert (merged.denominator, merged.counts) == (1, ((1,),))
    assert merged.rows == ((Fraction(1),),)
    m = make_mapping(1, ["x", "y", "z"], [["1/4", "1/4", "1/2"], ["1/2", "0/1", "1/2"]])
    assert m.column_maxima == (2, 1, 2)
    merged = merge_codewords(m, "x", "y", resolve_fixture("e2"))
    assert (merged.denominator, merged.column_maxima) == (2, (1, 1))


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from(["c5", "p3", "fig1", "e2"]),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_merges_carry_the_column_maxima(name, t, r, derive_first, seed):
    g = resolve_fixture(name)
    m = generate_valid_mapping(g, t, r, random.Random(seed), True)
    if derive_first:
        maximal_leakage(m)
    merged_once = False
    while True:
        for a, b in itertools.combinations(m.codewords, 2):
            try:
                merged = merge_codewords(m, a, b, g)
            except DomainError as e:
                assert e.code == "not_mergeable"
                continue
            break
        else:
            break
        # only maxima derived before the merge are carried over
        assert ("column_maxima" in merged.__dict__) == (derive_first or merged_once)
        fresh = make_mapping(t, merged.codewords, merged.rows)
        assert merged.column_maxima == fresh.column_maxima == tuple(map(max, zip(*fresh.counts)))
        assert maximal_leakage(merged) == maximal_leakage(fresh)
        m, merged_once = merged, True


def test_guess_budget_values():
    assert GuessBudget.constant(3).guesses(10) == 3
    assert GuessBudget.polynomial(2).guesses(3) == 9
    assert GuessBudget.polynomial(0).guesses(5) == 1
    exp = GuessBudget.exponential(Fraction(3, 2))
    assert [exp.guesses(t) for t in (1, 2, 3, 4)] == [2, 3, 4, 6]
    assert GuessBudget.exponential(2).guesses(5) == 32
    table = GuessBudget.table((1, 4, 9), growth=1)
    assert table.guesses(2) == 4
    with pytest.raises(DomainError) as e:
        table.guesses(4)
    assert e.value.code == "budget_table_range"
    with pytest.raises(DomainError):
        GuessBudget.constant(0)
    with pytest.raises(DomainError):
        GuessBudget.exponential(Fraction(1, 2))
    with pytest.raises(DomainError):
        GuessBudget.table(())
    with pytest.raises(DomainError):
        GuessBudget("weekly")


def test_guess_budget_sigma():
    assert GuessBudget.constant(7).sigma_is_zero()
    assert GuessBudget.polynomial(3).sigma_is_zero()
    assert GuessBudget.exponential(1).sigma_is_zero()
    assert not GuessBudget.exponential(2).sigma_is_zero()
    assert GuessBudget.table((1, 2), growth=1).sigma_is_zero()
    assert not GuessBudget.table((1, 2), growth=Fraction(3, 2)).sigma_is_zero()
    with pytest.raises(DomainError) as e:
        GuessBudget.table((1, 2)).sigma_is_zero()
    assert e.value.code == "undeclared_growth"


def _exact_polynomial_screen(p, q, d):
    # the polynomial screen with every power built exactly
    t = 1
    while True:
        if t**d * q**t > p**t:
            return False
        if (t + 1) ** d * q <= p * t**d:
            return True
        t += 1


def test_the_polynomial_screen_equals_the_exact_loop():
    for p in range(1, 17):
        for q in range(1, 7):
            beta = Fraction(p, q)
            for d in range(9):
                exact = d == 0 or (beta > 1 and _exact_polynomial_screen(beta.numerator, beta.denominator, d))
                assert bounds._budget_fits(GuessBudget.polynomial(d), beta, None) == exact, (p, q, d)
    rng = random.Random(3)
    for _ in range(2000):
        sides = [[(rng.randint(1, 9), rng.randint(0, 12)) for _ in range(rng.randint(1, 3))] for _ in range(2)]
        left, right = (math.prod(b**e for b, e in side) for side in sides)
        assert bounds._exceeds(*sides) == (left > right), sides


def test_multi_guess_bounds_exponential_budget():
    c5 = resolve_fixture("c5")
    report = multi_guess_bounds(c5, GuessBudget.exponential(2))
    assert report.lower.log2_of == Fraction(5, 2)
    assert report.upper.log2_of == Fraction(5, 2)
    assert report.tight
    keys = dict(report.provenance)
    assert keys["lower"] == "alphabet_over_independence_ratio"
    assert keys["upper"] == "fractional_chromatic"
    assert keys["structure"] == "vertex_transitive"


def test_multi_guess_bounds_subexponential_collapses():
    c5 = resolve_fixture("c5")
    report = multi_guess_bounds(c5, GuessBudget.constant(2))
    assert report.tight
    assert dict(report.provenance)["lower"] == "single_guess_equivalence_sigma_zero"

    p3 = resolve_fixture("p3")
    loose = multi_guess_bounds(p3, GuessBudget.exponential(2))
    assert loose.lower.log2_of == Fraction(3, 2)
    assert loose.upper.log2_of == 2
    assert not loose.tight


def test_multi_guess_bounds_inadmissible():
    c5 = resolve_fixture("c5")
    with pytest.raises(DomainError) as e:
        multi_guess_bounds(c5, GuessBudget.constant(3))
    assert e.value.code == "inadmissible_budget"
    assert e.value.detail == {"alpha": 2}
    with pytest.raises(DomainError):
        multi_guess_bounds(resolve_fixture("k4"), GuessBudget.exponential(2))
    with pytest.raises(DomainError):
        multi_guess_bounds(c5, GuessBudget.exponential(Fraction(5, 2)))


def test_multi_guess_bounds_table_budgets():
    c5 = resolve_fixture("c5")
    ok = multi_guess_bounds(c5, GuessBudget.table((1, 3), growth=1))
    assert ok.tight  # growth 1 means subexponential, collapses

    undeclared = multi_guess_bounds(c5, GuessBudget.table((1, 3)))
    keys = dict(undeclared.provenance)
    assert keys["growth"] == "undeclared_table_growth"
    assert undeclared.lower.log2_of == Fraction(5, 2)

    with pytest.raises(DomainError) as e:
        multi_guess_bounds(c5, GuessBudget.table((1, 5)))
    assert e.value.code == "inadmissible_budget"


def test_multi_guess_bounds_on_complete_graph():
    # alpha 1 leaves only single-guess budgets, and they are tight at n
    k4 = resolve_fixture("k4")
    report = multi_guess_bounds(k4, GuessBudget.constant(1))
    assert report.tight and report.lower.log2_of == 4


def test_approx_guess_bounds_two_sided():
    fig1 = resolve_fixture("fig1")
    theta = resolve_fixture("fig1_theta")
    report = approx_guess_bounds(fig1, theta)
    assert report.lower.log2_of == 2
    assert report.upper.log2_of == 2
    assert report.tight
    assert report.lower.bits == 1.0
    keys = dict(report.provenance)
    assert keys["lower"] == "packing_over_max_covering"
    assert keys["upper"] == "fractional_chromatic"


def test_approx_guess_bounds_loose_case():
    p3 = resolve_fixture("p3")
    report = approx_guess_bounds(p3, p3)
    assert report.lower.log2_of == 1  # zero bits; one approximate guess settles it
    assert report.upper.log2_of == 2
    assert not report.tight


def test_approx_guess_bounds_vertex_set_mismatch():
    with pytest.raises(DomainError) as e:
        approx_guess_bounds(resolve_fixture("fig1"), resolve_fixture("p3"))
    assert e.value.code == "vertex_set_mismatch"
    with pytest.raises(DomainError) as e:
        approx_guess_bounds(resolve_fixture("fig1"), k22())
    assert e.value.code == "vertex_set_mismatch"  # same shape, labels differ


def test_multi_approx_single_budget_collapses():
    fig1 = resolve_fixture("fig1")
    theta = resolve_fixture("fig1_theta")
    report = multi_approx_guess_bounds(fig1, theta, GuessBudget.constant(1))
    assert report.tight and report.lower.log2_of == 2
    assert dict(report.provenance)["budget"] == "collapses_to_single_approx_guess"


def test_multi_approx_inadmissible_budgets():
    fig1 = resolve_fixture("fig1")
    theta = resolve_fixture("fig1_theta")
    with pytest.raises(DomainError) as e:
        multi_approx_guess_bounds(fig1, theta, GuessBudget.constant(2))
    assert e.value.code == "inadmissible_budget"
    with pytest.raises(DomainError):
        multi_approx_guess_bounds(fig1, theta, GuessBudget.exponential(Fraction(3, 2)))
    with pytest.raises(DomainError):
        multi_approx_guess_bounds(fig1, theta, GuessBudget.table((1, 2), growth=1))


def test_multi_approx_with_real_exponential_room():
    # edgeless source, adversary split into two far pairs: two approximate
    # guesses genuinely available per symbol, bounds meet at zero bits
    gamma = make_graph(4, [])
    theta = make_graph(4, [(0, 1), (2, 3)])
    report = multi_approx_guess_bounds(gamma, theta, GuessBudget.exponential(2))
    assert report.lower.log2_of == 1
    assert report.upper.log2_of == 1
    assert report.tight
    assert "budget" not in dict(report.provenance)

    poly = multi_approx_guess_bounds(gamma, theta, GuessBudget.polynomial(1))
    assert dict(poly.provenance)["budget"] == "collapses_to_single_approx_guess"

    table = multi_approx_guess_bounds(gamma, theta, GuessBudget.table((2, 4), growth=2))
    assert table.lower.log2_of == 1


def test_product_traces_are_the_traces_of_each_product_set():
    cases = (("c5", "c5", (1, 2, 3)), ("fig1", "fig1_theta", (1, 2)), ("petersen", "petersen", (2,)))
    for gamma_name, theta_name, ts in cases:
        gamma, theta = resolve_fixture(gamma_name), resolve_fixture(theta_name)
        base = {S: (len(S), trace_masks(S, theta, 1)) for S in maximal_independent_sets(gamma)}
        for t in ts:
            seen = set()
            for combo, T in brute_product_sets(gamma, t):
                seen.add(T)
                assert product_traces([base[S] for S in combo]) == (len(T), trace_masks(T, theta, t))
            assert seen == set(mis_of_or_power(gamma, t))


def test_multi_approx_caps_are_the_brute_force_covering_numbers():
    # the cap at t is the largest g(t) a table budget may ask for
    rng = random.Random(53)
    cases = [(resolve_fixture(a), resolve_fixture(b), t) for a, b, t in (
        ("c5", "c5", 3), ("c7", "c7", 2), ("fig1", "fig1_theta", 2), ("e3", "e3", 2), ("p3", "p3", 3), ("k3", "k3", 2),
    )]
    for _ in range(25):
        n = rng.randint(2, 4)
        pairs = list(itertools.combinations(range(n), 2))
        gamma = make_graph(n, [p for p in pairs if rng.random() < 0.4])
        theta = make_graph(n, [p for p in pairs if rng.random() < 0.4])
        cases.append((gamma, theta, 2))
    for gamma, theta, tmax in cases:
        caps = [
            max(
                brute_covering_number(make_hypergraph(T, brute_hypergraph_edges(T, theta, t)))
                for _, T in brute_product_sets(gamma, t)
            )
            for t in range(1, tmax + 1)
        ]
        multi_approx_guess_bounds(gamma, theta, GuessBudget.table(caps, growth=1))
        for t in range(1, tmax + 1):
            over = caps[: t - 1] + [caps[t - 1] + 1]
            with pytest.raises(DomainError) as e:
                multi_approx_guess_bounds(gamma, theta, GuessBudget.table(over, growth=1))
            assert e.value.code == "inadmissible_budget"


def test_multi_approx_caps_take_one_search_per_multiset_of_base_families():
    # permuting the coordinates of a product set permutes its trace family's
    # ground set, so each ordering of a tuple has the cover of its sorted form
    cases = (("c5", "c5"), ("c7", "c7"), ("petersen", "petersen"), ("fig1", "fig1_theta"))
    for gamma_name, theta_name in cases:
        gamma, theta = resolve_fixture(gamma_name), resolve_fixture(theta_name)
        distinct = list(dict.fromkeys((len(S), trace_masks(S, theta, 1)) for S in maximal_independent_sets(gamma)))
        kf_cache = {}

        def cover(combo):
            return min_cover_size(*product_traces(combo), kf_cache)

        caps = []
        for t in (1, 2, 3):
            covers = {combo: cover(combo) for combo in itertools.product(distinct, repeat=t)}
            for combo, value in covers.items():
                assert value == covers[tuple(sorted(combo, key=distinct.index))], (gamma_name, t)
            caps.append(max(covers.values()))
        multi_approx_guess_bounds(gamma, theta, GuessBudget.table(caps, growth=1))
        for t in (1, 2, 3):
            over = caps[: t - 1] + [caps[t - 1] + 1]
            with pytest.raises(DomainError) as e:
                multi_approx_guess_bounds(gamma, theta, GuessBudget.table(over, growth=1))
            assert e.value.code == "inadmissible_budget"


def test_bounds_report_consistency_guard():
    with pytest.raises(DomainError) as e:
        BoundsReport(LeakageValue(Fraction(3)), LeakageValue(Fraction(2)), False, ())
    assert e.value.code == "bad_bounds"
    with pytest.raises(DomainError):
        BoundsReport(LeakageValue(Fraction(2)), LeakageValue(Fraction(2)), False, ())
