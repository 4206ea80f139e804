import itertools
import random
from fractions import Fraction

import pytest

from zeroleak import (
    DistributionGrid,
    DomainError,
    GuessBudget,
    GuessFamily,
    ResourceBudgetError,
    distribution_grid,
    generate_valid_mapping,
    make_graph,
    make_mapping,
    maximal_leakage,
    optimal_scalar_mapping,
    resolve_fixture,
    rho_fixed_px,
    validate_mapping,
    verify_eta_duality,
    verify_mergeability_closure,
    verify_multi_guess_floor,
    verify_packing_reciprocity,
    worst_case_rho,
)
from zeroleak.graphs import and_power, closed_neighborhood
from zeroleak.programs import fractional_packing
from zeroleak.rationals import format_ratio, parse_ratio
from helpers import k22

REPORT_KEYS = {"check", "status", "witness", "lhs", "rhs"}


def _identity(n):
    return make_mapping(
        1,
        [str(i) for i in range(n)],
        [["1/1" if i == j else "0/1" for j in range(n)] for i in range(n)],
    )


def test_guess_family_singleton():
    c5 = resolve_fixture("c5")
    fam = GuessFamily.singleton(c5, 2)
    assert fam.kind == "singleton" and fam.g == 1
    assert len(fam.sets) == 25
    assert fam.sets[0] == frozenset({0})


def test_guess_family_multi():
    c5 = resolve_fixture("c5")
    fam = GuessFamily.multi_guess(c5, 1, 2)
    assert fam.sets is None and fam.g == 2
    with pytest.raises(DomainError) as e:
        GuessFamily.multi_guess(c5, 1, 6)
    assert e.value.code == "bad_guess_count"
    with pytest.raises(DomainError):
        GuessFamily.multi_guess(c5, 1, 0)


def test_guess_family_approx():
    theta = resolve_fixture("fig1_theta")
    fam = GuessFamily.approx(theta, 1)
    assert fam.sets == (frozenset({0, 1}), frozenset({2, 3}))
    both = GuessFamily.multi_approx(theta, 1, 2)
    assert both.sets == (frozenset({0, 1, 2, 3}),)
    with pytest.raises(DomainError) as e:
        GuessFamily.multi_approx(theta, 1, 3)
    assert e.value.code == "bad_guess_count"


def test_approx_guess_families_are_the_closed_neighborhood_families():
    for name in ("c5", "c7", "petersen", "fig1_theta", "k3", "p3", "e2"):
        theta = resolve_fixture(name)
        for t in (1, 2):
            power = and_power(theta, t)
            hoods = sorted({closed_neighborhood(power, x) for x in range(power.vertex_count)}, key=sorted)
            assert GuessFamily.approx(theta, t).sets == tuple(hoods)
            for g in range(1, min(2, len(hoods)) + 1):
                unions = {frozenset().union(*combo) for combo in itertools.combinations(hoods, g)}
                assert GuessFamily.multi_approx(theta, t, g).sets == tuple(sorted(unions, key=sorted))


def test_guess_family_multi_approx_budget():
    petersen = resolve_fixture("petersen")
    with pytest.raises(ResourceBudgetError):
        GuessFamily.multi_approx(petersen, 2, 50)


def test_distribution_grid():
    grid = distribution_grid(2, 2)
    assert grid.resolution == 2
    assert grid.alphabet_size == 2
    assert grid.points == (
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(0)),
    )
    # uniform is added even when the resolution cannot express it
    coarse = distribution_grid(3, 1)
    assert (Fraction(1, 3),) * 3 in coarse.points
    assert len(coarse.points) == 4
    with pytest.raises(DomainError) as e:
        distribution_grid(0, 4)
    assert e.value.code == "bad_grid"
    with pytest.raises(ResourceBudgetError):
        distribution_grid(40, 40)


def _fraction_grid(n, r):
    """The prior grid built directly in Fraction: every composition of r over r, and uniform."""
    points = {(Fraction(1, n),) * n}
    for cuts in itertools.combinations(range(r + n - 1), n - 1):
        bounds = (-1, *cuts, r + n - 1)
        points.add(tuple(Fraction(b - a - 1, r) for a, b in zip(bounds, bounds[1:])))
    return tuple(sorted(points))


def test_distribution_grid_equals_the_fraction_construction():
    # n = 1, n | r, r | n, coprime pairs and pairs sharing a factor
    cases = [(1, 1), (1, 5), (2, 1), (2, 4), (3, 6), (4, 2), (6, 3), (6, 1), (2, 3), (3, 5), (5, 4), (4, 6), (6, 4)]
    for n, r in cases:
        grid = distribution_grid(n, r)
        assert grid.points == _fraction_grid(n, r), (n, r)
        assert all(type(p) is Fraction for point in grid.points for p in point)


def _fraction_packing_report(theta, grid):
    """lhs, px and status of the packing check, recomputed in Fraction."""
    hoods = [closed_neighborhood(theta, x) for x in range(theta.vertex_count)]
    best = best_px = None
    for px in grid.points:
        value = max(sum(px[v] for v in hood) for hood in hoods)
        if best is None or value < best:
            best, best_px = value, px
    target = 1 / fractional_packing(theta).value
    status = "fail" if best < target else "pass" if best == target else "estimate"
    return format_ratio(best), [format_ratio(p) for p in best_px], status


def test_packing_sweep_equals_a_fraction_reference():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        g = make_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        grid = distribution_grid(n, rng.randint(1, 4))
        report = verify_packing_reciprocity(g, grid)
        assert (report["lhs"], report["witness"]["px"], report["status"]) == _fraction_packing_report(g, grid)


def test_rho_constant_mapping_is_one():
    constant = make_mapping(1, ["y"], [["1/1"]] * 3)
    fam = GuessFamily.singleton(resolve_fixture("e3"), 1)
    assert rho_fixed_px(constant, [Fraction(1, 3)] * 3, fam) == 1
    assert rho_fixed_px(constant, ["1/2", "1/4", "1/4"], fam) == 1


def test_rho_identity_mapping_uniform_is_alphabet_size():
    for n in (2, 3, 4):
        fam = GuessFamily.singleton(make_graph(n, []), 1)
        assert rho_fixed_px(_identity(n), [Fraction(1, n)] * n, fam) == n


def test_rho_identity_skewed_prior():
    fam = GuessFamily.singleton(make_graph(2, []), 1)
    assert rho_fixed_px(_identity(2), ["3/4", "1/4"], fam) == Fraction(4, 3)


def test_rho_on_optimal_c5_scheme():
    c5 = resolve_fixture("c5")
    scheme = optimal_scalar_mapping(c5)
    fam = GuessFamily.singleton(c5, 1)
    assert rho_fixed_px(scheme, [Fraction(1, 5)] * 5, fam) == Fraction(5, 2)


def test_rho_multi_guess():
    fam = GuessFamily.multi_guess(make_graph(4, []), 1, 2)
    assert rho_fixed_px(_identity(4), [Fraction(1, 4)] * 4, fam) == 2


def test_rho_approx_family():
    fig1 = resolve_fixture("fig1")
    theta = resolve_fixture("fig1_theta")
    scheme = optimal_scalar_mapping(fig1)
    fam = GuessFamily.approx(theta, 1)
    assert rho_fixed_px(scheme, [Fraction(1, 4)] * 4, fam) == 2


def test_rho_input_validation():
    fam = GuessFamily.singleton(make_graph(2, []), 1)
    with pytest.raises(DomainError) as e:
        rho_fixed_px(_identity(2), ["1/2", "1/4"], fam)
    assert e.value.code == "bad_distribution"
    with pytest.raises(DomainError) as e:
        rho_fixed_px(_identity(2), ["1/1", "0/1"], fam)
    assert e.value.code == "zero_mass_symbol"
    with pytest.raises(DomainError) as e:
        rho_fixed_px(_identity(2), ["1/3", "1/3", "1/3"], fam)
    assert e.value.code == "dimension_mismatch"
    fam2 = GuessFamily.singleton(make_graph(2, []), 2)
    with pytest.raises(DomainError) as e:
        rho_fixed_px(_identity(2), ["1/2", "1/2"], fam2)
    assert e.value.code == "dimension_mismatch"
    six_rows = make_mapping(2, ["y"], [["1/1"]] * 6)
    with pytest.raises(DomainError) as e:
        rho_fixed_px(six_rows, ["1/2", "1/2"], GuessFamily("singleton", 2, 1, (frozenset({0}),)))
    assert e.value.code == "dimension_mismatch"


def test_rho_checks_a_long_mapping_without_its_power():
    # 2**(10**9) sequences against 3 rows; the power is never computed
    t = 10**9
    m = make_mapping(t, ["y"], [["1/1"]] * 3)
    fam = GuessFamily("singleton", t, 1, (frozenset({0}),))
    with pytest.raises(DomainError) as e:
        rho_fixed_px(m, ["1/2", "1/2"], fam)
    assert e.value.code == "dimension_mismatch"
    with pytest.raises(DomainError) as e:
        worst_case_rho(m, fam, distribution_grid(2, 1))
    assert e.value.code == "dimension_mismatch"


def test_rho_is_at_least_one_on_random_schemes():
    rng = random.Random(5)
    for name in ("c5", "p3", "k3"):
        g = resolve_fixture(name)
        fam = GuessFamily.singleton(g, 1)
        grid = distribution_grid(g.vertex_count, 3)
        for _ in range(10):
            m = generate_valid_mapping(g, 1, 3, rng)
            for px in grid.points[:4]:
                if all(p > 0 for p in px):
                    assert rho_fixed_px(m, px, fam) >= 1


def test_worst_case_rho_attained_at_uniform():
    c5 = resolve_fixture("c5")
    scheme = optimal_scalar_mapping(c5)
    fam = GuessFamily.singleton(c5, 1)
    grid = distribution_grid(5, 5)
    assert worst_case_rho(scheme, fam, grid) == Fraction(5, 2)
    assert worst_case_rho(scheme, fam, grid) == maximal_leakage(scheme).log2_of

    k3 = resolve_fixture("k3")
    assert worst_case_rho(_identity(3), GuessFamily.singleton(k3, 1), distribution_grid(3, 3)) == 3


def test_worst_case_rho_never_exceeds_maximal_leakage():
    rng = random.Random(17)
    for name in ("c5", "p3", "fig1"):
        g = resolve_fixture(name)
        fam = GuessFamily.singleton(g, 1)
        grid = distribution_grid(g.vertex_count, g.vertex_count)
        for _ in range(10):
            m = generate_valid_mapping(g, 1, 4, rng)
            assert worst_case_rho(m, fam, grid) <= maximal_leakage(m).log2_of


def test_worst_case_rho_grid_mismatch():
    c5 = resolve_fixture("c5")
    scheme = optimal_scalar_mapping(c5)
    fam = GuessFamily.singleton(c5, 1)
    with pytest.raises(DomainError) as e:
        worst_case_rho(scheme, fam, distribution_grid(3, 3))
    assert e.value.code == "dimension_mismatch"


def test_generate_valid_mapping_properties():
    rng = random.Random(3)
    for name in ("c5", "p3", "fig1", "k4"):
        g = resolve_fixture(name)
        for t in (1, 2):
            m = generate_valid_mapping(g, t, 4, rng)
            assert validate_mapping(m, g).ok
            assert m.source_count == g.vertex_count**t
            for row in m.rows:
                for e in row:
                    assert (e * 4).denominator == 1  # r units per row


def test_generate_valid_mapping_seeded_determinism():
    c5 = resolve_fixture("c5")
    a = generate_valid_mapping(c5, 1, 4, random.Random(42))
    b = generate_valid_mapping(c5, 1, 4, random.Random(42))
    assert a == b
    c = generate_valid_mapping(c5, 1, 4, random.Random(43))
    assert a != c  # 4 units over >= 2 choices per row; seeds collide with tiny odds


def test_generate_valid_mapping_duplicate_codebook():
    c5 = resolve_fixture("c5")
    m = generate_valid_mapping(c5, 1, 4, random.Random(0), duplicate_codebook=True)
    assert len(m.codewords) == 10
    assert validate_mapping(m, c5).ok
    with pytest.raises(DomainError) as e:
        generate_valid_mapping(c5, 1, 0, random.Random(0))
    assert e.value.code == "bad_grid"
    # the units dealt, 5 sequences times r, are checked before any is dealt
    with pytest.raises(ResourceBudgetError) as e:
        generate_valid_mapping(c5, 1, 1 << 20, random.Random(0))
    assert e.value.budget_name == "scheme_units"


def test_verify_eta_duality_report():
    report = verify_eta_duality(resolve_fixture("c5"), 1)
    assert set(report) == REPORT_KEYS
    assert report["check"] == "duality"
    assert report["status"] == "pass"
    assert report["lhs"] == "1/1" and report["rhs"] == "1/1"
    assert report["witness"] == {"t": 1, "chi_f": "5/2", "eta": "2/5"}
    assert verify_eta_duality(resolve_fixture("c5"), 2)["status"] == "pass"


def test_verify_packing_reciprocity_pass():
    report = verify_packing_reciprocity(resolve_fixture("fig1_theta"), distribution_grid(4, 2))
    assert set(report) == REPORT_KEYS
    assert report["status"] == "pass"
    assert report["lhs"] == "1/2" and report["rhs"] == "1/2"
    assert report["witness"]["r"] == 2
    assert report["witness"]["closure"] is True

    center = verify_packing_reciprocity(resolve_fixture("p3"), distribution_grid(3, 2))
    assert center["status"] == "pass"
    assert center["lhs"] == "1/1"


def test_verify_packing_reciprocity_estimate_on_coarse_grid():
    p4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    report = verify_packing_reciprocity(p4, distribution_grid(4, 1))
    assert report["status"] == "estimate"
    assert parse_ratio(report["lhs"]) > parse_ratio(report["rhs"])
    fine = verify_packing_reciprocity(p4, distribution_grid(4, 2))
    assert fine["status"] == "pass"


def test_verify_packing_reciprocity_grid_mismatch():
    with pytest.raises(DomainError) as e:
        verify_packing_reciprocity(resolve_fixture("p3"), distribution_grid(4, 2))
    assert e.value.code == "dimension_mismatch"


def test_verify_multi_guess_floor():
    c5 = resolve_fixture("c5")
    report = verify_multi_guess_floor(c5, GuessBudget.constant(2), 1, 4, trials=20)
    assert set(report) == REPORT_KEYS
    assert report["status"] == "pass"
    assert report["rhs"] == "5/2"
    assert parse_ratio(report["lhs"]) >= Fraction(5, 2)
    assert report["witness"] == {"t": 1, "g": 2, "trials": 20, "seed": 0}

    again = verify_multi_guess_floor(c5, GuessBudget.constant(2), 1, 4, trials=20)
    assert again == report  # seeded, fully deterministic

    pair = verify_multi_guess_floor(k22(), GuessBudget.constant(1), 1, 4, trials=20)
    assert pair["status"] == "pass"
    assert pair["rhs"] == "2/1"


def test_verify_multi_guess_floor_rejects():
    c5 = resolve_fixture("c5")
    with pytest.raises(DomainError) as e:
        verify_multi_guess_floor(c5, GuessBudget.constant(3), 1, 4)
    assert e.value.code == "inadmissible_budget"
    with pytest.raises(DomainError) as e:
        verify_multi_guess_floor(c5, GuessBudget.constant(1), 1, 4, trials=0)
    assert e.value.code == "bad_trials"


def test_verify_mergeability_closure():
    c5 = resolve_fixture("c5")
    report = verify_mergeability_closure(c5, 1, trials=5)
    assert set(report) == REPORT_KEYS
    assert report["status"] == "pass"
    assert report["witness"]["merges"] >= 5 * 5  # five duplicate pairs collapse per trial
    assert parse_ratio(report["lhs"]) <= 1
    assert report["rhs"] == "1/1"


def test_verify_mergeability_closure_collapses_edgeless_to_constant():
    e3 = resolve_fixture("e3")
    report = verify_mergeability_closure(e3, 1, trials=2)
    assert report["status"] == "pass"
    assert report["witness"]["merges"] == 2  # one merge per trial: the two copies join
    with pytest.raises(DomainError):
        verify_mergeability_closure(e3, 1, trials=0)
