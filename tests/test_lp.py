import itertools
import random
from fractions import Fraction

import pytest

from zeroleak import DomainError, ResourceBudgetError, ZeroleakError
from zeroleak.lp import LESS_EQUAL, _validate, make_lp, solve_lp


def test_known_max():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6; optimum at (4, 0)
    lp = make_lp(
        "max",
        [3, 2],
        [([1, 1], LESS_EQUAL, 4), ([1, 3], LESS_EQUAL, 6)],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == 12
    assert sol.assignment == (Fraction(4), Fraction(0))
    # a max program's prices are >= 0: the first row binds at 3 per unit
    assert sol.duals == (Fraction(3), Fraction(0))


def test_known_min():
    # min -2x - 3y s.t. x + y <= 4, x + 3y <= 6; optimum (3, 1)
    lp = make_lp(
        "min",
        [-2, -3],
        [([1, 1], LESS_EQUAL, 4), ([1, 3], LESS_EQUAL, 6)],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == -9
    assert sol.assignment == (Fraction(3), Fraction(1))
    # a min program's prices are <= 0, and still sum to the value against b
    assert sol.duals == (Fraction(-3, 2), Fraction(-1, 2))


def test_fractional_optimum_is_exact():
    # max x + y s.t. 3x + y <= 2, x + 3y <= 2; optimum (1/2, 1/2) -> 1
    lp = make_lp(
        "max",
        [1, 1],
        [([3, 1], LESS_EQUAL, 2), ([1, 3], LESS_EQUAL, 2)],
    )
    sol = solve_lp(lp)
    assert sol.value == 1
    assert sol.assignment == (Fraction(1, 2), Fraction(1, 2))


def test_unbounded():
    lp = make_lp("max", [1, 0], [([0, 1], LESS_EQUAL, 1)])
    sol = solve_lp(lp)
    assert sol.status == "unbounded"
    assert sol.value is None and sol.assignment is None and sol.duals is None


def test_boxed_variables():
    lp = make_lp("max", [1, 1], _box_rows([2, Fraction(1, 2)]))
    sol = solve_lp(lp)
    assert sol.value == Fraction(5, 2)
    assert sol.assignment == (Fraction(2), Fraction(1, 2))


def test_no_variables():
    lp = make_lp("min", [], [([], LESS_EQUAL, 1)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == 0
    assert sol.assignment == () and sol.duals == (Fraction(0),)


def test_validation_errors():
    with pytest.raises(DomainError) as e:
        make_lp("best", [1], [])
    assert e.value.code == "bad_lp"
    with pytest.raises(DomainError) as e:
        make_lp("min", [1], [([1, 2], LESS_EQUAL, 0)])
    assert e.value.code == "dimension_mismatch"
    with pytest.raises(DomainError) as e:
        make_lp("min", [1], [([1], "<", 0)])
    assert e.value.code == "bad_lp"


@pytest.mark.parametrize(
    "row",
    [([1], ">=", 1), ([1], "=", 1), ([1], LESS_EQUAL, -1), ([1], LESS_EQUAL, Fraction(-1, 3))],
    ids=["greater_equal", "equal", "negative_rhs", "negative_fractional_rhs"],
)
def test_rows_outside_the_packing_form_are_rejected(row):
    # the all-slack basis is feasible only for <= rows with rhs >= 0
    with pytest.raises(DomainError) as e:
        make_lp("max", [1], [([1], LESS_EQUAL, 1), row])
    assert e.value.code == "bad_lp"


def test_random_boxed_lps_against_vertex_enumeration():
    """On fully boxed programs the optimum sits at a corner of some active set;
    brute-force it by checking every choice of binding rows/bounds."""
    rng = random.Random(99)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        nrows = rng.randint(0, 3)
        objective = [Fraction(rng.randint(-3, 3)) for _ in range(nvars)]
        constraints = []
        for _ in range(nrows):
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(nvars)]
            constraints.append((coeffs, LESS_EQUAL, Fraction(rng.randint(0, 4))))
        bounds = [Fraction(rng.randint(1, 3)) for _ in range(nvars)]
        program = make_lp("max", objective, constraints + _box_rows(bounds))
        sol = solve_lp(program)
        assert sol.status == "optimal"  # box is nonempty and bounded
        best = _brute_boxed_max(objective, constraints, bounds)
        assert sol.value == best
        _assert_dual_certificate(program, sol)


def _assert_dual_certificate(program, sol):
    # the prices of a max program: y >= 0, A^T y >= c and b.y == value
    rows = program.constraints
    assert len(sol.duals) == len(rows)
    assert all(y >= 0 for y in sol.duals)
    for k, c in enumerate(program.objective):
        assert sum(y * coeffs[k] for (coeffs, _rel, _rhs), y in zip(rows, sol.duals)) >= c
    assert sum(y * rhs for (_coeffs, _rel, rhs), y in zip(rows, sol.duals)) == sol.value


def test_random_fractional_rows_against_vertex_enumeration():
    """Non-integer coefficients and right-hand sides exercise the per-row
    integer scaling; two of the right-hand sides drawn are zero."""
    rng = random.Random(7)

    def frac(lo, hi):
        return Fraction(rng.randint(lo * 6, hi * 6), rng.randint(1, 6))

    for _ in range(60):
        nvars = rng.randint(1, 3)
        nrows = rng.randint(1, 3)
        objective = [frac(-3, 3) for _ in range(nvars)]
        constraints = [([frac(-2, 2) for _ in range(nvars)], LESS_EQUAL, frac(0, 4)) for _ in range(nrows)]
        bounds = [frac(1, 3) for _ in range(nvars)]
        program = make_lp("max", objective, constraints + _box_rows(bounds))
        sol = solve_lp(program)
        assert sol.status == "optimal"
        assert sol.value == _brute_boxed_max(objective, constraints, bounds)
        _assert_dual_certificate(program, sol)


def test_pivots_are_charged_to_the_budget(monkeypatch):
    # five unit caps: Bland's rule brings in each variable with its own pivot
    lp = make_lp("max", [1] * 5, [([1 if j == i else 0 for j in range(5)], LESS_EQUAL, 1) for i in range(5)])
    assert solve_lp(lp).value == 5
    monkeypatch.setenv("ZEROLEAK_BUDGET", "3")
    with pytest.raises(ResourceBudgetError) as e:
        solve_lp(lp)
    assert e.value.budget_name == "lp_pivots"
    assert e.value.detail["budget"] == "lp_pivots"


def test_validate_rejects_each_broken_certificate(monkeypatch):
    # max 2x + 3y + z s.t. x + y + z <= 4, y - x <= 0, 2x + z <= 5; optimum (2, 2, 0)
    program = make_lp(
        "max",
        [2, 3, 1],
        [([1, 1, 1], LESS_EQUAL, 4), ([-1, 1, 0], LESS_EQUAL, 0), ([2, 0, 1], LESS_EQUAL, 5)],
    )
    certificates = []

    def spy(*args):
        certificates.append(args)
        _validate(*args)

    monkeypatch.setattr("zeroleak.lp._validate", spy)
    sol = solve_lp(program)
    assert sol.value == 10 and sol.assignment == (2, 2, 0)
    [(_program, assignment, value, duals)] = certificates
    # a max program's prices are >= 0; the slack third row has price 0
    assert duals == (Fraction(5, 2), Fraction(1, 2), 0)
    assert sol.duals == duals
    _validate(program, assignment, value, duals)

    broken = [
        ([2, 2, -1], value, duals, "x >= 0 on variable 2"),
        ([3, 3, 0], value, duals, "broke constraint <= 4"),
        (assignment, value + 1, duals, "value does not match"),
        (assignment, value, [Fraction(5, 2), Fraction(-1, 2), 0], "dual of a <= row has the wrong sign"),
        (assignment, value, [0, 0, 0], "negative reduced cost"),
        (assignment, value, [Fraction(7, 2), Fraction(1, 2), 0], "objectives differ"),
    ]
    for bad_assignment, bad_value, bad_duals, message in broken:
        with pytest.raises(ZeroleakError, match=message) as e:
            _validate(program, [Fraction(x) for x in bad_assignment], bad_value, bad_duals)
        assert e.value.code == "internal_error"


def _box_rows(highs):
    # each box [0, hi] as one row x_k <= hi; x_k >= 0 is the solver's own
    return [([1 if j == k else 0 for j in range(len(highs))], LESS_EQUAL, hi) for k, hi in enumerate(highs)]


def _brute_boxed_max(objective, constraints, bounds, steps: int = 6):
    # grid refinement is unreliable; enumerate candidate vertices instead:
    # all intersections of nvars active conditions drawn from rows and bounds
    nvars = len(objective)
    conditions = []
    for coeffs, _rel, rhs in constraints:
        conditions.append((coeffs, rhs))
    for k, hi in enumerate(bounds):
        unit = [Fraction(0)] * nvars
        unit[k] = Fraction(1)
        conditions.append((list(unit), Fraction(0)))
        conditions.append((list(unit), hi))
    best = None
    for combo in itertools.combinations(range(len(conditions)), nvars):
        point = _solve_square([conditions[i] for i in combo], nvars)
        if point is None:
            continue
        if not _feasible(point, constraints, bounds):
            continue
        value = sum(c * x for c, x in zip(objective, point))
        if best is None or value > best:
            best = value
    return best


def _solve_square(rows, nvars):
    # Gaussian elimination over fractions; None if singular
    a = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    for col in range(nvars):
        pivot = next((r for r in range(col, nvars) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(nvars):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[r][nvars] for r in range(nvars))


def _feasible(point, constraints, bounds):
    for coeffs, _rel, rhs in constraints:
        if sum(c * x for c, x in zip(coeffs, point)) > rhs:
            return False
    for x, hi in zip(point, bounds):
        if x < 0 or x > hi:
            return False
    return True
