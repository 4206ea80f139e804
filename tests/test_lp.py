import itertools
import random
from fractions import Fraction

import pytest

from zeroleak import DomainError, ResourceBudgetError, ZeroleakError
from zeroleak.lp import EQUAL, GREATER_EQUAL, LESS_EQUAL, _validate, make_lp, solve_lp


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


def test_known_min_with_surplus_rows():
    # diet-style: min 2x + 3y s.t. x + y >= 10, x >= 3; optimum (10, 0)
    lp = make_lp(
        "min",
        [2, 3],
        [([1, 1], GREATER_EQUAL, 10), ([1, 0], GREATER_EQUAL, 3)],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == 20
    assert sol.assignment == (Fraction(10), Fraction(0))


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


def test_equality_constraints():
    lp = make_lp(
        "min",
        [1, 2, 4],
        [([1, 1, 1], EQUAL, 3), ([0, 1, 2], EQUAL, 2)],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == 5
    lhs = sum(sol.assignment)
    assert lhs == 3


def test_infeasible():
    lp = make_lp("max", [1], [([1], LESS_EQUAL, 1), ([1], GREATER_EQUAL, 2)])
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert sol.value is None and sol.assignment is None


def test_unbounded():
    lp = make_lp("max", [1, 0], [([0, 1], LESS_EQUAL, 1)])
    assert solve_lp(lp).status == "unbounded"


def test_boxed_variables():
    lp = make_lp("max", [1, 1], _box_rows([(1, 2), (Fraction(1, 3), Fraction(1, 2))]))
    sol = solve_lp(lp)
    assert sol.value == Fraction(5, 2)
    assert sol.assignment == (Fraction(2), Fraction(1, 2))


def test_no_variables():
    lp = make_lp("min", [], [([], LESS_EQUAL, 1)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == 0
    lp2 = make_lp("min", [], [([], LESS_EQUAL, -1)])
    assert solve_lp(lp2).status == "infeasible"


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
        bounds = [(Fraction(0), Fraction(rng.randint(1, 3))) for _ in range(nvars)]
        sol = solve_lp(make_lp("max", objective, constraints + _box_rows(bounds)))
        assert sol.status == "optimal"  # box is nonempty and bounded
        best = _brute_boxed_max(objective, constraints, bounds)
        assert sol.value == best


def test_random_fractional_rows_against_vertex_enumeration():
    """Non-integer coefficients and right-hand sides exercise the per-row
    integer scaling; negative right-hand sides flip rows, and some of the
    programs are infeasible."""
    rng = random.Random(7)

    def frac(lo, hi):
        return Fraction(rng.randint(lo * 6, hi * 6), rng.randint(1, 6))

    statuses = set()
    for _ in range(60):
        nvars = rng.randint(1, 3)
        nrows = rng.randint(1, 3)
        objective = [frac(-3, 3) for _ in range(nvars)]
        constraints = [([frac(-2, 2) for _ in range(nvars)], LESS_EQUAL, frac(-1, 4)) for _ in range(nrows)]
        bounds = [(Fraction(0), frac(1, 3)) for _ in range(nvars)]
        sol = solve_lp(make_lp("max", objective, constraints + _box_rows(bounds)))
        best = _brute_boxed_max(objective, constraints, bounds)
        statuses.add(sol.status)
        if best is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.value == best
    assert statuses == {"optimal", "infeasible"}


def test_duplicated_equality_row_is_deleted():
    # phase 1 leaves the copy's artificial basic on an all-zero row
    lp = make_lp("min", [1, 2], [([1, 1], EQUAL, 2), ([1, 1], EQUAL, 2)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == 2
    assert sol.assignment == (Fraction(2), Fraction(0))


def test_drive_out_pivots_on_a_negative_entry():
    # -x - y = 0 keeps its artificial basic at zero through phase 1 (every
    # reduced cost on its row is positive), so the drive-out step pivots on -1
    lp = make_lp(
        "max",
        [0, 0, 1],
        [([-1, -1, 0], EQUAL, 0), ([1, 0, 1], LESS_EQUAL, 2), ([0, 1, 1], LESS_EQUAL, 3)],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == 2
    assert sol.assignment == (Fraction(0), Fraction(0), Fraction(2))


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
    # max 2x + 3y + z s.t. x + y + z <= 4, x + z >= 1, x - y = 0; optimum (2, 2, 0)
    program = make_lp(
        "max",
        [2, 3, 1],
        [([1, 1, 1], LESS_EQUAL, 4), ([1, 0, 1], GREATER_EQUAL, 1), ([1, -1, 0], EQUAL, 0)],
    )
    certificates = []

    def spy(*args):
        certificates.append(args)
        _validate(*args)

    monkeypatch.setattr("zeroleak.lp._validate", spy)
    sol = solve_lp(program)
    assert sol.value == 10 and sol.assignment == (2, 2, 0)
    [(_program, assignment, value, duals)] = certificates
    # min -2x - 3y - z: y <= 0 on the <= row, y >= 0 on the >= row, free on =
    assert duals == [Fraction(-5, 2), 0, Fraction(1, 2)]
    _validate(program, assignment, value, duals)

    broken = [
        ([2, 2, -1], value, duals, "x >= 0 on variable 2"),
        ([3, 3, 0], value, duals, "broke constraint <= 4"),
        (assignment, value + 1, duals, "value does not match"),
        (assignment, value, [Fraction(-5, 2), -1, Fraction(1, 2)], "dual of a >= row has the wrong sign"),
        (assignment, value, [0, 0, 0], "negative reduced cost"),
        (assignment, value, [Fraction(-7, 2), 0, Fraction(1, 2)], "objectives differ"),
    ]
    for bad_assignment, bad_value, bad_duals, message in broken:
        with pytest.raises(ZeroleakError, match=message) as e:
            _validate(program, [Fraction(x) for x in bad_assignment], bad_value, bad_duals)
        assert e.value.code == "internal_error"


def _box_rows(bounds):
    # each box [lo, hi] as rows: lo > 0 as a >= row, a finite hi as a <= row
    rows = []
    for k, (lo, hi) in enumerate(bounds):
        unit = [1 if j == k else 0 for j in range(len(bounds))]
        if lo:
            rows.append((unit, GREATER_EQUAL, lo))
        if hi is not None:
            rows.append((unit, LESS_EQUAL, hi))
    return rows


def _brute_boxed_max(objective, constraints, bounds, steps: int = 6):
    # grid refinement is unreliable; enumerate candidate vertices instead:
    # all intersections of nvars active conditions drawn from rows and bounds
    nvars = len(objective)
    conditions = []
    for coeffs, _rel, rhs in constraints:
        conditions.append((coeffs, rhs))
    for k, (lo, hi) in enumerate(bounds):
        unit = [Fraction(0)] * nvars
        unit[k] = Fraction(1)
        conditions.append((list(unit), lo))
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
    for x, (lo, hi) in zip(point, bounds):
        if x < lo or x > hi:
            return False
    return True
