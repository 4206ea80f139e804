import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from zeroleak import DomainError, ResourceBudgetError, ZeroleakError
from zeroleak.lp import LinearProgram, _validate, solve_lp


def test_known_max():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6; optimum at (4, 0)
    lp = LinearProgram((3, 2), (((1, 1), 4), ((1, 3), 6)))
    sol = solve_lp(lp)
    assert sol.value == 12
    assert sol.assignment == (Fraction(4), Fraction(0))
    # prices are >= 0: the first row binds at 3 per unit
    assert sol.duals == (Fraction(3), Fraction(0))


def test_fractional_optimum_is_exact():
    # max x + y s.t. 3x + y <= 2, x + 3y <= 2; optimum (1/2, 1/2) -> 1
    lp = LinearProgram((1, 1), (((3, 1), 2), ((1, 3), 2)))
    sol = solve_lp(lp)
    assert sol.value == 1
    assert sol.assignment == (Fraction(1, 2), Fraction(1, 2))


def test_unbounded():
    # every program the package builds is bounded, so an unbounded one is a bug
    with pytest.raises(ZeroleakError) as e:
        solve_lp(LinearProgram((1, 0), (((0, 1), 1),)))
    assert e.value.code == "internal_error"


def test_unbounded_names_the_variable_not_the_column():
    # max 2x + y s.t. 2x <= 3, 2x - y <= 0: x enters on the second row, and
    # then that row's slack, variable 3, improves with no row to bound it
    with pytest.raises(ZeroleakError, match="unbounded along variable 3$") as e:
        solve_lp(LinearProgram((2, 1), (((2, 0), 3), ((2, -1), 0))))
    assert e.value.code == "internal_error"


def test_the_dictionary_holds_no_slack_identity():
    # 3,000 rows of 3 columns: 3,000 x 4 integers, where a slack column per
    # row would take 3,000 x 3,004 (about 72 MB of list slots alone)
    program = LinearProgram(
        (1, 1, 1), tuple(((i % 7 + 1, i * 3 % 5 + 1, i * 5 % 11 + 1), 100 + i) for i in range(3000))
    )
    tracemalloc.start()
    try:
        sol = solve_lp(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.value == Fraction(319, 15)
    assert peak < 5 * 2**20


def test_boxed_variables():
    lp = LinearProgram((1, 1), _box_rows([2, Fraction(1, 2)]))
    sol = solve_lp(lp)
    assert sol.value == Fraction(5, 2)
    assert sol.assignment == (Fraction(2), Fraction(1, 2))


def test_no_variables():
    sol = solve_lp(LinearProgram((), (((), 1),)))
    assert sol.value == 0
    assert sol.assignment == () and sol.duals == (Fraction(0),)


def test_validation_errors():
    with pytest.raises(DomainError) as e:
        LinearProgram((1,), (((1, 2), 0),))
    assert e.value.code == "dimension_mismatch"
    with pytest.raises(DomainError) as e:
        LinearProgram((1, 2.0), ())
    assert e.value.code == "bad_lp"


@pytest.mark.parametrize(
    "objective, row",
    [
        ((1,), ((1,), -1)),
        ((1,), ((1,), Fraction(-1, 3))),
        ((1,), ((Fraction(1, 2),), 1)),
        ((1,), ((1,), 1.0)),
        ((Fraction(1),), ((1,), 1)),
    ],
    ids=["negative_rhs", "negative_fractional_rhs", "fractional_coefficient", "float_rhs", "fraction_objective"],
)
def test_rows_outside_the_packing_form_are_rejected(objective, row):
    # the all-slack basis is feasible only for <= rows with rhs >= 0, and the
    # tableau takes its rows as they are, so every entry must be an int
    with pytest.raises(DomainError) as e:
        LinearProgram(objective, (((1,), 1), row))
    assert e.value.code == "bad_lp"


def test_random_boxed_lps_against_vertex_enumeration():
    """On fully boxed programs the optimum sits at a corner of some active set;
    brute-force it by checking every choice of binding rows/bounds."""
    rng = random.Random(99)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        nrows = rng.randint(0, 3)
        objective = [rng.randint(-3, 3) for _ in range(nvars)]
        constraints = []
        for _ in range(nrows):
            coeffs = [rng.randint(-2, 2) for _ in range(nvars)]
            constraints.append((coeffs, rng.randint(0, 4)))
        bounds = [rng.randint(1, 3) for _ in range(nvars)]
        program = LinearProgram(objective, constraints + _box_rows(bounds))
        sol = solve_lp(program)
        best = _brute_boxed_max(objective, constraints, bounds)
        assert sol.value == best
        _assert_dual_certificate(program, sol)


def _assert_dual_certificate(program, sol):
    # the prices of a max program: y >= 0, A^T y >= c and b.y == value
    rows = program.constraints
    assert len(sol.duals) == len(rows)
    assert all(y >= 0 for y in sol.duals)
    for k, c in enumerate(program.objective):
        assert sum(y * coeffs[k] for (coeffs, _rhs), y in zip(rows, sol.duals)) >= c
    assert sum(y * rhs for (_coeffs, rhs), y in zip(rows, sol.duals)) == sol.value


def test_random_fractional_rows_against_vertex_enumeration():
    """Rows drawn with Fraction entries, each scaled to integers: the same
    feasible set, so the brute force over the Fraction rows still checks
    non-unit coefficients; two of the right-hand sides drawn are zero."""
    rng = random.Random(7)

    def frac(lo, hi):
        return Fraction(rng.randint(lo * 6, hi * 6), rng.randint(1, 6))

    for _ in range(60):
        nvars = rng.randint(1, 3)
        nrows = rng.randint(1, 3)
        objective = [frac(-3, 3) for _ in range(nvars)]
        constraints = [([frac(-2, 2) for _ in range(nvars)], frac(0, 4)) for _ in range(nrows)]
        bounds = [frac(1, 3) for _ in range(nvars)]
        # the objective times its scale has the same maximizers, and that times the optimum
        scale = math.lcm(*(c.denominator for c in objective))
        integer_objective = [int(c * scale) for c in objective]
        integer_rows = [_integer_row(coeffs, rhs) for coeffs, rhs in constraints]
        program = LinearProgram(integer_objective, integer_rows + _box_rows(bounds))
        sol = solve_lp(program)
        assert sol.value == scale * _brute_boxed_max(objective, constraints, bounds)
        _assert_dual_certificate(program, sol)


def test_pivots_are_charged_to_the_budget(monkeypatch):
    # five unit caps: Bland's rule brings in each variable with its own pivot
    lp = LinearProgram([1] * 5, [([1 if j == i else 0 for j in range(5)], 1) for i in range(5)])
    assert solve_lp(lp).value == 5
    monkeypatch.setenv("ZEROLEAK_BUDGET", "3")
    with pytest.raises(ResourceBudgetError) as e:
        solve_lp(lp)
    assert e.value.budget_name == "lp_pivots"
    assert e.value.detail["budget"] == "lp_pivots"


def test_validate_rejects_each_broken_certificate(monkeypatch):
    # max 2x + 3y + z s.t. x + y + z <= 4, y - x <= 0, 2x + z <= 5; optimum (2, 2, 0)
    program = LinearProgram((2, 3, 1), (((1, 1, 1), 4), ((-1, 1, 0), 0), ((2, 0, 1), 5)))
    certificates = []

    def spy(*args):
        certificates.append(args)
        _validate(*args)

    monkeypatch.setattr("zeroleak.lp._validate", spy)
    sol = solve_lp(program)
    assert sol.value == 10 and sol.assignment == (2, 2, 0)
    [(_program, assignment, value, duals)] = certificates
    # prices are >= 0; the slack third row has price 0
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
    # each box [0, hi] as one integer row q x_k <= p for hi = p/q; x_k >= 0 is the solver's own
    return [_integer_row([1 if j == k else 0 for j in range(len(highs))], hi) for k, hi in enumerate(highs)]


def _integer_row(coeffs, rhs):
    # the row times the lcm of its denominators: the same half-space in ints
    values = [Fraction(c) for c in (*coeffs, rhs)]
    scale = math.lcm(*(q.denominator for q in values))
    ints = [q.numerator * (scale // q.denominator) for q in values]
    return ints[:-1], ints[-1]


def _brute_boxed_max(objective, constraints, bounds, steps: int = 6):
    # grid refinement is unreliable; enumerate candidate vertices instead:
    # all intersections of nvars active conditions drawn from rows and bounds
    nvars = len(objective)
    conditions = []
    for coeffs, rhs in constraints:
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
    for coeffs, rhs in constraints:
        if sum(c * x for c, x in zip(coeffs, point)) > rhs:
            return False
    for x, hi in zip(point, bounds):
        if x < 0 or x > hi:
            return False
    return True
