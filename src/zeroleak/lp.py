"""Exact linear programming over rationals.

A one-phase primal simplex with Bland's anti-cycling rule, for packing-shaped
programs: optimize `c·x` over x >= 0 subject to rows `A x <= b` with
`b >= 0`.  The all-slack basis is then feasible, so no phase 1 is needed;
every program this package builds is posed in that form, and a covering
program is read off as the dual of its packing form.  There is no floating
point anywhere in the optimization path, so optima are exact and runs are
deterministic.  The tableau is integer: each row is scaled to integers once,
and the tableau then holds one common denominator `d` for all of its
entries.  Pivots are fraction-free (Edmonds 1967; Bareiss 1968), so every
division by `d` is exact.  Only the returned values are `Fraction`s.  Every
optimum carries a dual certificate that is checked exactly against the
program before it is returned.  Intended for the desk-scale programs this
package builds, not for general-purpose solving.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .budget import WorkMeter
from .errors import DomainError, ZeroleakError
from .values import FrozenValue

LESS_EQUAL = "<="


class LinearProgram(FrozenValue):
    """Optimize `objective` over x >= 0 subject to every `coeffs·x <= rhs` row, rhs >= 0."""

    sense: str  # "min" or "max"
    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise DomainError("bad_lp", f"sense must be 'min' or 'max', got {self.sense!r}")
        width = len(self.objective)
        for coeffs, rel, rhs in self.constraints:
            if len(coeffs) != width:
                raise DomainError(
                    "dimension_mismatch",
                    f"constraint width {len(coeffs)} does not match objective width {width}",
                )
            if rel != LESS_EQUAL:
                raise DomainError("bad_lp", f"every row must be {LESS_EQUAL!r}, got {rel!r}")
            if rhs < 0:
                raise DomainError("bad_lp", f"every right-hand side must be >= 0, got {rhs}")


class LpSolution(FrozenValue):
    """An optimum and its row prices, or an `unbounded` status with every field None.

    `duals` has one price per row, signed as the rate at which the optimum
    moves with that row's right-hand side: >= 0 for a max program, <= 0 for
    a min program, and `sum(rhs * y) == value`.
    """

    status: str  # "optimal" or "unbounded"
    value: Fraction | None
    assignment: tuple[Fraction, ...] | None
    duals: tuple[Fraction, ...] | None


def make_lp(sense, objective, constraints) -> LinearProgram:
    """Coerce plain numbers into a LinearProgram over x >= 0."""
    objective = tuple(Fraction(c) for c in objective)
    rows = []
    for coeffs, rel, rhs in constraints:
        rows.append((tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs)))
    return LinearProgram(sense, objective, tuple(rows))


def _validate(program: LinearProgram, assignment, value, duals) -> None:
    """Exact optimality certificate; exact re-validation is part of solve_lp's contract.

    `assignment` must be nonnegative, meet every row of `program` and attain
    `value`.  `duals`, one per row, must be signed as `LpSolution` says,
    leave no reduced cost of the wrong sign (A^T y >= c for a max program,
    <= c for a min program) and attain `sum(rhs * y) == value`, which proves
    `assignment` optimal by weak duality.
    """
    for k, x in enumerate(assignment):
        if x < 0:
            raise ZeroleakError("internal_error", f"solver broke x >= 0 on variable {k}")
    for coeffs, _rel, rhs in program.constraints:
        if sum(c * x for c, x in zip(coeffs, assignment) if c) > rhs:
            raise ZeroleakError("internal_error", f"solver broke constraint <= {rhs}")
    achieved = sum(c * x for c, x in zip(program.objective, assignment))
    if achieved != value:
        raise ZeroleakError("internal_error", "solver value does not match assignment")

    sign = 1 if program.sense == "min" else -1
    reduced = [sign * c for c in program.objective]
    for (coeffs, _rel, _rhs), y in zip(program.constraints, duals):
        if sign * y > 0:
            raise ZeroleakError("internal_error", "dual of a <= row has the wrong sign")
        if y:
            reduced = [r - sign * y * a if a else r for r, a in zip(reduced, coeffs)]
    if any(r < 0 for r in reduced):
        raise ZeroleakError("internal_error", "dual certificate has a negative reduced cost")
    dual = sum(y * rhs for (_coeffs, _rel, rhs), y in zip(program.constraints, duals))
    if dual != value:
        raise ZeroleakError("internal_error", "primal and dual objectives differ")


def solve_lp(program: LinearProgram) -> LpSolution:
    """Exact optimum over x >= 0 with deterministic pivoting, from the all-slack basis.

    An unbounded program is reported through the status field, never as an
    exception.  Optimal solutions are certified before they are returned:
    the primal against x >= 0 and every row, the duals read from the final
    tableau against the program itself.  Each pivot is charged to the
    `lp_pivots` work budget.
    """
    ncols = len(program.objective)
    nrows = len(program.constraints)

    # Each row is scaled to integers by the lcm of its denominators, and gets
    # its slack column ncols + k; `multipliers` keeps the scale for the duals.
    tableau: list[list[int]] = []
    multipliers: list[int] = []
    for k, (coeffs, _rel, rhs) in enumerate(program.constraints):
        scale = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
        row = [c.numerator * (scale // c.denominator) for c in coeffs] + [0] * nrows
        row[ncols + k] = 1
        row.append(rhs.numerator * (scale // rhs.denominator))
        tableau.append(row)
        multipliers.append(scale)
    # Minimise sign * objective, scaled to integers; the slacks cost nothing,
    # so on the all-slack basis the reduced costs are the costs themselves.
    sign = 1 if program.sense == "min" else -1
    costs = [sign * c for c in program.objective]
    cost_scale = math.lcm(*(c.denominator for c in costs))
    obj = [c.numerator * (cost_scale // c.denominator) for c in costs] + [0] * (nrows + 1)
    tab = _Tableau(tableau, list(range(ncols, ncols + nrows)), obj, WorkMeter("lp_pivots"))
    if tab.run() == "unbounded":
        return LpSolution("unbounded", None, None, None)

    d = tab.d
    assignment = [Fraction(0)] * ncols
    for row, b in zip(tableau, tab.basis):
        if b < ncols:
            assignment[b] = Fraction(row[-1], d)
    # Row k's slack has reduced cost -y_k / m_k, times d and the cost scale,
    # where y_k is the row's dual in minimising sign * objective and m_k its
    # integer scale; sign * y_k is the row's price.
    duals = tuple(Fraction(-sign * tab.obj[ncols + k] * m, d * cost_scale) for k, m in enumerate(multipliers))
    value = sum((c * x for c, x in zip(program.objective, assignment)), Fraction(0))
    _validate(program, assignment, value, duals)
    return LpSolution("optimal", value, tuple(assignment), duals)


class _Tableau:
    """Integer simplex tableau sharing one common denominator `d` > 0.

    `rows` (with the right-hand side last) and the objective row `obj` hold
    `d` times the entries and reduced costs of the usual simplex tableau.
    Every entry is, up to sign, a minor of the integer input, which is why
    the division in `pivot` is exact.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], obj: list[int], meter: WorkMeter):
        self.rows = rows
        self.basis = basis
        self.obj = obj
        self.meter = meter
        self.d = 1

    def run(self) -> str:
        """Bland's rule until optimal or unbounded."""
        rows, basis = self.rows, self.basis
        while True:
            obj = self.obj
            entering = next((j for j in range(len(obj) - 1) if obj[j] < 0), -1)
            if entering < 0:
                return "optimal"
            leave = -1
            for i, row in enumerate(rows):
                a = row[entering]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    # compare row[-1] / a with the best ratio by cross-multiplying
                    best = rows[leave]
                    lhs, rhs = row[-1] * best[entering], best[-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, entering)

    def pivot(self, r: int, e: int) -> None:
        self.meter.spend(1)
        rows, d = self.rows, self.d
        prow = rows[r]
        p = prow[e]
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, prow, p, e, d)
        self.obj = _eliminate(self.obj, prow, p, e, d)
        self.basis[r] = e
        self.d = p


def _eliminate(row: list[int], prow: list[int], p: int, e: int, d: int) -> list[int]:
    """One fraction-free elimination step: (p * row - row[e] * prow) / d, exactly."""
    f = row[e]
    if f == 0:
        return row if p == d else [x * p // d for x in row]
    return [(x * p - f * y) // d for x, y in zip(row, prow)]
