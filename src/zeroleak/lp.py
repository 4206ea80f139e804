"""Exact linear programming over integer packing rows.

A one-phase primal simplex with Bland's anti-cycling rule for one shape of
program: maximize `c·x` over x >= 0 subject to rows `A x <= b`, where every
entry of c, A and b is an int and b >= 0.  The all-slack basis is then
feasible, so no phase 1 is needed; every program this package builds is
posed in that form, and a covering program is read off as the dual of its
packing form.  The rows go into the tableau as they are, with no scaling,
and the tableau holds one common denominator `d` for all of its entries.
Pivots are fraction-free (Edmonds 1967; Bareiss 1968), so every division
by `d` is exact, and there is no floating point anywhere in the
optimization path: optima are exact and runs are deterministic.  Only the
returned values are `Fraction`s.  Every optimum carries a dual certificate
that is checked exactly against the program before it is returned.
Intended for the desk-scale programs this package builds, not for
general-purpose solving.
"""

from __future__ import annotations

from fractions import Fraction

from .budget import WorkMeter
from .errors import DomainError, ZeroleakError
from .values import FrozenValue


class LinearProgram(FrozenValue):
    """Maximize `objective·x` over x >= 0 subject to every `coeffs·x <= rhs` row.

    Every entry is an int and every rhs is >= 0.
    """

    objective: tuple[int, ...]
    constraints: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        width = len(self.objective)
        # the objective is checked as one more row, with right-hand side 0
        for coeffs, rhs in ((self.objective, 0), *self.constraints):
            if len(coeffs) != width:
                raise DomainError(
                    "dimension_mismatch",
                    f"constraint width {len(coeffs)} does not match objective width {width}",
                )
            if not (isinstance(rhs, int) and all(isinstance(c, int) for c in coeffs)):
                raise DomainError("bad_lp", "every entry of the program must be an int")
            if rhs < 0:
                raise DomainError("bad_lp", f"every right-hand side must be >= 0, got {rhs}")


class LpSolution(FrozenValue):
    """An optimum, the assignment that attains it, and its row prices.

    `duals` has one price per row, the rate at which the optimum moves with
    that row's right-hand side: each is >= 0, and `sum(rhs * y) == value`.
    """

    value: Fraction
    assignment: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]


def _validate(program: LinearProgram, assignment, value, duals) -> None:
    """Exact optimality certificate; exact re-validation is part of solve_lp's contract.

    `assignment` must be nonnegative, meet every row of `program` and attain
    `value`.  `duals`, one per row, must be nonnegative, leave no negative
    reduced cost (A^T y >= c) and attain `sum(rhs * y) == value`, which
    proves `assignment` optimal by weak duality.
    """
    for k, x in enumerate(assignment):
        if x < 0:
            raise ZeroleakError("internal_error", f"solver broke x >= 0 on variable {k}")
    for coeffs, rhs in program.constraints:
        if sum(c * x for c, x in zip(coeffs, assignment) if c) > rhs:
            raise ZeroleakError("internal_error", f"solver broke constraint <= {rhs}")
    achieved = sum(c * x for c, x in zip(program.objective, assignment))
    if achieved != value:
        raise ZeroleakError("internal_error", "solver value does not match assignment")

    reduced = [-c for c in program.objective]
    for (coeffs, _rhs), y in zip(program.constraints, duals):
        if y < 0:
            raise ZeroleakError("internal_error", "dual of a <= row has the wrong sign")
        if y:
            reduced = [r + y * a if a else r for r, a in zip(reduced, coeffs)]
    if any(r < 0 for r in reduced):
        raise ZeroleakError("internal_error", "dual certificate has a negative reduced cost")
    dual = sum(y * rhs for (_coeffs, rhs), y in zip(program.constraints, duals))
    if dual != value:
        raise ZeroleakError("internal_error", "primal and dual objectives differ")


def solve_lp(program: LinearProgram) -> LpSolution:
    """Exact optimum over x >= 0 with deterministic pivoting, from the all-slack basis.

    Every program this package builds is bounded, so an unbounded one raises
    `internal_error`.  The optimum is certified before it is returned: the
    primal against x >= 0 and every row, the duals read from the final
    tableau against the program itself.  Each pivot is charged to the
    `lp_pivots` work budget.
    """
    ncols = len(program.objective)
    nrows = len(program.constraints)

    # Row k gets its slack column ncols + k, and its right-hand side last.
    tableau = [[*coeffs] + [0] * nrows + [rhs] for coeffs, rhs in program.constraints]
    for k, row in enumerate(tableau):
        row[ncols + k] = 1
    # Minimize -objective; the slacks cost nothing, so on the all-slack basis
    # the reduced costs are the costs themselves.
    obj = [-c for c in program.objective] + [0] * (nrows + 1)
    tab = _Tableau(tableau, list(range(ncols, ncols + nrows)), obj, WorkMeter("lp_pivots"))
    tab.run()

    d = tab.d
    assignment = [Fraction(0)] * ncols
    for row, b in zip(tableau, tab.basis):
        if b < ncols:
            assignment[b] = Fraction(row[-1], d)
    # Row k's slack has reduced cost d times the row's price.
    duals = tuple(Fraction(tab.obj[ncols + k], d) for k in range(nrows))
    value = sum((c * x for c, x in zip(program.objective, assignment)), Fraction(0))
    _validate(program, assignment, value, duals)
    return LpSolution(value, tuple(assignment), duals)


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

    def run(self) -> None:
        """Bland's rule until optimal; a column no row bounds raises `internal_error`."""
        rows, basis = self.rows, self.basis
        while True:
            obj = self.obj
            entering = next((j for j in range(len(obj) - 1) if obj[j] < 0), -1)
            if entering < 0:
                return
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
                raise ZeroleakError("internal_error", f"the program is unbounded along column {entering}")
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
