"""Exact linear programming over rationals.

A small two-phase primal simplex with Bland's anti-cycling rule, for
programs in standard form: every variable is nonnegative, and every
constraint is a `<=`, `=` or `>=` row.  There is no floating point anywhere
in the optimization path, so optima are exact and runs are deterministic.
The tableau is integer: each row is scaled to integers once, and the tableau
then holds one common denominator `d` for all of its entries.  Pivots are
fraction-free (Edmonds 1967; Bareiss 1968), so every division by `d` is
exact.  Only the returned values are `Fraction`s.  Every optimum carries a
dual certificate that is checked exactly against the program before it is
returned.  Intended for the desk-scale programs this package builds (tens
of rows), not for general-purpose solving.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .budget import WorkMeter
from .errors import DomainError, ZeroleakError
from .values import FrozenValue

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)
_FLIPPED = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}


class LinearProgram(FrozenValue):
    """Optimize `objective` over x >= 0 subject to every row of `constraints`."""

    sense: str  # "min" or "max"
    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise DomainError("bad_lp", f"sense must be 'min' or 'max', got {self.sense!r}")
        width = len(self.objective)
        for coeffs, rel, _rhs in self.constraints:
            if len(coeffs) != width:
                raise DomainError(
                    "dimension_mismatch",
                    f"constraint width {len(coeffs)} does not match objective width {width}",
                )
            if rel not in _RELATIONS:
                raise DomainError("bad_lp", f"unknown relation {rel!r}")


class LpSolution(FrozenValue):
    status: str  # "optimal", "infeasible", "unbounded"
    value: Fraction | None
    assignment: tuple[Fraction, ...] | None


def make_lp(sense, objective, constraints) -> LinearProgram:
    """Coerce plain numbers into a LinearProgram over x >= 0."""
    objective = tuple(Fraction(c) for c in objective)
    rows = []
    for coeffs, rel, rhs in constraints:
        rows.append((tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs)))
    return LinearProgram(sense, objective, tuple(rows))


def _validate(program: LinearProgram, assignment, value, duals) -> None:
    """Exact optimality certificate; exact re-validation is part of solve_lp's contract.

    `assignment` must be nonnegative, meet every constraint of `program` and
    attain `value`.  `duals`, one per constraint, must be a feasible dual of
    minimising `sign * objective` (sign per relation, no negative reduced
    cost) with objective `sign * value`, which proves `assignment` optimal
    by weak duality.
    """
    for k, x in enumerate(assignment):
        if x < 0:
            raise ZeroleakError("internal_error", f"solver broke x >= 0 on variable {k}")
    for coeffs, rel, rhs in program.constraints:
        lhs = sum(c * x for c, x in zip(coeffs, assignment) if c)
        ok = lhs <= rhs if rel == LESS_EQUAL else lhs >= rhs if rel == GREATER_EQUAL else lhs == rhs
        if not ok:
            raise ZeroleakError("internal_error", f"solver broke constraint {rel} {rhs}")
    achieved = sum(c * x for c, x in zip(program.objective, assignment))
    if achieved != value:
        raise ZeroleakError("internal_error", "solver value does not match assignment")

    sign = 1 if program.sense == "min" else -1
    reduced = [sign * c for c in program.objective]
    for (coeffs, rel, _rhs), y in zip(program.constraints, duals):
        if (rel == LESS_EQUAL and y > 0) or (rel == GREATER_EQUAL and y < 0):
            raise ZeroleakError("internal_error", f"dual of a {rel} row has the wrong sign")
        if y:
            reduced = [r - y * a if a else r for r, a in zip(reduced, coeffs)]
    if any(r < 0 for r in reduced):
        raise ZeroleakError("internal_error", "dual certificate has a negative reduced cost")
    dual = sum(y * rhs for (_coeffs, _rel, rhs), y in zip(program.constraints, duals))
    if dual != sign * value:
        raise ZeroleakError("internal_error", "primal and dual objectives differ")


def solve_lp(program: LinearProgram) -> LpSolution:
    """Exact optimum over x >= 0 with deterministic pivoting.

    Infeasible and unbounded programs are reported through the status field,
    never as exceptions.  Optimal solutions are certified before they are
    returned: the primal against x >= 0 and every constraint, the dual read
    from the final tableau against the program itself.  Each pivot is
    charged to the `lp_pivots` work budget.
    """
    ncols = len(program.objective)

    # --- integer tableau with slack/surplus/artificial columns ------------
    # Each row gets rhs >= 0 and is scaled to integers by the lcm of its
    # denominators; `multipliers` keeps that signed scale for the duals.
    specs = []
    slack_cols = 0
    art_cols = 0
    for coeffs, rel, rhs in program.constraints:
        scale = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
        if rhs < 0:
            scale, rel = -scale, _FLIPPED[rel]
        specs.append(([c.numerator * (scale // c.denominator) for c in (*coeffs, rhs)], rel, scale))
        slack_cols += rel != EQUAL
        art_cols += rel != LESS_EQUAL
    total_cols = ncols + slack_cols + art_cols
    art_start = ncols + slack_cols
    slack_at = ncols
    art_at = art_start
    tableau: list[list[int]] = []
    units: list[int] = []  # the +1 slack or artificial column of each row
    multipliers: list[int] = []
    for ints, rel, scale in specs:
        row = ints[:-1] + [0] * (slack_cols + art_cols) + ints[-1:]
        if rel != EQUAL:
            row[slack_at] = 1 if rel == LESS_EQUAL else -1
            slack_at += 1
        if rel == LESS_EQUAL:
            unit = slack_at - 1
        else:
            unit = art_at
            row[art_at] = 1
            art_at += 1
        tableau.append(row)
        units.append(unit)
        multipliers.append(scale)
    basis = list(units)
    tab = _Tableau(tableau, basis, WorkMeter("lp_pivots"))

    # --- phase 1 ----------------------------------------------------------
    if art_cols:
        tab.price([0] * art_start + [1] * art_cols)
        tab.run(art_start)
        if any(row[-1] for row, b in zip(tableau, basis) if b >= art_start):
            return LpSolution("infeasible", None, None)
        # pivot surviving artificials out of the (degenerate) basis
        for i in range(len(tableau) - 1, -1, -1):
            if basis[i] < art_start:
                continue
            entering = next((j for j in range(art_start) if tableau[i][j] != 0), -1)
            if entering < 0:
                del tableau[i]
                del basis[i]
            else:
                tab.pivot(i, entering)

    # --- phase 2 ----------------------------------------------------------
    sign = 1 if program.sense == "min" else -1
    costs = [sign * c for c in program.objective]
    cost_scale = math.lcm(*(c.denominator for c in costs))
    tab.price([c.numerator * (cost_scale // c.denominator) for c in costs] + [0] * (total_cols - ncols))
    if tab.run(art_start) == "unbounded":
        return LpSolution("unbounded", None, None)

    d = tab.d
    assignment = [Fraction(0)] * ncols
    for row, b in zip(tableau, basis):
        if b < ncols:
            assignment[b] = Fraction(row[-1], d)
    # The reduced cost of row k's unit column is -y_k (times d and the cost
    # scale) for the scaled row; a deleted row's column is all zero, so y = 0.
    duals = [Fraction(-tab.obj[j] * m, d * cost_scale) for j, m in zip(units, multipliers)]
    value = sum((c * x for c, x in zip(program.objective, assignment)), Fraction(0))
    _validate(program, assignment, value, duals)
    return LpSolution("optimal", value, tuple(assignment))


class _Tableau:
    """Integer simplex tableau sharing one common denominator `d` > 0.

    `rows` (with the right-hand side last) and the objective row `obj` hold
    `d` times the entries and reduced costs of the usual simplex tableau.
    Every entry is, up to sign, a minor of the integer input, which is why
    the division in `pivot` is exact.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], meter: WorkMeter):
        self.rows = rows
        self.basis = basis
        self.meter = meter
        self.d = 1
        self.obj: list[int] = []

    def price(self, costs: list[int]) -> None:
        """Objective row for integer `costs`: d * c_j - sum_i c_basis(i) * rows[i][j]."""
        obj = [self.d * c for c in costs] + [0]
        for row, b in zip(self.rows, self.basis):
            cb = costs[b]
            if cb:
                obj = [o - cb * x for o, x in zip(obj, row)]
        self.obj = obj

    def run(self, allowed: int) -> str:
        """Bland's rule over the columns below `allowed` until optimal or unbounded."""
        rows, basis = self.rows, self.basis
        while True:
            obj = self.obj
            entering = next((j for j in range(allowed) if obj[j] < 0), -1)
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
        if p < 0:
            # Only the phase-1 drive-out pivots on a negative entry; its row
            # has rhs 0, and negating it keeps d > 0.
            prow = rows[r] = [-x for x in prow]
            p = -p
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
