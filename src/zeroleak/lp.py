"""Exact linear programming over integer packing rows.

A one-phase primal simplex with Bland's anti-cycling rule for one shape of
program: maximize `c·x` over x >= 0 subject to rows `A x <= b`, where every
entry of c, A and b is an int and b >= 0.  The all-slack basis is then
feasible, so no phase 1 is needed; every program this package builds is
posed in that form, and a covering program is read off as the dual of its
packing form.  The rows go into an integer dictionary as they are, with no
scaling: it keeps only the nonbasic columns, so a program of m rows and n
columns takes m × (n + 1) integers and no slack identity, and every entry
shares one common denominator `d` (Chvátal 1983; Avis's lrs, 2000).
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
    dictionary against the program itself.  Each pivot is charged to the
    `lp_pivots` work budget.

    The dictionary keeps `d` times the entries of the nonbasic columns only:
    `rows[i]` for the variable `basis[i]`, with its right-hand side last,
    and `obj` for the reduced costs.  Column j holds the variable
    `nonbasic[j]`; variable k < n is structural and n + i is row i's slack.
    Every entry is, up to sign, a minor of the integer input, which is why
    the division in `_eliminate` is exact.
    """
    n = len(program.objective)
    m = len(program.constraints)
    rows = [[*coeffs, rhs] for coeffs, rhs in program.constraints]
    # Minimize -objective; on the all-slack basis the reduced costs are the costs.
    obj = [-c for c in program.objective] + [0]
    nonbasic = list(range(n))
    basis = list(range(n, n + m))
    meter = WorkMeter("lp_pivots")
    d = 1
    while True:
        # Bland's rule: the lowest variable label among the improving columns
        e = min((j for j in range(n) if obj[j] < 0), key=nonbasic.__getitem__, default=-1)
        if e < 0:
            break
        r = -1
        for i, row in enumerate(rows):
            a = row[e]
            if a > 0:
                if r < 0:
                    r = i
                    continue
                # compare row[-1] / a with the best ratio by cross-multiplying
                best = rows[r]
                lhs, rhs = row[-1] * best[e], best[-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        if r < 0:
            raise ZeroleakError("internal_error", f"the program is unbounded along variable {nonbasic[e]}")
        meter.spend(1)
        prow = rows[r]
        p = prow[e]
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, prow, p, e, d)
        obj = _eliminate(obj, prow, p, e, d)
        # column e now holds the leaving variable, d times its unit column before
        prow[e] = d
        nonbasic[e], basis[r] = basis[r], nonbasic[e]
        d = p

    assignment = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        if b < n:
            assignment[b] = Fraction(row[-1], d)
    # A nonbasic slack's reduced cost is d times its row's price; a basic one's is 0.
    duals = [Fraction(0)] * m
    for j, b in enumerate(nonbasic):
        if b >= n:
            duals[b - n] = Fraction(obj[j], d)
    value = sum((c * x for c, x in zip(program.objective, assignment)), Fraction(0))
    _validate(program, assignment, value, tuple(duals))
    return LpSolution(value, tuple(assignment), tuple(duals))


def _eliminate(row: list[int], prow: list[int], p: int, e: int, d: int) -> list[int]:
    """One fraction-free step, (p * row - row[e] * prow) / d exactly, then -row[e] in column e."""
    f = row[e]
    if f == 0:
        return row if p == d else [x * p // d for x in row]
    out = [(x * p - f * y) // d for x, y in zip(row, prow)]
    out[e] = -f
    return out
