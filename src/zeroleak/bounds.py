"""Single-letter bounds against the paper's generalized adversaries.

A multi-guess adversary may name several sequences per block, as many as a
`GuessBudget` allows at block length t; an approximate-guess adversary wins
by naming any vertex next to the truth in a second graph theta.  For these
the paper gives two-sided bounds on the optimal leakage rate, not its value,
and each function here returns them as a `BoundsReport` with a note for
where each side came from.  The schemes themselves are in `leakage`, which
this module does not import; the LPs are reached through `programs`.
Reports and budgets are frozen values (`values.FrozenValue`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable

from . import programs
from .budget import AUTOMORPHISM_VERTEX_CAP, WorkMeter
from .errors import DomainError
from .graphs import (
    Graph,
    _capped_power,
    independence_number,
    is_vertex_transitive,
    maximal_independent_sets,
    product_traces,
    trace_masks,
)
from .rationals import LeakageValue, _shown_in_message
from .values import FrozenValue


class BoundsReport(FrozenValue):
    """Two-sided leakage bounds with a note for where each side came from."""

    lower: LeakageValue
    upper: LeakageValue
    tight: bool
    provenance: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.lower.log2_of > self.upper.log2_of:
            raise DomainError("bad_bounds", f"lower {self.lower.log2_of} exceeds upper {self.upper.log2_of}")
        if self.tight != (self.lower.log2_of == self.upper.log2_of):
            raise DomainError("bad_bounds", "tight flag must mirror lower == upper")


def _shown(value) -> str:
    """repr(value) for a `bad_budget` message, but a number with a part of
    over 100 digits is named by its size (`rationals._shown_in_message`)."""
    return _shown_in_message(value, repr) if isinstance(value, (int, Fraction)) else repr(value)


class GuessBudget(FrozenValue):
    """How many guesses the adversary may spend at block length t.

    Kinds: a constant count, a polynomial t**degree, an exponential
    ceil(base**t), or an explicit per-t table with an optionally declared
    growth base.  The growth base 1 marks a subexponential budget.
    """

    kind: str
    count: int | None = None
    degree: int | None = None
    base: Fraction | None = None
    values: tuple[int, ...] | None = None
    growth: Fraction | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if not isinstance(self.count, int) or self.count < 1:
                raise DomainError("bad_budget", f"constant budget needs a count >= 1, got {_shown(self.count)}")
        elif self.kind == "polynomial":
            if not isinstance(self.degree, int) or self.degree < 0:
                raise DomainError("bad_budget", f"polynomial budget needs a degree >= 0, got {_shown(self.degree)}")
        elif self.kind == "exponential":
            if not isinstance(self.base, Fraction) or self.base < 1:
                raise DomainError(
                    "bad_budget", f"exponential budget needs a rational base >= 1, got {_shown(self.base)}"
                )
        elif self.kind == "table":
            if not self.values:
                raise DomainError("bad_budget", "table budget needs at least one value")
            for g in self.values:
                if not isinstance(g, int) or g < 1:
                    raise DomainError("bad_budget", f"table entries must be integers >= 1, got {_shown(g)}")
            if self.growth is not None and (not isinstance(self.growth, Fraction) or self.growth < 1):
                raise DomainError("bad_budget", f"declared growth must be a rational >= 1, got {_shown(self.growth)}")
        else:
            raise DomainError("bad_budget", f"unknown budget kind {self.kind!r}")

    @classmethod
    def constant(cls, count: int) -> "GuessBudget":
        return cls("constant", count=count)

    @classmethod
    def polynomial(cls, degree: int) -> "GuessBudget":
        return cls("polynomial", degree=degree)

    @classmethod
    def exponential(cls, base) -> "GuessBudget":
        return cls("exponential", base=Fraction(base))

    @classmethod
    def table(cls, values, growth=None) -> "GuessBudget":
        return cls("table", values=tuple(values), growth=None if growth is None else Fraction(growth))

    def guesses(self, t: int) -> int:
        if not isinstance(t, int) or t < 1:
            raise DomainError("bad_power", f"block length t must be >= 1, got {t!r}")
        if self.kind == "constant":
            return self.count
        if self.kind == "polynomial":
            return t**self.degree
        if self.kind == "exponential":
            p, q = self.base.numerator, self.base.denominator
            return -((-(p**t)) // (q**t))
        if t > len(self.values):
            raise DomainError(
                "budget_table_range",
                f"table budget covers t up to {len(self.values)}, asked for t={t}",
                {"t": t, "length": len(self.values)},
            )
        return self.values[t - 1]

    def sigma_is_zero(self) -> bool:
        """Whether the budget grows subexponentially (zero exponential rate)."""
        if self.kind in ("constant", "polynomial"):
            return True
        if self.kind == "exponential":
            return self.base == 1
        if self.growth is None:
            raise DomainError("undeclared_growth", "table budget has no declared growth base")
        return self.growth == 1


def _budget_fits(budget: GuessBudget, beta: Fraction, cap_at: Callable[[int], int]) -> bool:
    """Whether guesses(t) stays within the per-t cap for every t.

    cap_at(t) is the exact cap; beta is its per-step growth floor, so
    cap_at(t) >= ceil(beta**t) and cap_at never decreases.  Table budgets are
    checked entry by entry against the exact cap; a constant budget only needs
    the first cap; polynomial and exponential budgets are screened against the
    growth floor, the polynomial one by `_exceeds`, so a huge degree builds no
    power whose size alone decides.
    """
    if budget.kind == "constant":
        return budget.count <= cap_at(1)
    if budget.kind == "exponential":
        return budget.base <= beta
    if budget.kind == "polynomial":
        if budget.degree == 0:
            return True
        if beta <= 1:
            return False
        p, q, d = beta.numerator, beta.denominator, budget.degree
        t = 1
        while True:
            if _exceeds(((t, d), (q, t)), ((p, t),)):  # t**d * q**t > p**t
                return False
            # once per-step growth of t**d dips under beta, induction closes it
            if not _exceeds(((t + 1, d), (q, 1)), ((p, 1), (t, d))):  # (t+1)**d * q <= p * t**d
                return True
            t += 1
    return all(g <= cap_at(t) for t, g in enumerate(budget.values, start=1))


def _exceeds(left, right) -> bool:
    """Whether the product of base**exp over left's (base, exp) pairs exceeds
    right's, for bases >= 1 and exponents >= 0.

    The two products' bit lengths are bounded first; the exact powers are
    built only when the bounds overlap, so a huge exponent costs nothing
    when the sizes alone decide.
    """
    (left_lo, left_hi), (right_lo, right_hi) = _bit_length_bounds(left), _bit_length_bounds(right)
    if left_lo > right_hi:
        return True
    if left_hi < right_lo:
        return False
    return math.prod(b**e for b, e in left) > math.prod(b**e for b, e in right)


def _bit_length_bounds(factors) -> tuple[int, int]:
    """Least and greatest bit length of the product of base**exp over factors.

    A base of b bits raised to e > 0 has (b - 1) * e + 1 to b * e bits, and a
    product of k numbers has up to k - 1 bits fewer than their sum.
    """
    lo = hi = 0
    for base, exp in factors:
        if base == 1 or exp == 0:
            lo, hi = lo + 1, hi + 1
        else:
            b = base.bit_length()
            lo, hi = lo + (b - 1) * exp + 1, hi + b * exp
    return lo - len(factors) + 1, hi


def _require_same_vertices(gamma: Graph, theta: Graph) -> None:
    if gamma.vertex_count != theta.vertex_count or gamma.labels != theta.labels:
        raise DomainError(
            "vertex_set_mismatch",
            "confusion and adversary graphs must share one vertex set (count and labels)",
        )


def multi_guess_bounds(gamma: Graph, budget: GuessBudget) -> BoundsReport:
    """Bounds on the optimal leakage rate against a multi-guess adversary.

    Admissible budgets never exceed the independent sets available, i.e.
    guesses(t) <= alpha**t.  The rate then sits between log2(n/alpha) and
    log2 of the fractional chromatic number; a subexponential budget is worth
    no more than a single guess, which lifts the lower side to the upper.
    """
    n = gamma.vertex_count
    alpha = independence_number(gamma)
    if not _budget_fits(budget, Fraction(alpha), lambda t: alpha**t):
        raise DomainError(
            "inadmissible_budget",
            f"budget exceeds the {alpha}**t independent vertices available",
            {"alpha": alpha},
        )
    chi = programs.fractional_chromatic(gamma).value
    provenance: list[tuple[str, str]] = []
    try:
        sigma_zero = budget.sigma_is_zero()
    except DomainError:
        sigma_zero = False
        provenance.append(("growth", "undeclared_table_growth"))
    if sigma_zero:
        lower = chi
        provenance.append(("lower", "single_guess_equivalence_sigma_zero"))
    else:
        lower = Fraction(n, alpha)
        provenance.append(("lower", "alphabet_over_independence_ratio"))
    provenance.append(("upper", "fractional_chromatic"))
    if n <= AUTOMORPHISM_VERTEX_CAP and is_vertex_transitive(gamma):
        provenance.append(("structure", "vertex_transitive"))
    return BoundsReport(
        LeakageValue(lower),
        LeakageValue(chi),
        lower == chi,
        tuple(provenance),
    )


def _base_trace_families(gamma: Graph, theta: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """(|S|, trace masks of S) for each maximal independent set S of gamma, at t = 1."""
    return [(len(S), trace_masks(S, theta, 1)) for S in maximal_independent_sets(gamma)]


def _max_fractional_covering(families, kf_cache: dict) -> Fraction:
    return max(programs.fractional_cover((1 << w) - 1, masks, range(w), kf_cache)[0] for w, masks in families)


def _approx_guess_sides(
    gamma: Graph, packing: Fraction, kf_max: Fraction
) -> tuple[Fraction, Fraction, list[tuple[str, str]]]:
    """Lower side packing / kf_max floored at zero bits, upper side chi_f, and their provenance."""
    raw = packing / kf_max
    provenance: list[tuple[str, str]] = [("lower", "packing_over_max_covering")]
    if raw < 1:
        provenance.append(("lower_floor", "clamped_to_zero_bits"))
    chi = programs.fractional_chromatic(gamma).value
    provenance.append(("upper", "fractional_chromatic"))
    return max(raw, Fraction(1)), chi, provenance


def approx_guess_bounds(gamma: Graph, theta: Graph) -> BoundsReport:
    """Bounds on the leakage rate against one approximate guess per block.

    The adversary wins by naming any vertex adjacent to the truth in theta.
    Lower side: fractional packing of theta against the hardest covering
    number of a neighborhood-trace hypergraph, floored at zero bits.  Upper
    side: the plain single-guess rate.
    """
    _require_same_vertices(gamma, theta)
    packing = programs.fractional_packing(theta).value
    kf_max = _max_fractional_covering(_base_trace_families(gamma, theta), {})
    lower, chi, provenance = _approx_guess_sides(gamma, packing, kf_max)
    return BoundsReport(LeakageValue(lower), LeakageValue(chi), lower == chi, tuple(provenance))


def multi_approx_guess_bounds(gamma: Graph, theta: Graph, budget: GuessBudget) -> BoundsReport:
    """Approximate-guess bounds when the adversary may guess several times.

    The per-t cap is the largest covering number over neighborhood-trace
    hypergraphs of the t-fold powers; its growth floor is the best fractional
    covering value at t = 1.  The rate bounds are those of the single
    approximate guess, and a subexponential budget collapses to it outright.

    Every maximal independent set of gamma's OR power is a product
    S1 x ... x St of base sets, and its trace family is the product of the
    base sets' trace families, so the cap never builds the powers.
    Permuting the coordinates gives an isomorphic trace hypergraph with the
    same covering number, so the cap takes it once per multiset of t distinct
    base families.  One `mis_enumeration` meter serves every cap: each checks
    the size of the product MIS family and spends t units per ordered tuple
    of distinct base families, so a long table budget cannot loop unmetered.
    """
    _require_same_vertices(gamma, theta)
    families = _base_trace_families(gamma, theta)
    kf_cache: dict = {}
    kf_max = _max_fractional_covering(families, kf_cache)
    distinct = tuple(dict.fromkeys(families))
    alpha = max(w for w, _ in families)
    meter = WorkMeter("mis_enumeration")

    def cap_at(t: int) -> int:
        limit = meter.limit
        size = _capped_power(len(families), t, limit) * _capped_power(alpha, t, limit)
        meter.check_size(size, "product MIS family")
        meter.spend(_capped_power(len(distinct), t, limit) * t)
        best = 0
        for combo in itertools.combinations_with_replacement(distinct, t):
            width, masks = product_traces(combo)
            best = max(best, programs.min_cover_size((1 << width) - 1, masks, range(width), kf_cache))
        return best

    if not _budget_fits(budget, kf_max, cap_at):
        raise DomainError(
            "inadmissible_budget",
            "budget exceeds the approximate guesses the adversary graph can tell apart",
        )
    packing = programs.fractional_packing(theta).value
    lower, chi, provenance = _approx_guess_sides(gamma, packing, kf_max)
    try:
        if budget.sigma_is_zero():
            provenance.append(("budget", "collapses_to_single_approx_guess"))
    except DomainError:
        provenance.append(("growth", "undeclared_table_growth"))
    return BoundsReport(LeakageValue(lower), LeakageValue(chi), lower == chi, tuple(provenance))
