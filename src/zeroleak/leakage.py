"""Leakage of zero-error schemes and guessing-adversary bounds.

A scheme for t source symbols is a row-stochastic matrix over codewords whose
columns only mix sources that are never confusable, i.e. each codeword's
support is independent in the t-fold OR power of the confusion graph.  The
adversary's advantage is measured multiplicatively and reported as the exact
rational whose log2 is the leakage in bits.  Mappings, leakage values,
reports and guess budgets are frozen values (`values.FrozenValue`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from typing import Callable, NamedTuple

from .budget import AUTOMORPHISM_VERTEX_CAP, WorkMeter
from .errors import DomainError, ZeroleakError
from .graphs import (
    Graph,
    _capped_power,
    _power_by_squaring,
    _require_power,
    VertexSetFamily,
    first_edge_within,
    independence_number,
    is_vertex_transitive,
    make_family,
    maximal_independent_sets,
    or_power,
    product_sets,
    product_traces,
    trace_masks,
    vertex_mask,
)
from .programs import (
    fractional_chromatic,
    fractional_cover,
    fractional_packing,
    min_cover_size,
)
from .rationals import _over_one_denominator, bits_display
from .values import FrozenValue


class LeakageValue(FrozenValue):
    """A leakage stated as the exact rational it is the log2 of."""

    log2_of: Fraction

    def __post_init__(self):
        if not isinstance(self.log2_of, Fraction) or self.log2_of < 1:
            raise DomainError("bad_leakage_value", f"leakage must be log2 of a rational >= 1, got {self.log2_of!r}")

    @property
    def bits(self) -> float:
        return bits_display(self.log2_of)


class StochasticMapping(FrozenValue):
    """Row-stochastic map from length-t source sequences to named codewords.

    Rows are indexed by the big-endian sequence encoding.  The matrix is held
    fraction-free: entry (x, j) is counts[x][j] / denominator, with integer
    counts in [0, denominator] and every row summing to the denominator.  The
    constructor checks exactly that, and then reduces the denominator and the
    counts to lowest terms, so equal rational matrices compare and hash
    equal.  Every mapping passes that full check except the result of
    `merge_codewords`, which is built by `_merged` from a checked mapping and
    the proof that a merge keeps it valid.  `rows` is the same matrix as
    exact Fractions, and `supports` the sources of each codeword as
    bitmasks, both derived on first use (a merge carries `supports` over).
    """

    t: int
    codewords: tuple[str, ...]
    denominator: int
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.t, int) or self.t < 1:
            raise DomainError("bad_mapping", f"t must be a positive integer, got {self.t!r}")
        if len(self.codewords) == 0:
            raise DomainError("bad_mapping", "a mapping needs at least one codeword")
        if len(set(self.codewords)) != len(self.codewords):
            raise DomainError("bad_mapping", "codeword names must be pairwise distinct")
        for name in self.codewords:
            if not isinstance(name, str) or not name:
                raise DomainError("bad_mapping", f"codeword name {name!r} must be a nonempty string")
        d = self.denominator
        if type(d) is not int or d < 1:
            raise DomainError("bad_mapping", f"denominator must be a positive integer, got {d!r}")
        counts = tuple(map(tuple, self.counts))
        if len(counts) == 0:
            raise DomainError("bad_mapping", "a mapping needs at least one source row")
        # whole-matrix checks at C speed; on failure _raise_first_fault names the first bad entry
        if not (
            set(map(len, counts)) == {len(self.codewords)}
            and set(map(type, chain.from_iterable(counts))) == {int}
            and min(map(min, counts)) >= 0
            and max(map(max, counts)) <= d
            and set(map(sum, counts)) == {d}
        ):
            _raise_first_fault(counts, len(self.codewords), d)
        g = math.gcd(d, *chain.from_iterable(counts))
        if g > 1:
            d //= g
            counts = tuple(tuple(map(g.__rfloordiv__, row)) for row in counts)
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix as exact Fractions, row by row."""
        d = self.denominator
        return tuple(tuple(Fraction(e, d) for e in row) for row in self.counts)

    @property
    def source_count(self) -> int:
        return len(self.counts)

    @cached_property
    def supports(self) -> tuple[int, ...]:
        """Per codeword, the mask of the sources that give it positive probability."""
        sources = range(len(self.counts))
        return tuple(vertex_mask(compress(sources, column)) for column in zip(*self.counts))

    def _merged(self, lo: int, hi: int, name: str) -> StochasticMapping:
        """This mapping with column hi added into column lo, renamed `name`, and hi deleted.

        The full check is skipped on a proof.  Each row keeps its sum, and
        each new entry is the sum of two entries of a row that sums to the
        denominator, so it stays in [0, denominator].  The caller has checked
        that `name` is not already a codeword.  What is left is the reduction
        by one gcd over all counts, and the supports: the OR of the two merged
        masks.
        """
        names, supports = self.codewords, self.supports
        counts = tuple(row[:lo] + (row[lo] + row[hi],) + row[lo + 1 : hi] + row[hi + 1 :] for row in self.counts)
        d = self.denominator
        g = math.gcd(d, *chain.from_iterable(counts))
        if g > 1:
            d //= g
            counts = tuple(tuple(map(g.__rfloordiv__, row)) for row in counts)
        merged = object.__new__(StochasticMapping)
        merged.__dict__.update(
            t=self.t,
            codewords=names[:lo] + (name,) + names[lo + 1 : hi] + names[hi + 1 :],
            denominator=d,
            counts=counts,
            supports=supports[:lo] + (supports[lo] | supports[hi],) + supports[lo + 1 : hi] + supports[hi + 1 :],
        )
        return merged


def _raise_first_fault(counts, width: int, d: int) -> None:
    """Raise for the first bad row width, entry or row sum, in row order."""
    for x, row in enumerate(counts):
        if len(row) != width:
            raise DomainError("bad_mapping", f"row {x} has {len(row)} entries for {width} codewords")
        for e in row:
            if type(e) is not int:
                raise DomainError("bad_mapping", f"row {x} entry {e!r} outside [0, 1]")
            if e < 0 or e > d:
                raise DomainError("bad_mapping", f"row {x} entry {Fraction(e, d)!r} outside [0, 1]")
        if sum(row) != d:
            raise DomainError("bad_mapping", f"row {x} sums to {Fraction(sum(row), d)}, not 1")
    raise ZeroleakError("internal_error", "mapping check failed but no row is at fault")


def make_mapping(t: int, codewords, rows) -> StochasticMapping:
    """Coerce nested row data (ints, strings, Fractions) into a StochasticMapping.

    Entries are parsed to Fractions once and scaled to integer counts over
    the least common denominator.  Every count is as long as that
    denominator, so entries with many unrelated denominators could make the
    counts far larger than the input: the words each count needs beyond the
    first are charged, over all entries, to a `mapping_counts` meter as the
    denominator grows.
    """
    try:
        parsed = [[e if type(e) is Fraction else Fraction(e) for e in row] for row in rows]
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError("bad_mapping", f"unparseable probability entry: {exc}")
    entries = sum(map(len, parsed))
    meter = WorkMeter("mapping_counts")
    d = 1
    for q in {e.denominator for row in parsed for e in row}:
        d = math.lcm(d, q)
        meter.check_size(entries * (d.bit_length() // 64), "integer counts over one denominator")
    counts = tuple(tuple(e.numerator * (d // e.denominator) for e in row) for row in parsed)
    return StochasticMapping(t, tuple(codewords), d, counts)


class ValidationReport(FrozenValue):
    """Outcome of a zero-error check; falsy when a confusable pair shares a codeword."""

    ok: bool
    witness: tuple[str, int, int] | None

    def __post_init__(self):
        if self.ok != (self.witness is None):
            raise DomainError("bad_validation_report", "ok must mean exactly: no witness")

    def __bool__(self) -> bool:
        return self.ok


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


def _require_source_rows(m: StochasticMapping, n: int) -> None:
    """One row per length-t sequence over n symbols.  n**t is capped at the
    row count's bit length, so a huge t is neither computed nor printed."""
    t, rows = m.t, m.source_count
    expected = _capped_power(n, t, rows)
    if expected != rows:
        if n > 1 and t > rows.bit_length():
            expected = f"{n}**{t}"
        raise DomainError(
            "dimension_mismatch", f"mapping has {rows} rows but the graph gives {expected} length-{t} sequences"
        )


def validate_mapping(m: StochasticMapping, gamma: Graph) -> ValidationReport:
    """Zero-error check: no codeword may cover two confusable source sequences.

    The witness, when present, is the first offense in codeword order, pairs
    scanned in ascending order inside each support.
    """
    _require_source_rows(m, gamma.vertex_count)
    product = or_power(gamma, m.t)
    for j, name in enumerate(m.codewords):
        pair = first_edge_within(product, m.supports[j])
        if pair is not None:
            return ValidationReport(False, (name, *pair))
    return ValidationReport(True, None)


def maximal_leakage(m: StochasticMapping) -> LeakageValue:
    """Sum over codewords of the largest per-source probability, exactly."""
    return LeakageValue(Fraction(sum(map(max, zip(*m.counts))), m.denominator))


def _kronecker(left, right) -> list[int]:
    """The Kronecker product of two integer vectors, left-major."""
    return [a * b for a in left for b in right]


class OptimalLeakage(NamedTuple):
    t: int
    value: LeakageValue
    witness: StochasticMapping
    witness_value: LeakageValue
    matches: bool


def optimal_leakage_t(gamma: Graph, t: int) -> OptimalLeakage:
    """Least maximal leakage over zero-error schemes for t symbols: chi_f**t.

    One LP is solved, `fractional_chromatic` on gamma, and its optimum is
    certified on the OR power exactly, with no LP on the power.  The primal
    is the set weights kappa tensored t times: each product set
    S1 x ... x St of base sets, in `product_sets` order, gets the product of
    their weights.  The dual is the fractional clique y tensored onto the
    sequences; both are Kronecker powers by `_power_by_squaring`.  Every
    maximal independent set of the power is a product of base sets
    (`mis_of_or_power`), so these checks prove both optimal.  They run in
    integers over one common denominator per side, and a failed check raises
    `internal_error`:

    - the base weights are nonnegative;
    - every chosen product set is independent in the OR power;
    - every sequence is covered to at least 1;
    - every product of base maximal independent sets has dual sum <= 1;
    - the primal and the dual total are both chi_f**t.

    The witness scheme has a codeword per chosen product set T, in sorted
    member order, with P(T | x) = kappa_T / coverage(x).  Its size,
    sequences times codewords, is checked against a `witness_cells` meter
    before anything is built on the power.  Its measured leakage is
    reported alongside, so a gap would be visible rather than silent.
    """
    _require_power(t)
    coloring = fractional_chromatic(gamma)
    n, chi = gamma.vertex_count, coloring.value
    kappa_scale, kappa = _over_one_denominator(coloring.weights)
    y_scale, y = _over_one_denominator(coloring.vertex_weights)
    meter = WorkMeter("witness_cells")
    meter.check_size(_capped_power(n * sum(map(bool, kappa)), t, meter.limit), "optimal witness")

    def uncertified(what: str):
        return ZeroleakError("internal_error", f"tensor certificate on the OR power: {what}")

    if min(kappa) < 0 or min(y) < 0:
        raise uncertified("a base weight is negative")
    sets = product_sets(coloring.sets, n, t)
    weights = _power_by_squaring(kappa, t, _kronecker)
    dual = _power_by_squaring(y, t, _kronecker)
    primal_one, dual_one = kappa_scale**t, y_scale**t

    product = or_power(gamma, t)
    chosen = sorted((members, w) for members, w in zip(sets, weights) if w)
    for members, _ in chosen:
        pair = first_edge_within(product, vertex_mask(members))
        if pair is not None:
            raise uncertified(f"a chosen product set holds the confusable sequences {pair[0]} and {pair[1]}")
    rows = [[0] * len(chosen) for _ in dual]
    for j, (members, w) in enumerate(chosen):
        for x in members:
            rows[x][j] = w
    coverage = list(map(sum, rows))
    if min(coverage) < primal_one:
        raise uncertified(f"sequence {coverage.index(min(coverage))} is covered to less than 1")
    for members in sets:
        if sum(dual[x] for x in members) > dual_one:
            raise uncertified(f"product set {'+'.join(map(str, members))} has dual sum over 1")
    chi_t = chi**t
    if Fraction(sum(weights), primal_one) != chi_t or Fraction(sum(dual), dual_one) != chi_t:
        raise uncertified(f"the primal and dual totals are not both {chi_t}")

    d = math.lcm(*coverage)
    counts = tuple(tuple(w * (d // c) for w in row) for row, c in zip(rows, coverage))
    names = tuple("+".join(map(str, members)) for members, _ in chosen)
    witness = StochasticMapping(t, names, d, counts)
    value = LeakageValue(chi_t)
    witness_value = maximal_leakage(witness)
    return OptimalLeakage(t, value, witness, witness_value, witness_value.log2_of == value.log2_of)


def leakage_rate(gamma: Graph) -> LeakageValue:
    """Per-symbol optimal leakage in the long run: log2 of the fractional chromatic number."""
    return LeakageValue(fractional_chromatic(gamma).value)


class FoldedColoring(NamedTuple):
    b: int
    family: VertexSetFamily


def b_fold_coloring_from_weights(gamma: Graph, weights) -> FoldedColoring:
    """Turn fractional set weights into a b-fold coloring covering each vertex exactly b times.

    Weights sit on the maximal independent sets in their canonical order and
    must cover every vertex to total weight at least one.  b is the least
    common denominator; over-coverage is trimmed per vertex, largest classes
    first, and a class trimmed to nothing stays in the family so the size
    accounting (m classes, each worth 1/b) remains honest.
    """
    n = gamma.vertex_count
    sets = [vertex_mask(s) for s in maximal_independent_sets(gamma)]
    weight_list = [Fraction(w) for w in weights]
    if len(weight_list) != len(sets):
        raise DomainError(
            "dimension_mismatch",
            f"{len(weight_list)} weights for {len(sets)} maximal independent sets",
        )
    if any(w < 0 for w in weight_list):
        raise DomainError("infeasible_weights", "weights must be nonnegative")
    for x in range(n):
        if sum(w for s, w in zip(sets, weight_list) if s >> x & 1) < 1:
            raise DomainError("infeasible_weights", f"vertex {x} is covered to total weight < 1")

    b, counts = _over_one_denominator(weight_list)
    occurrences: list[int] = []
    for s, k in zip(sets, counts):
        occurrences.extend([s] * k)

    for x in range(n):
        holding = [k for k, occ in enumerate(occurrences) if occ >> x & 1]
        for k in sorted(holding, key=lambda k: (-occurrences[k].bit_count(), k))[: len(holding) - b]:
            occurrences[k] ^= 1 << x

    return FoldedColoring(b, make_family([v for v in range(n) if occ >> v & 1] for occ in occurrences))


def optimal_scalar_mapping(gamma: Graph) -> StochasticMapping:
    """Deterministic-size optimal scheme for one symbol from an optimal fractional coloring.

    Each of the m color classes becomes a codeword sent with probability 1/b
    by its members, so the measured leakage is m/b, the fractional chromatic
    number itself.
    """
    coloring = fractional_chromatic(gamma)
    b, family = b_fold_coloring_from_weights(gamma, coloring.weights)
    if any(len(s) == 0 for s in family.sets):
        raise ZeroleakError("internal_error", "optimal coloring produced an empty color class")

    names: list[str] = []
    columns: list[int] = []
    for s, mult in zip(family.sets, family.multiplicities):
        base = "+".join(str(v) for v in s)
        if mult == 1:
            names.append(base)
        else:
            names.extend(f"{base}#{k}" for k in range(1, mult + 1))
        columns.extend([vertex_mask(s)] * mult)
    counts = tuple(tuple(s >> x & 1 for s in columns) for x in range(gamma.vertex_count))
    return StochasticMapping(1, tuple(names), b, counts)


def merge_codewords(m: StochasticMapping, y1: str, y2: str, gamma: Graph) -> StochasticMapping:
    """Merge two codewords into one by adding their columns.

    Allowed exactly when the union of the two supports is independent in the
    OR power, so the merged codeword still never covers a confusable pair.
    Merging can only shrink the leakage.  The merged column takes the place
    of the first of the two, and the merged name `(y1&y2)` must be unused.
    The result is built by `StochasticMapping._merged`, which skips the full
    check on the proof that a merge of a checked mapping is valid.
    """
    if y1 == y2:
        raise DomainError("bad_merge", "cannot merge a codeword with itself")
    try:
        j1 = m.codewords.index(y1)
    except ValueError:
        raise DomainError("unknown_codeword", f"no codeword named {y1!r}")
    try:
        j2 = m.codewords.index(y2)
    except ValueError:
        raise DomainError("unknown_codeword", f"no codeword named {y2!r}")
    merged_name = f"({y1}&{y2})"
    if merged_name in m.codewords:
        raise DomainError(
            "bad_merge",
            f"the merged codeword name {merged_name!r} is already taken",
            {"name": merged_name},
        )
    _require_source_rows(m, gamma.vertex_count)
    pair = first_edge_within(or_power(gamma, m.t), m.supports[j1] | m.supports[j2])
    if pair is not None:
        u, v = pair
        raise DomainError(
            "not_mergeable",
            f"sources {u} and {v} are confusable but would share the merged codeword",
            {"u": u, "v": v},
        )
    return m._merged(min(j1, j2), max(j1, j2), merged_name)


# ---------------------------------------------------------------------------
# Guessing budgets
# ---------------------------------------------------------------------------

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
                raise DomainError("bad_budget", f"constant budget needs a count >= 1, got {self.count!r}")
        elif self.kind == "polynomial":
            if not isinstance(self.degree, int) or self.degree < 0:
                raise DomainError("bad_budget", f"polynomial budget needs a degree >= 0, got {self.degree!r}")
        elif self.kind == "exponential":
            if not isinstance(self.base, Fraction) or self.base < 1:
                raise DomainError("bad_budget", f"exponential budget needs a rational base >= 1, got {self.base!r}")
        elif self.kind == "table":
            if not self.values:
                raise DomainError("bad_budget", "table budget needs at least one value")
            for g in self.values:
                if not isinstance(g, int) or g < 1:
                    raise DomainError("bad_budget", f"table entries must be integers >= 1, got {g!r}")
            if self.growth is not None and (not isinstance(self.growth, Fraction) or self.growth < 1):
                raise DomainError("bad_budget", f"declared growth must be a rational >= 1, got {self.growth!r}")
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
    growth floor.
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
            if t**d * q**t > p**t:
                return False
            # once per-step growth of t**d dips under beta, induction closes it
            if (t + 1) ** d * q <= p * t**d:
                return True
            t += 1
    return all(g <= cap_at(t) for t, g in enumerate(budget.values, start=1))


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
    chi = fractional_chromatic(gamma).value
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
    return max(fractional_cover((1 << w) - 1, masks, range(w), kf_cache)[0] for w, masks in families)


def _approx_guess_sides(
    gamma: Graph, packing: Fraction, kf_max: Fraction
) -> tuple[Fraction, Fraction, list[tuple[str, str]]]:
    """Lower side packing / kf_max floored at zero bits, upper side chi_f, and their provenance."""
    raw = packing / kf_max
    provenance: list[tuple[str, str]] = [("lower", "packing_over_max_covering")]
    if raw < 1:
        provenance.append(("lower_floor", "clamped_to_zero_bits"))
    chi = fractional_chromatic(gamma).value
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
    packing = fractional_packing(theta).value
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
            best = max(best, min_cover_size((1 << width) - 1, masks, range(width), kf_cache))
        return best

    if not _budget_fits(budget, kf_max, cap_at):
        raise DomainError(
            "inadmissible_budget",
            "budget exceeds the approximate guesses the adversary graph can tell apart",
        )
    packing = fractional_packing(theta).value
    lower, chi, provenance = _approx_guess_sides(gamma, packing, kf_max)
    try:
        if budget.sigma_is_zero():
            provenance.append(("budget", "collapses_to_single_approx_guess"))
    except DomainError:
        provenance.append(("growth", "undeclared_table_growth"))
    return BoundsReport(LeakageValue(lower), LeakageValue(chi), lower == chi, tuple(provenance))
