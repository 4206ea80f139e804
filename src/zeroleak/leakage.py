"""Leakage of zero-error schemes: the paper's basic adversarial model.

A scheme for t source symbols is a row-stochastic matrix over codewords whose
columns only mix sources that are never confusable, i.e. each codeword's
support is independent in the t-fold OR power of the confusion graph.  The
adversary's advantage is measured multiplicatively and reported as the exact
rational whose log2 is the leakage in bits (`rationals.LeakageValue`).  Here
are the schemes themselves, their check and merge, their maximal leakage,
and the optimal leakage chi_f**t with its certificate and witness scheme.
The generalized adversaries' bounds are in `bounds`, which this module does
not import.  Mappings and reports are frozen values (`values.FrozenValue`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from typing import NamedTuple

from . import programs
from .budget import WorkMeter
from .errors import DomainError, ZeroleakError
from .graphs import (
    Graph,
    _capped_power,
    _power_by_squaring,
    _require_power,
    VertexSetFamily,
    first_edge_within,
    make_family,
    maximal_independent_sets,
    or_power,
    product_sets,
    vertex_mask,
)
from .rationals import LeakageValue, _over_one_denominator, _shown_in_message
from .values import FrozenValue


class StochasticMapping(FrozenValue):
    """Row-stochastic map from length-t source sequences to named codewords.

    Rows are indexed by the big-endian sequence encoding.  The matrix is held
    fraction-free: entry (x, j) is counts[x][j] / denominator, with integer
    counts in [0, denominator] and every row summing to the denominator.  The
    constructor checks exactly that, and then reduces the denominator and the
    counts to lowest terms, so equal rational matrices compare and hash
    equal.  Every mapping passes that full check except those built by
    `_unchecked` on a proof that they would pass it: the result of
    `merge_codewords` (`_merged`), and the oracle's random schemes, whose
    rows deal the denominator's units over distinct names.  `rows` is the
    same matrix as exact Fractions, `supports` the sources of each codeword
    as bitmasks, and `column_maxima` each codeword's largest count, all
    derived on first use (a merge carries `supports` and any `column_maxima`
    over).
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
        d, counts = _lowest_terms(d, counts)
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def _unchecked(cls, t: int, codewords: tuple[str, ...], denominator: int, counts: tuple) -> StochasticMapping:
        """The mapping of these fields in lowest terms, built without the full check.

        Only for fields proven to pass it: `_merged` and the oracle's
        `generate_valid_mapping` build their results here.
        """
        denominator, counts = _lowest_terms(denominator, counts)
        mapping = object.__new__(cls)
        mapping.__dict__.update(t=t, codewords=codewords, denominator=denominator, counts=counts)
        return mapping

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

    @cached_property
    def column_maxima(self) -> tuple[int, ...]:
        """Per codeword, its largest count over the sources."""
        return tuple(map(max, zip(*self.counts)))

    def _merged(self, lo: int, hi: int, name: str) -> StochasticMapping:
        """This mapping with column hi added into column lo, renamed `name`, and hi deleted.

        The full check is skipped on a proof.  Each row keeps its sum, and
        each new entry is the sum of two entries of a row that sums to the
        denominator, so it stays in [0, denominator].  The caller has checked
        that `name` is not already a codeword.  What is left is the reduction
        by one gcd over all counts, and the derived columns: the supports get
        the OR of the two merged masks, and column maxima already derived get
        the merged column's maximum, all divided by the gcd, since dividing
        every count by it divides each maximum.
        """
        column = [row[lo] + row[hi] for row in self.counts]
        counts = tuple(_spliced(row, lo, hi, c) for row, c in zip(self.counts, column))
        merged = self._unchecked(self.t, _spliced(self.codewords, lo, hi, name), self.denominator, counts)
        merged.__dict__["supports"] = _spliced(self.supports, lo, hi, self.supports[lo] | self.supports[hi])
        g = self.denominator // merged.denominator
        maxima = self.__dict__.get("column_maxima")
        if maxima is not None:
            maxima = _spliced(maxima, lo, hi, max(column))
            merged.__dict__["column_maxima"] = maxima if g == 1 else tuple(map(g.__rfloordiv__, maxima))
        return merged


def _spliced(items: tuple, lo: int, hi: int, item) -> tuple:
    """`items` with entry lo replaced by `item` and entry hi deleted, lo < hi."""
    return items[:lo] + (item,) + items[lo + 1 : hi] + items[hi + 1 :]


def _lowest_terms(d: int, counts: tuple) -> tuple[int, tuple]:
    """The denominator and the counts divided by their gcd; the gcd is taken
    row by row and stops at 1, which a random row usually reaches at once."""
    g = d
    for row in counts:
        g = math.gcd(g, *row)
        if g == 1:
            return d, counts
    d //= g
    return d, tuple(tuple(map(g.__rfloordiv__, row)) for row in counts)


def _raise_first_fault(counts, width: int, d: int) -> None:
    """Raise for the first bad row width, entry or row sum, in row order."""
    for x, row in enumerate(counts):
        if len(row) != width:
            raise DomainError("bad_mapping", f"row {x} has {len(row)} entries for {width} codewords")
        for e in row:
            if type(e) is not int:
                raise DomainError("bad_mapping", f"row {x} entry {e!r} outside [0, 1]")
            if e < 0 or e > d:
                shown = _shown_in_message(Fraction(e, d), repr)
                raise DomainError("bad_mapping", f"row {x} entry {shown} outside [0, 1]")
        if sum(row) != d:
            raise DomainError("bad_mapping", f"row {x} sums to {_shown_in_message(Fraction(sum(row), d))}, not 1")
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
    return LeakageValue(Fraction(sum(m.column_maxima), m.denominator))


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
    coloring = programs.fractional_chromatic(gamma)
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
    return LeakageValue(programs.fractional_chromatic(gamma).value)


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
    coloring = programs.fractional_chromatic(gamma)
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
