"""Independent cross-checks: guessing adversaries, prior grids, seeded trials.

Everything here re-derives a quantity by a second route (guess enumeration,
grid search over priors, random valid schemes) and compares it against the LP
answer.  Priors live on the base alphabet; a length-t sequence gets the
product of its symbol masses.  Checks return plain report dicts with "p/q"
strings so they can be emitted as JSON unchanged; status is "pass", "fail",
or "estimate" when a finite grid could not certify either way.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul, or_

from . import bounds, programs
from .budget import WorkMeter, enumeration_budget
from .errors import DomainError
from .graphs import (
    Graph,
    _bits,
    _capped_power,
    _closed_power_rows,
    _power_by_squaring,
    first_edge_within,
    independence_number,
    mis_of_or_power,
    or_power,
)
from .leakage import (
    StochasticMapping,
    _kronecker,
    _require_source_rows,
    merge_codewords,
    validate_mapping,
)
from .rationals import _decimal_digits, _over_one_denominator, format_ratio
from .values import FrozenValue


class GuessFamily(FrozenValue):
    """The candidate sets an adversary can bet on with one shot.

    Sets contain sequence indices.  For the multi-guess kind every g-subset of
    sequences is allowed, so the family stays implicit (sets is None) and is
    evaluated by top-g sums instead of enumeration.
    """

    kind: str
    t: int
    g: int
    sets: tuple[frozenset[int], ...] | None

    @classmethod
    def singleton(cls, gamma: Graph, t: int) -> "GuessFamily":
        total = gamma.vertex_count**t
        return cls("singleton", t, 1, tuple(frozenset({x}) for x in range(total)))

    @classmethod
    def multi_guess(cls, gamma: Graph, t: int, g: int) -> "GuessFamily":
        total = gamma.vertex_count**t
        if not (1 <= g <= total):
            raise DomainError("bad_guess_count", f"need 1 <= g <= {total}, got {g}")
        return cls("multi", t, g, None)

    @classmethod
    def approx(cls, theta: Graph, t: int) -> "GuessFamily":
        return cls("approx", t, 1, _vertex_sets(set(_closed_power_rows(theta, t))))

    @classmethod
    def multi_approx(cls, theta: Graph, t: int, g: int) -> "GuessFamily":
        hoods = set(_closed_power_rows(theta, t))
        if not (1 <= g <= len(hoods)):
            raise DomainError("bad_guess_count", f"need 1 <= g <= {len(hoods)}, got {g}")
        meter = WorkMeter("guess_family")
        meter.check_size(math.comb(len(hoods), g), "multi approximate guess family")
        unions = {reduce(or_, combo) for combo in itertools.combinations(hoods, g)}
        return cls("multi_approx", t, g, _vertex_sets(unions))


def _vertex_sets(masks) -> tuple[frozenset[int], ...]:
    """Vertex masks as frozensets, ordered by their member lists."""
    return tuple(frozenset(_bits(m)) for m in sorted(masks, key=_bits))


class DistributionGrid(FrozenValue):
    """All priors on n symbols with denominator dividing r, plus the uniform one.

    `points` holds the distinct priors as Fraction tuples in ascending order.
    """

    resolution: int
    points: tuple[tuple[Fraction, ...], ...]

    @property
    def alphabet_size(self) -> int:
        return len(self.points[0])


def distribution_grid(n: int, r: int) -> DistributionGrid:
    """The grid of the compositions of r into n parts over r, and the uniform prior.

    The points are built as integer tuples over one denominator,
    d = lcm(n, r), then deduplicated and sorted; over one denominator that
    is the order of the Fraction tuples.  Each distinct mass becomes one
    shared Fraction.
    """
    if n < 1 or r < 1:
        raise DomainError("bad_grid", f"need n >= 1 and r >= 1, got n={n}, r={r}")
    meter = WorkMeter("distribution_grid")
    meter.check_size(math.comb(r + n - 1, n - 1), "distribution grid")
    d = math.lcm(n, r)
    step = d // r
    points = {(d // n,) * n}
    for cuts in itertools.combinations(range(r + n - 1), n - 1):
        # the gaps between n - 1 cuts in r + n - 1 slots are a composition of r
        points.add(tuple((b - a - 1) * step for a, b in zip((-1, *cuts), (*cuts, r + n - 1))))
    mass = {k: Fraction(k, d) for k in set(itertools.chain.from_iterable(points))}
    return DistributionGrid(r, tuple(tuple(map(mass.__getitem__, p)) for p in sorted(points)))


# ---------------------------------------------------------------------------
# The guessing-advantage ratio
# ---------------------------------------------------------------------------

def _top_sum(values, g: int) -> int:
    # g = 1 is the default const:1 budget
    return max(values) if g == 1 else sum(sorted(values, reverse=True)[:g])


def _rho_from_ints(counts, d: int, fam: GuessFamily, weights) -> Fraction:
    """rho at a sequence prior proportional to `weights` (zeros allowed).

    Numerator and denominator are both linear in the prior, so only the
    proportions matter and everything stays in integers until the end.
    """
    columns = list(zip(*counts))
    if fam.kind == "multi":
        num = sum(_top_sum(map(mul, weights, column), fam.g) for column in columns)
        den = _top_sum(weights, fam.g)
    elif fam.kind == "singleton":
        num = sum(max(map(mul, weights, column)) for column in columns)
        den = max(weights)
    else:
        num = sum(max(sum(weights[x] * column[x] for x in s) for s in fam.sets) for column in columns)
        den = max(sum(weights[x] for x in s) for s in fam.sets)
    return Fraction(num, d * den)


def rho_fixed_px(m: StochasticMapping, px, fam: GuessFamily) -> Fraction:
    """Posterior-over-prior guessing advantage at a full-support symbol prior.

    The alphabet size is the prior's length, and the mapping must have a row
    for each of its length-t sequences.
    """
    if fam.t != m.t:
        raise DomainError("dimension_mismatch", f"family is for t={fam.t}, mapping for t={m.t}")
    probs = [Fraction(p) for p in px]
    _require_source_rows(m, len(probs))
    if sum(probs) != 1:
        raise DomainError("bad_distribution", "prior must sum to 1")
    if any(p <= 0 for p in probs):
        raise DomainError("zero_mass_symbol", "prior must give every symbol positive mass")
    return _rho_at_symbol_prior(m, fam, probs)


def worst_case_rho(m: StochasticMapping, fam: GuessFamily, grid: DistributionGrid) -> Fraction:
    """Largest rho over the prior grid, boundary points included.

    The alphabet size is the grid's, and the mapping must have a row for
    each of its length-t sequences.
    """
    if fam.t != m.t:
        raise DomainError("dimension_mismatch", f"family is for t={fam.t}, mapping for t={m.t}")
    _require_source_rows(m, grid.alphabet_size)
    return max(_rho_at_symbol_prior(m, fam, px) for px in grid.points)


def _rho_at_symbol_prior(m: StochasticMapping, fam: GuessFamily, px) -> Fraction:
    """rho at the i.i.d. sequence prior of the symbol prior `px`, in integers."""
    _, ks = _over_one_denominator(px)
    return _rho_from_ints(m.counts, m.denominator, fam, _power_by_squaring(ks, m.t, _kronecker))


def generate_valid_mapping(
    gamma: Graph,
    t: int,
    r: int,
    rng: random.Random,
    duplicate_codebook: bool = False,
) -> StochasticMapping:
    """Random zero-error scheme: codewords are the maximal independent sets.

    Each source sequence splits r probability units uniformly at random among
    the codewords whose set contains it.  With duplicate_codebook each set
    appears twice, which leaves the scheme mergeable on purpose.  The units
    dealt, sequences times r, are checked against a `scheme_units` meter.
    The codebook comes from `_codebook`, which builds it once for a run of
    trials.  Each unit is one `rng.getrandbits(k)` draw, redrawn while it
    is past the holder count, with k that count's bit length: the stream
    `randrange(count)` draws from a `random.Random` (Python 3.10-3.12), so
    a seed deals the same scheme.
    """
    if r < 1:
        raise DomainError("bad_grid", f"need r >= 1, got {r}")
    names, draws = _codebook(gamma, t, r, duplicate_codebook, enumeration_budget())
    getrandbits = rng.getrandbits
    width = len(names)
    rows = []
    for containing, count, k in draws:
        counts = [0] * width
        for _ in range(r):
            j = getrandbits(k)
            while j >= count:
                j = getrandbits(k)
            counts[containing[j]] += 1
        rows.append(tuple(counts))
    # every row deals r units over distinct names: the full check holds
    return StochasticMapping._unchecked(t, names, r, tuple(rows))


@lru_cache(maxsize=4)
def _codebook(gamma: Graph, t: int, r: int, duplicate_codebook: bool, limit: int):
    """The codeword names, and per source its holders, their count and its bit length.

    A codeword holds the sources of its maximal independent set of the OR
    power, and every source is in one.  The product sets' `mis_enumeration`
    meter runs before the `scheme_units` check, and both before any list of
    n**t is built.  A run of trials deals over one codebook, so the last
    few are kept; r and the budget `limit` are in the key, so a cached
    codebook stands for the same two checks passed.
    """
    sets = mis_of_or_power(gamma, t)
    WorkMeter("scheme_units", limit).check_size(_capped_power(gamma.vertex_count, t, limit) * r, "random scheme")
    copies = ("#1", "#2") if duplicate_codebook else ("",)
    names = []
    holders = [[] for _ in range(gamma.vertex_count**t)]
    for s in sets:
        base = "+".join(map(str, s))
        for copy in copies:
            for x in s:
                holders[x].append(len(names))
            names.append(base + copy)
    return tuple(names), tuple((tuple(h), len(h), len(h).bit_length()) for h in holders)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def verify_eta_duality(gamma: Graph, t: int) -> dict:
    """The maximin split weight must be the exact reciprocal of the chromatic LP.

    Both LPs are solved on the OR power itself, over its own maximal
    independent sets.  `optimal_leakage_t` reads its answer off one LP on
    the base graph through the product structure, so this is the route
    that does not rely on that structure.
    """
    product = or_power(gamma, t)
    chi = programs.fractional_chromatic(product).value
    eta = programs.maximin_eta(product).value
    lhs = eta * chi
    return {
        "check": "duality",
        "status": "pass" if lhs == 1 else "fail",
        "witness": {"t": t, "chi_f": format_ratio(chi), "eta": format_ratio(eta)},
        "lhs": format_ratio(lhs),
        "rhs": "1/1",
    }


def verify_packing_reciprocity(theta: Graph, grid: DistributionGrid) -> dict:
    """Grid-search the minimax neighborhood mass against 1 over the packing LP.

    The grid can only overshoot the true minimum, so a strictly smaller grid
    value is a hard failure, equality is a pass, and a larger value is only an
    estimate (the grid was too coarse).  A witness with a zero coordinate is
    flagged: full-support priors only reach it in closure.  The sweep sums
    integer masses over one common denominator; the witness is the first
    minimal prior in grid order.
    """
    packing = programs.fractional_packing(theta).value
    target = Fraction(1) / packing
    n = theta.vertex_count
    if grid.alphabet_size != n:
        raise DomainError("dimension_mismatch", f"grid is over {grid.alphabet_size} symbols, graph has {n}")
    hoods = [_bits(row | 1 << x) for x, row in enumerate(theta.rows)]
    d = math.lcm(*{p.denominator for p in itertools.chain.from_iterable(grid.points)})
    best_units = None
    for px in grid.points:
        ks = [p.numerator * (d // p.denominator) for p in px]
        value = max(sum(map(ks.__getitem__, hood)) for hood in hoods)
        if best_units is None or value < best_units:
            best_units = value
            best_px = px
    best = Fraction(best_units, d)
    if best < target:
        status = "fail"
    elif best == target:
        status = "pass"
    else:
        status = "estimate"
    return {
        "check": "packing",
        "status": status,
        "witness": {
            "r": grid.resolution,
            "px": [format_ratio(p) for p in best_px],
            "closure": any(p == 0 for p in best_px),
        },
        "lhs": format_ratio(best),
        "rhs": format_ratio(target),
    }


def _check_trials(trials: int) -> None:
    """At least one trial, and no more than the `oracle_trials` budget."""
    if trials < 1:
        raise DomainError("bad_trials", f"need at least one trial, got {trials}")
    WorkMeter("oracle_trials").check_size(trials, "oracle trials")


# the longest polynomial guess count the floor check builds, in bits: its
# digits are counted in a fraction of a second
_BUILT_COUNT_BITS = 1 << 20


def _inadmissible_count(shown: str, alpha: int, t: int) -> DomainError:
    return DomainError(
        "inadmissible_budget",
        f"g(t){shown} exceeds the {alpha}**{t} independent vertices available",
        {"alpha": alpha, "t": t},
    )


def verify_multi_guess_floor(
    gamma: Graph,
    budget: bounds.GuessBudget,
    t: int,
    r: int,
    trials: int = 100,
    seed: int = 0,
) -> dict:
    """Random valid schemes never beat the alphabet-over-independence floor.

    At the uniform prior a g-guess adversary's advantage is at least
    (n/alpha)**t for every zero-error scheme; it is the sum over codewords
    of the g largest counts of each column, over g times the denominator.
    Schemes are drawn with row denominator r; the budget must be admissible
    at t.  The first scheme is drawn before anything else of size
    exponential in t: its meters bound the n**t sequences and the alpha**t
    independent ones, so a long t is refused before the guess count or the
    floor is built.
    """
    n = gamma.vertex_count
    if n < 1 or r < 1:
        raise DomainError("bad_grid", f"need n >= 1 and r >= 1, got n={n}, r={r}")
    _check_trials(trials)
    alpha = independence_number(gamma)
    rng = random.Random(seed)
    m = generate_valid_mapping(gamma, t, r, rng)
    if budget.kind == "polynomial":
        count = ((t, budget.degree),)
        # a count past _BUILT_COUNT_BITS is named t**d and never built:
        # 3**(10**9) alone would take minutes
        if bounds._bit_length_bounds(count)[0] > _BUILT_COUNT_BITS and bounds._exceeds(count, ((alpha, t),)):
            raise _inadmissible_count(f"={t}**{budget.degree}", alpha, t)
    g = budget.guesses(t)
    if g > alpha**t:
        # a guess count of over 100 digits is named by its length, which
        # also keeps it clear of the int-string conversion limit
        shown = f"={g}" if g < 10**100 else f", a {_decimal_digits(g)}-digit number,"
        raise _inadmissible_count(shown, alpha, t)
    floor = Fraction(n, alpha) ** t
    worst = None
    bad_trial = None
    for trial in range(trials):
        if trial:
            m = generate_valid_mapping(gamma, t, r, rng)
        value = Fraction(sum(_top_sum(column, g) for column in zip(*m.counts)), m.denominator * g)
        if worst is None or value < worst:
            worst = value
            if value < floor:
                bad_trial = trial
                break
    witness: dict = {"t": t, "g": g, "trials": trials, "seed": seed}
    if bad_trial is not None:
        witness["trial"] = bad_trial
    return {
        "check": "multi-guess-floor",
        "status": "fail" if bad_trial is not None else "pass",
        "witness": witness,
        "lhs": format_ratio(worst),
        "rhs": format_ratio(floor),
    }


def _first_mergeable_pair(m: StochasticMapping, product: Graph, start: tuple[int, int] = (0, 1)):
    """The first codeword pair, in `itertools.combinations` order from `start`, whose union is independent."""
    supports = m.supports
    a, b = start
    for j1 in range(a, len(supports)):
        s1 = supports[j1]
        for j2 in range(b if j1 == a else j1 + 1, len(supports)):
            if first_edge_within(product, s1 | supports[j2]) is None:
                return j1, j2
    return None


def verify_mergeability_closure(gamma: Graph, t: int, trials: int, seed: int = 0, r: int = 4) -> dict:
    """Merging to a fixpoint never raises leakage and ends with nothing mergeable.

    Trials start from schemes with a doubled codebook so merges exist; each
    merge step must keep the scheme valid and keep leakage non-increasing.
    Each step merges the first mergeable pair in `itertools.combinations`
    order.  A merge only grows supports, so a pair found confusable stays
    confusable: after merging (lo, hi), every pair before (lo, hi) in the new
    indexing is still confusable, and the next scan resumes there.  Leakage
    is kept as the integer pair (sum of column maxima, denominator), the
    `maximal_leakage` value, and the steps are compared by cross-multiplying;
    the worst step becomes one Fraction for the report.
    """
    _check_trials(trials)
    rng = random.Random(seed)
    product = or_power(gamma, t)
    worst_num, worst_den = 0, 1
    merges = 0
    failure = None
    for trial in range(trials):
        m = generate_valid_mapping(gamma, t, r, rng, duplicate_codebook=True)
        num, den = sum(m.column_maxima), m.denominator
        pair = (0, 1)
        while True:
            pair = _first_mergeable_pair(m, product, pair)
            if pair is None:
                break
            merged = merge_codewords(m, m.codewords[pair[0]], m.codewords[pair[1]], gamma)
            merged_num, merged_den = sum(merged.column_maxima), merged.denominator
            merges += 1
            # the step is (merged_num / merged_den) / (num / den)
            step_num, step_den = merged_num * den, merged_den * num
            if step_num * worst_den > worst_num * step_den:
                worst_num, worst_den = step_num, step_den
            if step_num > step_den or not validate_mapping(merged, gamma):
                failure = trial
                break
            m, num, den = merged, merged_num, merged_den
        if failure is not None:
            break
    witness: dict = {"t": t, "trials": trials, "seed": seed, "r": r, "merges": merges}
    if failure is not None:
        witness["trial"] = failure
    return {
        "check": "merge-closure",
        "status": "fail" if failure is not None else "pass",
        "witness": witness,
        "lhs": format_ratio(Fraction(worst_num, worst_den)),
        "rhs": "1/1",
    }
