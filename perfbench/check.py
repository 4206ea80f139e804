"""Independent answer checker.

Each check takes the program's exit code and stdout and returns a list of
problems (empty when the answer is right).  Expected values come from closed
forms, from certificates recomputed here (row-stochastic witnesses whose
supports are independent and whose leakage is recomputed from the matrix,
independent and maximal sets, recomputed products) or from `expected.json`,
which names the source of every entry.  Nothing here imports zeroleak, and
witness bytes are never compared.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import gen

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())["values"]

_RATIO = re.compile(r"^(-?\d+)/(\d+)$")


def ratio(text):
    """Parse a wire rational; it must be "p/q" in lowest terms, q > 0."""
    match = _RATIO.match(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a p/q string: {text!r}")
    p, q = int(match.group(1)), int(match.group(2))
    if q == 0 or math.gcd(p, q) != 1:
        raise ValueError(f"not in lowest terms: {text!r}")
    return Fraction(p, q)


def expected(key):
    return ratio(EXPECTED[key]["value"])


def cycle_chi_f(n, t):
    """chi_f(C_{2k+1}^t) = ((2k+1)/k)^t for the OR power of an odd cycle."""
    k = (n - 1) // 2
    return Fraction(n, k) ** t


def bits_ok(bits, value):
    return isinstance(bits, float) and abs(bits - (math.log2(value.numerator) - math.log2(value.denominator))) < 1e-9


# ---------------------------------------------------------------------------
# Graph helpers over the generator's (n, edges, labels) triples
# ---------------------------------------------------------------------------

def bitsets(g):
    n, edges, _ = g
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def all_mis(g):
    """Every maximal independent set: Bron-Kerbosch with pivoting on the
    complement, over integer bitsets, with an explicit stack."""
    n = g[0]
    full = (1 << n) - 1
    co = [full & ~a & ~(1 << v) for v, a in enumerate(bitsets(g))]
    found = []
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                found.append(tuple(v for v in range(n) if r >> v & 1))
            continue
        px, pivot, best = p | x, -1, -1
        while px:
            u = (px & -px).bit_length() - 1
            px &= px - 1
            score = bin(p & co[u]).count("1")
            if score > best:
                pivot, best = u, score
        branch = p & ~co[pivot]
        while branch:
            v = (branch & -branch).bit_length() - 1
            branch &= branch - 1
            stack.append((r | 1 << v, p & co[v], x & co[v]))
            p &= ~(1 << v)
            x |= 1 << v
    return sorted(found)


def power_adjacent(g, t, x, y):
    """Adjacency in the OR power G^t: distinct and adjacent in some coordinate."""
    if x == y:
        return False
    n, edges, _ = g
    for a, b in zip(gen.coords(x, t, n), gen.coords(y, t, n)):
        if (min(a, b), max(a, b)) in edges:
            return True
    return False


def vertex_transitive_packing(theta):
    """Closed-neighbourhood packing of a regular vertex-transitive graph: n/(d+1).

    The uniform weight 1/(d+1) is feasible for the packing and for its dual
    (fractional domination), so both optima equal n/(d+1).
    """
    degrees = {bin(a).count("1") for a in bitsets(theta)}
    if len(degrees) != 1:
        raise ValueError("graph is not regular")
    return Fraction(theta[0], degrees.pop() + 1)


def alpha(g):
    return max(len(s) for s in gen.brute_mis(g))


# ---------------------------------------------------------------------------
# Certificate checks
# ---------------------------------------------------------------------------

def mapping_problems(obj, g, t):
    """Row-stochastic, zero-error (supports independent in G^t); returns the
    rows as Fractions alongside the problems found."""
    problems = []
    if obj.get("t") != t:
        problems.append(f"mapping t {obj.get('t')} != {t}")
    names = obj.get("codewords", [])
    if len(set(names)) != len(names):
        problems.append("codeword names repeat")
    rows = [[ratio(e) for e in row] for row in obj.get("rows", [])]
    if len(rows) != g[0] ** t:
        return [f"{len(rows)} rows for {g[0] ** t} sequences"], rows
    for x, row in enumerate(rows):
        if len(row) != len(names):
            return [f"row {x} has {len(row)} entries for {len(names)} codewords"], rows
        if any(e < 0 or e > 1 for e in row) or sum(row) != 1:
            problems.append(f"row {x} is not a probability vector")
    for j, name in enumerate(names):
        support = [x for x in range(len(rows)) if rows[x][j] > 0]
        for a in range(len(support)):
            for b in range(a + 1, len(support)):
                if power_adjacent(g, t, support[a], support[b]):
                    problems.append(f"codeword {name} covers confusable {support[a]} and {support[b]}")
                    return problems, rows
    return problems, rows


def leakage_of(rows):
    """Maximal leakage of a scheme: sum over codewords of the largest entry."""
    return sum(max(col) for col in zip(*rows))


def sets_problems(sets, g):
    """Each set independent and maximal in g; no set repeated."""
    adj = bitsets(g)
    full = (1 << g[0]) - 1
    seen = set()
    for s in sets:
        key = tuple(s)
        if key in seen:
            return [f"set {key} repeated"]
        seen.add(key)
        mask = 0
        for v in s:
            mask |= 1 << v
        cover = mask
        for v in s:
            if adj[v] & mask:
                return [f"set {key} is not independent"]
            cover |= adj[v]
        if cover != full:
            return [f"set {key} is not maximal"]
    return []


# ---------------------------------------------------------------------------
# Per-subcommand checks; each returns a function (code, stdout) -> problems
# ---------------------------------------------------------------------------

def _json_check(body):
    def check(code, stdout):
        if code != 0:
            return [f"exit code {code}"]
        try:
            obj = json.loads(stdout)
            return body(obj)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            return [f"malformed answer: {exc}"]
    return check


def _value_problems(obj, value_key, bits_key, want):
    got = ratio(obj[value_key])
    problems = [] if got == want else [f"{value_key} {got} != {want}"]
    if not bits_ok(obj[bits_key], got):
        problems.append(f"{bits_key} {obj[bits_key]} is not log2 of {got}")
    return problems


def chif(want):
    return _json_check(lambda obj: _value_problems(obj, "chi_f", "bits", want))


def alpha_is(want):
    return _json_check(lambda obj: [] if obj == {"alpha": want} else [f"alpha answer {obj} != {want}"])


def leakage_optimal(g, t, want):
    def body(obj):
        problems = [] if obj["t"] == t else [f"t {obj['t']} != {t}"]
        problems += _value_problems(obj, "log2_of", "bits", want)
        if ratio(obj["witness_log2_of"]) != want or obj["witness_matches"] is not True:
            problems.append("witness value does not match the optimum")
        witness_problems, rows = mapping_problems(obj["witness"], g, t)
        problems += witness_problems
        if not witness_problems and leakage_of(rows) != want:
            problems.append(f"witness leaks {leakage_of(rows)}, not {want}")
        return problems
    return _json_check(body)


def leakage_eval(rows):
    return _json_check(lambda obj: _value_problems(obj, "log2_of", "bits", leakage_of(rows)))


def merge(mapping, g, y1, y2):
    before = dict(zip(mapping["codewords"], zip(*mapping["rows"])))

    def body(obj):
        problems, rows = mapping_problems(obj, g, mapping["t"])
        if problems:
            return problems
        after = dict(zip(obj["codewords"], zip(*rows)))
        kept = [c for c in mapping["codewords"] if c not in (y1, y2)]
        new = [c for c in obj["codewords"] if c not in before]
        if [c for c in obj["codewords"] if c in before] != kept or len(new) != 1:
            return ["merged codeword list is wrong"]
        if any(after[c] != before[c] for c in kept):
            problems.append("a codeword other than the merged pair changed")
        if list(after[new[0]]) != [a + b for a, b in zip(before[y1], before[y2])]:
            problems.append("merged column is not the sum of the two columns")
        return problems
    return _json_check(body)


def bounds(key):
    want = EXPECTED[key]
    lower, upper = ratio(want["lower"]), ratio(want["upper"])

    def body(obj):
        problems = _value_problems(obj, "lower", "lower_bits", lower)
        problems += _value_problems(obj, "upper", "upper_bits", upper)
        if obj["tight"] is not (lower == upper):
            problems.append("tight flag disagrees with the bounds")
        return problems
    return _json_check(body)


def mis(g, family=None):
    """Every set independent and maximal; with `family`, the exact list."""
    def body(obj):
        sets = obj["mis"]
        problems = sets_problems(sets, g)
        if family is not None and sorted(tuple(s) for s in sets) != sorted(family):
            problems.append(f"{len(sets)} sets listed, {len(family)} expected")
        if sets and obj["alpha"] != max(len(s) for s in sets):
            problems.append("alpha is not the largest set size")
        return problems
    return _json_check(body)


def info(g):
    def body(obj):
        family = all_mis(g)
        want = {
            "n": g[0],
            "edge_count": len(g[1]),
            "labels": list(g[2]) if g[2] is not None else None,
            "alpha": max(len(s) for s in family),
            "mis_count": len(family),
            "vertex_transitive": None,
        }
        return [f"{k} {obj.get(k)!r} != {v!r}" for k, v in want.items() if obj.get(k) != v]
    return _json_check(body)


def product(g, h, op):
    want = gen.graph_obj(gen.product(g, h, op))
    return _json_check(lambda obj: [] if obj == want else [f"{op} product differs from the coordinate rule"])


def oracle(expect):
    """`expect` lists (check name, rhs or None, lhs test) per report, in order."""
    def body(obj):
        reports = obj["reports"]
        names = [r["check"] for r in reports]
        if names != [name for name, _, _ in expect]:
            return [f"reports {names} != {[name for name, _, _ in expect]}"]
        problems = []
        for report, (name, rhs, lhs_ok) in zip(reports, expect):
            if report["status"] != "pass":
                problems.append(f"{name} status {report['status']}")
            if rhs is not None and ratio(report["rhs"]) != rhs:
                problems.append(f"{name} rhs {report['rhs']} != {rhs}")
            if not lhs_ok(ratio(report["lhs"]), report):
                problems.append(f"{name} lhs {report['lhs']} fails its test")
        return problems
    return _json_check(body)


def duality_report(chi):
    """Duality passes when eta * chi_f = 1 and chi_f is the closed form."""
    return (
        "duality",
        Fraction(1),
        lambda lhs, r: lhs == 1 and ratio(r["witness"]["chi_f"]) == chi and ratio(r["witness"]["eta"]) == 1 / chi,
    )


def floor_report(g, t):
    """Random schemes never beat the floor (n/alpha)^t."""
    floor = Fraction(g[0], alpha(g)) ** t
    return ("multi-guess-floor", floor, lambda lhs, r: lhs >= floor)


def closure_report():
    """Merging never raises leakage: the worst step ratio is at most 1."""
    return ("merge-closure", Fraction(1), lambda lhs, r: 0 < lhs <= 1)


def packing_report(theta):
    """The grid minimax equals 1/packing, reached at the uniform prior."""
    target = 1 / vertex_transitive_packing(theta)
    return ("packing", target, lambda lhs, r: lhs == target)
