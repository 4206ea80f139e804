"""Canonical JSON encoding and strict decoding for every file format.

Output bytes are deterministic: sorted keys, two-space indent, UTF-8, one
trailing newline.  Probabilities and leakage values travel as "p/q" strings so
nothing is rounded in transit.  Decoders reject unknown keys; a loose file is
better refused than half-read.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain, compress
from json.encoder import encode_basestring

from . import bounds, leakage, rationals
from .errors import DomainError
from .graphs import Graph, MalformedPair, make_graph


def canonical_json_bytes(obj) -> bytes:
    """The bytes of `json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`
    plus a newline, UTF-8 encoded.

    With `indent` set, json runs its pure-Python encoder over every value.
    Here dicts with str keys, lists and tuples are laid out directly,
    strings go through json's C string encoder, a list of strings is
    joined from it, and a list of ints or of int lists is written by the
    compact C encoder and re-indented by fixed string replacements.  A
    `Graph` value, at any depth, is written as its graph file object
    {"edges": [[a, b], ...], "labels": [...], "n": n} (labels only when it
    has them) straight from its rows.  Every other value (floats, bools,
    None, dicts with other keys) is written by `json.dumps` itself and
    indented to its depth: its output holds no raw newline but the ones it
    lays out.
    """
    return (_encode(obj, "\n") + "\n").encode("utf-8")


# only ever given int lists, which cannot hold themselves, so the cycle check is skipped
_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _encode(o, newline: str) -> str:
    """o laid out as `json.dumps(o, sort_keys=True, indent=2, ensure_ascii=False)`,
    with newline (a newline plus the indent of o's depth) starting its lines."""
    kind = type(o)
    if kind is str:
        return encode_basestring(o)
    if kind is int:
        return int.__repr__(o)
    if kind is Graph:
        return _graph(o, newline)
    inner = newline + "  "
    if kind is dict and all(type(k) is str for k in o):
        if not o:
            return "{}"
        items = (encode_basestring(k) + ": " + _encode(v, inner) for k, v in sorted(o.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not o:
            return "[]"
        kinds = set(map(type, o))
        if kinds == {int}:
            return "[" + inner + _compact(o)[1:-1].replace(",", "," + inner) + newline + "]"
        if kinds == {str}:
            return "[" + inner + ("," + inner).join(map(encode_basestring, o)) + newline + "]"
        if kinds <= {list, tuple} and set(map(type, chain.from_iterable(o))) <= {int}:
            return _int_lists(o, newline, inner)
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in o]) + newline + "]"
    return json.dumps(o, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", newline)


def _int_lists(o, newline: str, inner: str) -> str:
    """A nonempty list of int lists, from its compact form: "E" stands for an
    empty member list and NUL for a comma between members while the commas
    and brackets inside members are re-indented."""
    deeper = inner + "  "
    body = _compact(o)[1:-1].replace("[]", "E").replace("],", "]\0").replace("E,", "E\0")
    body = body.replace(",", "," + deeper).replace("[", "[" + deeper).replace("]", inner + "]")
    body = body.replace("\0", "," + inner).replace("E", "[]")
    return "[" + inner + body + newline + "]"


# bytes 0 and 1 for the ASCII digits of `bin`, the selectors of itertools.compress
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _graph(g: Graph, newline: str) -> str:
    """g as the object {"edges": [[a, b], ...], "labels": [...], "n": n} would be
    laid out, "labels" only when g has them, from g's rows.

    Pair (a, b) is laid out as a head naming a, then b's name; the pairs,
    in ascending order, are one str.join with the text that closes a pair
    and opens the next.  A row with fewer than one neighbour in 16 of the
    bits above a is read bit by bit; a denser row is one str.join of the
    names that itertools.compress picks by the row's binary digits, in time
    linear in the bits above a up to its last neighbour.
    """
    inner = newline + "  "
    pair = inner + "  "
    lead, mid, between = "[" + pair + "  ", "," + pair + "  ", pair + "]," + pair
    names = list(map(str, range(g.vertex_count)))
    pairs = []
    for a, row in enumerate(g.rows):
        above = row >> (a + 1)
        if not above:
            continue
        head = lead + names[a] + mid
        width = above.bit_length()
        if above.bit_count() * 16 < width:
            while above:
                low = above & -above
                pairs.append(head + names[a + low.bit_length()])
                above ^= low
        else:
            digits = bin(above)[:1:-1].encode().translate(_SELECTORS)
            pairs.append(head + (between + head).join(compress(names[a + 1:a + 1 + width], digits)))
    edges = "[" + pair + between.join(pairs) + pair + "]" + inner + "]" if pairs else "[]"
    labels = "" if g.labels is None else '"labels": ' + _encode(g.labels, inner) + "," + inner
    return "{" + inner + '"edges": ' + edges + "," + inner + labels + '"n": ' + str(g.vertex_count) + newline + "}"


def load_json_file(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise DomainError("unreadable_file", f"cannot read {what} file {path}: {exc.strerror or exc}")
    # bad JSON or UTF-8, an integer past the int-string conversion limit, or
    # arrays and objects nested past the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise DomainError("bad_json", f"{what} file {path} is not valid JSON: {exc}")


def _require_keys(obj, required: set[str], optional: set[str], what: str, code: str) -> None:
    if not isinstance(obj, dict):
        raise DomainError(code, f"{what} must be a JSON object")
    missing = required - obj.keys()
    if missing:
        raise DomainError(code, f"{what} is missing keys: {', '.join(sorted(missing))}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise DomainError(code, f"{what} has unknown keys: {', '.join(sorted(unknown))}")


def graph_from_obj(obj) -> Graph:
    _require_keys(obj, {"n", "edges"}, {"labels"}, "graph", "bad_graph_json")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError("bad_graph_json", f'"n" must be a nonnegative integer, got {n!r}')
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise DomainError("bad_graph_json", '"edges" must be a list of vertex pairs')
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise DomainError("bad_graph_json", '"labels" must be a list of strings')
    # make_graph's walk checks each entry as it reaches it; decoded JSON
    # unpacks into two ints only from a list of two ints
    try:
        return make_graph(n, edges, labels)
    except MalformedPair as exc:
        raise DomainError("bad_graph_json", f"edge {exc.pair!r} must be a pair of integers") from None


def mapping_to_obj(m: leakage.StochasticMapping) -> dict:
    d = m.denominator
    text = {e: rationals.format_ratio(rationals.Fraction(e, d)) for e in set(chain.from_iterable(m.counts))}
    return {
        "t": m.t,
        "codewords": list(m.codewords),
        "rows": [list(map(text.__getitem__, row)) for row in m.counts],
    }


def mapping_from_obj(obj) -> leakage.StochasticMapping:
    _require_keys(obj, {"t", "codewords", "rows"}, set(), "mapping", "bad_mapping_json")
    t = obj["t"]
    if not isinstance(t, int) or isinstance(t, bool):
        raise DomainError("bad_mapping_json", f'"t" must be an integer, got {t!r}')
    codewords = obj["codewords"]
    if not isinstance(codewords, list) or not all(isinstance(c, str) for c in codewords):
        raise DomainError("bad_mapping_json", '"codewords" must be a list of strings')
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise DomainError("bad_mapping_json", '"rows" must be a list of lists')
    parsed = [[rationals.parse_ratio(e) if isinstance(e, str) else _reject_entry(e) for e in row] for row in rows]
    return leakage.make_mapping(t, codewords, parsed)


def _reject_entry(e):
    raise DomainError("bad_mapping_json", f'probability {e!r} must be a "p/q" string')


def bounds_to_obj(report: bounds.BoundsReport) -> dict:
    return {
        "lower": rationals.format_ratio(report.lower.log2_of),
        "upper": rationals.format_ratio(report.upper.log2_of),
        "lower_bits": rationals.bits_display(report.lower.log2_of),
        "upper_bits": rationals.bits_display(report.upper.log2_of),
        "tight": report.tight,
        "provenance": dict(report.provenance),
    }


def parse_budget_spec(text: str) -> bounds.GuessBudget:
    """Parse a budget argument: const:c, poly:d, exp:p/q, or table:PATH."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        shown = rationals._shown_in_message(text, repr)
        raise DomainError("bad_budget_spec", f"budget {shown} must look like kind:value")
    if kind == "const":
        return bounds.GuessBudget.constant(_parse_int(rest, "constant budget count"))
    if kind == "poly":
        return bounds.GuessBudget.polynomial(_parse_int(rest, "polynomial budget degree"))
    if kind == "exp":
        return bounds.GuessBudget.exponential(rationals.parse_ratio(rest))
    if kind == "table":
        obj = load_json_file(rest, "budget table")
        _require_keys(obj, {"values"}, {"growth"}, "budget table", "bad_budget_spec")
        values = obj["values"]
        if not isinstance(values, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
            raise DomainError("bad_budget_spec", '"values" must be a list of integers')
        growth = obj.get("growth")
        if growth is not None and not isinstance(growth, str):
            raise DomainError("bad_budget_spec", '"growth" must be a "p/q" string or null')
        return bounds.GuessBudget.table(values, None if growth is None else rationals.parse_ratio(growth))
    raise DomainError("bad_budget_spec", f"unknown budget kind {rationals._shown_in_message(kind, repr)}")


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        # the pattern is a subset of what `int` reads, so a text it matches
        # failed only by being longer than the int-string conversion limit
        if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text) is None:
            shown = rationals._shown_in_message(text, repr)
            raise DomainError("bad_budget_spec", f"{what} must be an integer, got {shown}")
    limit = sys.get_int_max_str_digits()
    raise DomainError("bad_budget_spec", f"{what} {text[:24]}... has a part over {limit} digits long")
