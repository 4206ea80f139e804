"""Command-line front end: one subcommand per library operation, JSON out.

Success output is canonical JSON on stdout (or --out); failures put an error
object on stderr and encode the failure class in the exit code: 1 for domain
errors including usage, 2 for resource budgets, 3 for a failed oracle check.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .budget import AUTOMORPHISM_VERTEX_CAP
from .errors import DomainError, ZeroleakError
from .fixtures import resolve_fixture
from .graphs import (
    Graph,
    _require_nonempty,
    and_product,
    independence_number,
    is_vertex_transitive,
    maximal_independent_sets,
    or_product,
)
from .jsonio import (
    bounds_to_obj,
    canonical_json_bytes,
    graph_from_obj,
    graph_to_obj,
    load_json_file,
    mapping_from_obj,
    mapping_to_obj,
    parse_budget_spec,
)
from .leakage import (
    GuessBudget,
    approx_guess_bounds,
    maximal_leakage,
    merge_codewords,
    multi_approx_guess_bounds,
    multi_guess_bounds,
    optimal_leakage_t,
    optimal_scalar_mapping,
    validate_mapping,
)
from .oracle import (
    distribution_grid,
    verify_eta_duality,
    verify_mergeability_closure,
    verify_multi_guess_floor,
    verify_packing_reciprocity,
)
from .programs import fractional_chromatic
from .rationals import bits_display, format_ratio

ORACLE_CHECKS = ("duality", "packing", "multi-guess-floor", "merge-closure")

# published schema for each subcommand's success output
SCHEMA_BY_SUBCOMMAND = {
    "info": "info",
    "product": "graph",
    "chif": "chif",
    "alpha": "alpha",
    "mis": "mis",
    "leakage-eval": "leakage_eval",
    "leakage-optimal": "leakage_optimal",
    "scheme": "mapping",
    "merge": "mapping",
    "bounds-multi": "bounds",
    "bounds-approx": "bounds",
    "bounds-multi-approx": "bounds",
    "oracle": "oracle",
}


def load_schema(name: str) -> dict:
    import json
    from importlib import resources

    text = resources.files("zeroleak").joinpath(f"schemas/{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as domain errors, never exit code 2."""

    def error(self, message):
        raise DomainError("usage", message)


def load_graph(spec: str) -> Graph:
    if spec.startswith("fixture:"):
        return resolve_fixture(spec[len("fixture:"):])
    return graph_from_obj(load_json_file(spec, "graph"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="zeroleak", description="Exact leakage analysis over confusion graphs.")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    def add(name, help_text, graphs=0, theta=False, mapping=False, t=False, budget=False):
        p = sub.add_parser(name, help=help_text)
        if graphs == 1:
            p.add_argument("--graph", required=True, help="graph JSON path or fixture:NAME")
        elif graphs > 1:
            p.add_argument("--graph", required=True, action="append", dest="graphs",
                           help="graph JSON path or fixture:NAME (repeat)")
        if theta:
            p.add_argument("--theta", required=True, help="adversary graph JSON path or fixture:NAME")
        if mapping:
            p.add_argument("--mapping", required=True, help="stochastic mapping JSON path")
        if t:
            p.add_argument("--t", type=int, default=1, help="block length (default 1)")
        if budget:
            p.add_argument("--budget", required=True, help="const:c | poly:d | exp:p/q | table:PATH")
        p.add_argument("--out", help="write output JSON here instead of stdout")
        return p

    add("info", "vertex, edge, and independence facts about a graph", graphs=1)
    p = add("product", "product of two or more graphs", graphs=2)
    p.add_argument("--op", required=True, choices=("or", "and"), help="which product")
    add("chif", "fractional chromatic number", graphs=1)
    add("alpha", "independence number", graphs=1)
    add("mis", "all maximal independent sets", graphs=1)
    add("leakage-eval", "maximal leakage of a valid mapping", graphs=1, mapping=True)
    add("leakage-optimal", "least leakage for block length t, with witness scheme", graphs=1, t=True)
    add("scheme", "optimal single-symbol scheme from a fractional coloring", graphs=1)
    p = add("merge", "merge two codewords of a mapping", graphs=1, mapping=True)
    p.add_argument("y1", help="first codeword name")
    p.add_argument("y2", help="second codeword name")
    add("bounds-multi", "leakage rate bounds against a multi-guess adversary", graphs=1, budget=True)
    add("bounds-approx", "leakage rate bounds against an approximate-guess adversary", graphs=1, theta=True)
    add("bounds-multi-approx", "bounds against several approximate guesses", graphs=1, theta=True, budget=True)
    p = sub.add_parser("oracle", help="run independent cross-checks")
    p.add_argument("checks", nargs="*", metavar="CHECK", help=f"checks to run, from: {', '.join(ORACLE_CHECKS)} (default: all applicable)")
    p.add_argument("--graph", help="graph JSON path or fixture:NAME")
    p.add_argument("--theta", help="adversary graph JSON path or fixture:NAME")
    p.add_argument("--t", type=int, default=1, help="block length (default 1)")
    p.add_argument("--budget", help="guess budget for the floor check (default const:1)")
    p.add_argument("--grid", type=int, default=4, help="prior grid resolution, and r for the floor check (default 4)")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized trials (default 0)")
    p.add_argument("--trials", type=int, default=100, help="randomized trial count (default 100)")
    p.add_argument("--out", help="write output JSON here instead of stdout")
    return parser


def _value_obj(value) -> dict:
    return {"log2_of": format_ratio(value), "bits": bits_display(value)}


def _cmd_info(args) -> dict:
    g = load_graph(args.graph)
    transitive = is_vertex_transitive(g) if 1 <= g.vertex_count <= AUTOMORPHISM_VERTEX_CAP else None
    sets = maximal_independent_sets(g) if g.vertex_count else ()
    return {
        "n": g.vertex_count,
        "edge_count": g.edge_count,
        "labels": list(g.labels) if g.labels is not None else None,
        "alpha": max(map(len, sets), default=0),
        "mis_count": len(sets),
        "vertex_transitive": transitive,
    }


def _cmd_product(args) -> dict:
    if len(args.graphs) < 2:
        raise DomainError("usage", "product needs --graph given at least twice")
    graphs = [load_graph(spec) for spec in args.graphs]
    combine = or_product if args.op == "or" else and_product
    return graph_to_obj(functools.reduce(combine, graphs))


def _cmd_chif(args) -> dict:
    value = fractional_chromatic(load_graph(args.graph)).value
    return {"chi_f": format_ratio(value), "bits": bits_display(value)}


def _cmd_alpha(args) -> dict:
    return {"alpha": independence_number(load_graph(args.graph))}


def _cmd_mis(args) -> dict:
    sets = maximal_independent_sets(load_graph(args.graph))
    return {"alpha": max(len(s) for s in sets), "mis": [list(s) for s in sets]}


def _cmd_leakage_eval(args) -> dict:
    g = load_graph(args.graph)
    m = mapping_from_obj(load_json_file(args.mapping, "mapping"))
    report = validate_mapping(m, g)
    if not report:
        name, u, v = report.witness
        raise DomainError(
            "invalid_mapping",
            f"codeword {name!r} covers confusable sources {u} and {v}",
            {"codeword": name, "u": u, "v": v},
        )
    return _value_obj(maximal_leakage(m).log2_of)


def _cmd_leakage_optimal(args) -> dict:
    result = optimal_leakage_t(load_graph(args.graph), args.t)
    return {
        "t": result.t,
        "log2_of": format_ratio(result.value.log2_of),
        "bits": result.value.bits,
        "witness": mapping_to_obj(result.witness),
        "witness_log2_of": format_ratio(result.witness_value.log2_of),
        "witness_matches": result.matches,
    }


def _cmd_scheme(args) -> dict:
    return mapping_to_obj(optimal_scalar_mapping(load_graph(args.graph)))


def _cmd_merge(args) -> dict:
    g = load_graph(args.graph)
    m = mapping_from_obj(load_json_file(args.mapping, "mapping"))
    return mapping_to_obj(merge_codewords(m, args.y1, args.y2, g))


def _cmd_bounds_multi(args) -> dict:
    return bounds_to_obj(multi_guess_bounds(load_graph(args.graph), parse_budget_spec(args.budget)))


def _cmd_bounds_approx(args) -> dict:
    return bounds_to_obj(approx_guess_bounds(load_graph(args.graph), load_graph(args.theta)))


def _cmd_bounds_multi_approx(args) -> dict:
    return bounds_to_obj(
        multi_approx_guess_bounds(
            load_graph(args.graph), load_graph(args.theta), parse_budget_spec(args.budget)
        )
    )


def _cmd_oracle(args) -> dict:
    for check in args.checks:
        if check not in ORACLE_CHECKS:
            raise DomainError("usage", f"unknown check {check!r}; choose from: {', '.join(ORACLE_CHECKS)}")
    requested = tuple(args.checks) or None
    gamma = load_graph(args.graph) if args.graph else None
    theta = load_graph(args.theta) if args.theta else None
    budget = parse_budget_spec(args.budget) if args.budget else GuessBudget.constant(1)

    def applicable():
        checks = []
        if gamma is not None:
            checks.extend(["duality", "multi-guess-floor", "merge-closure"])
        if theta is not None:
            checks.append("packing")
        if not checks:
            raise DomainError("usage", "oracle needs --graph or --theta")
        return checks

    reports = []
    for check in requested or applicable():
        if check == "duality":
            if gamma is None:
                raise DomainError("usage", "duality check needs --graph")
            reports.append(verify_eta_duality(gamma, args.t))
        elif check == "packing":
            if theta is None:
                raise DomainError("usage", "packing check needs --theta")
            _require_nonempty(theta)
            reports.append(verify_packing_reciprocity(theta, distribution_grid(theta.vertex_count, args.grid)))
        elif check == "multi-guess-floor":
            if gamma is None:
                raise DomainError("usage", "multi-guess-floor check needs --graph")
            _require_nonempty(gamma)
            reports.append(verify_multi_guess_floor(gamma, budget, args.t, args.grid, args.trials, args.seed))
        else:
            if gamma is None:
                raise DomainError("usage", "merge-closure check needs --graph")
            reports.append(verify_mergeability_closure(gamma, args.t, args.trials, args.seed))
    return {"reports": reports}


_HANDLERS = {
    "info": _cmd_info,
    "product": _cmd_product,
    "chif": _cmd_chif,
    "alpha": _cmd_alpha,
    "mis": _cmd_mis,
    "leakage-eval": _cmd_leakage_eval,
    "leakage-optimal": _cmd_leakage_optimal,
    "scheme": _cmd_scheme,
    "merge": _cmd_merge,
    "bounds-multi": _cmd_bounds_multi,
    "bounds-approx": _cmd_bounds_approx,
    "bounds-multi-approx": _cmd_bounds_multi_approx,
    "oracle": _cmd_oracle,
}


def _emit(data: bytes, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "wb") as f:
            f.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        result = _HANDLERS[args.subcommand](args)
        _emit(canonical_json_bytes(result), args.out)
        if args.subcommand == "oracle" and any(r["status"] == "fail" for r in result["reports"]):
            return 3
        return 0
    except ZeroleakError as exc:
        sys.stderr.buffer.write(canonical_json_bytes(exc.to_obj()))
        sys.stderr.buffer.flush()
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
