"""Command-line front end: one subcommand per library operation, JSON out.

Success output is canonical JSON on stdout (or --out); failures put an error
object on stderr and encode the failure class in the exit code: 1 for domain
errors including usage, 2 for resource budgets, 3 for a failed oracle check.

One table, `_SUBCOMMANDS`, gives each subcommand its help line, handler,
output schema, options and positionals; parsing, `-h`, dispatch and
`SCHEMA_BY_SUBCOMMAND` are all read off it.  The parser keeps argparse's
grammar and its usage messages but not its import, which every call would
pay for with `gettext` before reading one subcommand and a few options.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from types import SimpleNamespace

from . import bounds, leakage, oracle, programs, rationals
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
    load_json_file,
    mapping_from_obj,
    mapping_to_obj,
    parse_budget_spec,
)

ORACLE_CHECKS = ("duality", "packing", "multi-guess-floor", "merge-closure")


def load_schema(name: str) -> dict:
    import json
    from importlib import resources

    text = resources.files("zeroleak").joinpath(f"schemas/{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


def load_graph(spec: str) -> Graph:
    if spec.startswith("fixture:"):
        return resolve_fixture(spec[len("fixture:"):])
    return graph_from_obj(load_json_file(spec, "graph"))


def _value_obj(value) -> dict:
    return {"log2_of": rationals.format_ratio(value), "bits": rationals.bits_display(value)}


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


def _cmd_product(args) -> Graph:
    if len(args.graph) < 2:
        raise DomainError("usage", "product needs --graph given at least twice")
    graphs = [load_graph(spec) for spec in args.graph]
    combine = or_product if args.op == "or" else and_product
    return functools.reduce(combine, graphs)


def _cmd_chif(args) -> dict:
    value = programs.fractional_chromatic(load_graph(args.graph)).value
    return {"chi_f": rationals.format_ratio(value), "bits": rationals.bits_display(value)}


def _cmd_alpha(args) -> dict:
    return {"alpha": independence_number(load_graph(args.graph))}


def _cmd_mis(args) -> dict:
    sets = maximal_independent_sets(load_graph(args.graph))
    return {"alpha": max(len(s) for s in sets), "mis": [list(s) for s in sets]}


def _cmd_leakage_eval(args) -> dict:
    g = load_graph(args.graph)
    m = mapping_from_obj(load_json_file(args.mapping, "mapping"))
    report = leakage.validate_mapping(m, g)
    if not report:
        name, u, v = report.witness
        raise DomainError(
            "invalid_mapping",
            f"codeword {name!r} covers confusable sources {u} and {v}",
            {"codeword": name, "u": u, "v": v},
        )
    return _value_obj(leakage.maximal_leakage(m).log2_of)


def _cmd_leakage_optimal(args) -> dict:
    result = leakage.optimal_leakage_t(load_graph(args.graph), args.t)
    return {
        "t": result.t,
        "log2_of": rationals.format_ratio(result.value.log2_of),
        "bits": result.value.bits,
        "witness": mapping_to_obj(result.witness),
        "witness_log2_of": rationals.format_ratio(result.witness_value.log2_of),
        "witness_matches": result.matches,
    }


def _cmd_scheme(args) -> dict:
    return mapping_to_obj(leakage.optimal_scalar_mapping(load_graph(args.graph)))


def _cmd_merge(args) -> dict:
    g = load_graph(args.graph)
    m = mapping_from_obj(load_json_file(args.mapping, "mapping"))
    return mapping_to_obj(leakage.merge_codewords(m, args.y1, args.y2, g))


def _cmd_bounds_multi(args) -> dict:
    return bounds_to_obj(bounds.multi_guess_bounds(load_graph(args.graph), parse_budget_spec(args.budget)))


def _cmd_bounds_approx(args) -> dict:
    return bounds_to_obj(bounds.approx_guess_bounds(load_graph(args.graph), load_graph(args.theta)))


def _cmd_bounds_multi_approx(args) -> dict:
    return bounds_to_obj(
        bounds.multi_approx_guess_bounds(
            load_graph(args.graph), load_graph(args.theta), parse_budget_spec(args.budget)
        )
    )


def _cmd_oracle(args) -> dict:
    for check in args.check:
        if check not in ORACLE_CHECKS:
            raise DomainError("usage", f"unknown check {check!r}; choose from: {', '.join(ORACLE_CHECKS)}")
    gamma = load_graph(args.graph) if args.graph else None
    theta = load_graph(args.theta) if args.theta else None
    budget = parse_budget_spec(args.budget) if args.budget else None
    checks = list(args.check)
    if not checks:
        if gamma is not None:
            checks += ["duality", "multi-guess-floor", "merge-closure"]
        if theta is not None:
            checks.append("packing")
        if not checks:
            raise DomainError("usage", "oracle needs --graph or --theta")
    reports = []
    for check in checks:
        # packing reads the adversary's graph, every other check the source's
        graph = theta if check == "packing" else gamma
        if graph is None:
            raise DomainError("usage", f"{check} check needs {'--theta' if check == 'packing' else '--graph'}")
        if check == "duality":
            reports.append(oracle.verify_eta_duality(graph, args.t))
        elif check == "packing":
            _require_nonempty(graph)
            grid = oracle.distribution_grid(graph.vertex_count, args.grid)
            reports.append(oracle.verify_packing_reciprocity(graph, grid))
        elif check == "multi-guess-floor":
            _require_nonempty(graph)
            if budget is None:  # built here, so that no other check loads `bounds`
                budget = bounds.GuessBudget.constant(1)
            reports.append(oracle.verify_multi_guess_floor(graph, budget, args.t, args.grid, args.trials, args.seed))
        else:
            reports.append(oracle.verify_mergeability_closure(graph, args.t, args.trials, args.seed))
    return {"reports": reports}


class _Option:
    """An option, `--name VALUE`, or a positional when the flag has no dash.

    An int default makes the values ints.  A repeated option collects a
    list, and a repeated positional takes every positional left.
    """

    __slots__ = ("flag", "help", "required", "default", "choices", "repeat", "dest", "label", "usage")

    def __init__(self, flag, help_text, required=False, default=None, choices=None, repeat=False):
        self.flag, self.help, self.required = flag, help_text, required
        self.default, self.choices, self.repeat = default, choices, repeat
        self.dest = flag.lstrip("-").lower()
        if flag[0] != "-":
            self.label, self.usage = flag, f"[{flag} ...]" if repeat else flag
        else:
            self.label = f"{flag} {'{' + ','.join(choices) + '}' if choices else self.dest.upper()}"
            self.usage = self.label if required else f"[{self.label}]"


_HELP = _Option("-h/--help", "show this help message and exit")
_TOP_FLAGS = {"-h": _HELP, "--help": _HELP}
_GRAPH = _Option("--graph", "graph JSON path or fixture:NAME", required=True)
_THETA = _Option("--theta", "adversary graph JSON path or fixture:NAME", required=True)
_MAPPING = _Option("--mapping", "stochastic mapping JSON path", required=True)
_BUDGET = _Option("--budget", "const:c | poly:d | exp:p/q | table:PATH", required=True)
_T = _Option("--t", "block length (default 1)", default=1)
_OUT = _Option("--out", "write output JSON here instead of stdout")

# Each subcommand's (help line, handler, output schema, options).  Parsing,
# help, dispatch and SCHEMA_BY_SUBCOMMAND all read this table; options are
# listed in the order usage errors and help name them.
_SUBCOMMANDS = {
    "info": ("vertex, edge, and independence facts about a graph", _cmd_info, "info", (_GRAPH, _OUT)),
    "product": (
        "product of two or more graphs", _cmd_product, "graph",
        (
            _Option("--graph", "graph JSON path or fixture:NAME (repeat)", required=True, repeat=True),
            _OUT,
            _Option("--op", "which product", required=True, choices=("or", "and")),
        ),
    ),
    "chif": ("fractional chromatic number", _cmd_chif, "chif", (_GRAPH, _OUT)),
    "alpha": ("independence number", _cmd_alpha, "alpha", (_GRAPH, _OUT)),
    "mis": ("all maximal independent sets", _cmd_mis, "mis", (_GRAPH, _OUT)),
    "leakage-eval": ("maximal leakage of a valid mapping", _cmd_leakage_eval, "leakage_eval", (_GRAPH, _MAPPING, _OUT)),
    "leakage-optimal": (
        "least leakage for block length t, with witness scheme", _cmd_leakage_optimal, "leakage_optimal",
        (_GRAPH, _T, _OUT),
    ),
    "scheme": ("optimal single-symbol scheme from a fractional coloring", _cmd_scheme, "mapping", (_GRAPH, _OUT)),
    "merge": (
        "merge two codewords of a mapping", _cmd_merge, "mapping",
        (
            _GRAPH, _MAPPING, _OUT,
            _Option("y1", "first codeword name", required=True),
            _Option("y2", "second codeword name", required=True),
        ),
    ),
    "bounds-multi": (
        "leakage rate bounds against a multi-guess adversary", _cmd_bounds_multi, "bounds", (_GRAPH, _BUDGET, _OUT)
    ),
    "bounds-approx": (
        "leakage rate bounds against an approximate-guess adversary", _cmd_bounds_approx, "bounds",
        (_GRAPH, _THETA, _OUT),
    ),
    "bounds-multi-approx": (
        "bounds against several approximate guesses", _cmd_bounds_multi_approx, "bounds",
        (_GRAPH, _THETA, _BUDGET, _OUT),
    ),
    "oracle": (
        "run independent cross-checks", _cmd_oracle, "oracle",
        (
            _Option("--graph", "graph JSON path or fixture:NAME"),
            _Option("--theta", "adversary graph JSON path or fixture:NAME"),
            _T,
            _Option("--budget", "guess budget for the floor check (default const:1)"),
            _Option("--grid", "prior grid resolution, and r for the floor check (default 4)", default=4),
            _Option("--seed", "seed for randomized trials (default 0)", default=0),
            _Option("--trials", "randomized trial count (default 100)", default=100),
            _OUT,
            _Option("CHECK", f"checks to run, from: {', '.join(ORACLE_CHECKS)} (default: all applicable)", repeat=True),
        ),
    ),
}

# published schema for each subcommand's success output
SCHEMA_BY_SUBCOMMAND = {name: row[2] for name, row in _SUBCOMMANDS.items()}


def _invalid_choice(what: str, value: str, choices) -> DomainError:
    listed = ", ".join(map(repr, choices))
    shown = rationals._shown_in_message(value, repr)
    return DomainError("usage", f"argument {what}: invalid choice: {shown} (choose from {listed})")


def _read_token(token: str, flags: dict):
    """Read one token as argparse does: (option, inline value or None) for
    an option, (None, None) for an unknown option, None for a value.

    `--name=VALUE` splits at the first `=`, and a unique prefix of a long
    flag names its option.  A lone `-`, a negative number and a token with a
    space that names no option are values.
    """
    if len(token) < 2 or token[0] != "-" or token == "--":
        return None
    if token in flags:
        return flags[token], None
    flag, eq, value = token.partition("=")
    if eq and flag in flags:
        return flags[flag], value
    if token[1] == "-":
        matches = [name for name in flags if name.startswith(flag)]
        if len(matches) > 1:
            raise DomainError("usage", f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return flags[matches[0]], value if eq else None
    elif token[:2] in flags:
        return flags[token[:2]], token[2:]
    if re.fullmatch(r"-\d+|-\d*\.\d+", token) or " " in token:
        return None
    return None, None


def _show_help(name: str | None, inline: str | None) -> None:
    if inline is not None:
        raise DomainError("usage", f"argument -h/--help: ignored explicit argument {inline!r}")
    if name is None:
        usage, about = "zeroleak [-h] SUBCOMMAND ...", "Exact leakage analysis over confusion graphs."
        entries = [(sub, row[0]) for sub, row in _SUBCOMMANDS.items()]
    else:
        about, _, _, options = _SUBCOMMANDS[name]
        usage = " ".join([f"zeroleak {name} [-h]"] + [o.usage for o in options])
        entries = [(o.label, o.help) for o in options]
    entries.insert(0, ("-h, --help", _HELP.help))
    width = max(len(left) for left, _ in entries) + 2
    body = "".join(f"  {left.ljust(width)}{text}\n" for left, text in entries)
    _emit(f"usage: {usage}\n\n{about}\n\n{body}".encode(), None)


def _parse(argv: list[str]):
    """Read argv against `_SUBCOMMANDS`: (subcommand, args), or None once
    `-h` has printed its help.  Every usage problem is a `usage` DomainError
    worded as argparse words it.

    The subcommand comes first.  An option takes one value, the last one
    given wins unless the option repeats, and a value that reads as an
    option is refused.  Positionals may sit between options, and after `--`
    every token is one.
    """
    if not argv:
        raise DomainError("usage", "the following arguments are required: SUBCOMMAND")
    name, tokens = argv[0], argv[1:]
    read = _read_token(name, _TOP_FLAGS)
    if read and read[0] is _HELP:
        return _show_help(None, read[1])
    if name not in _SUBCOMMANDS:
        raise _invalid_choice("SUBCOMMAND", name, _SUBCOMMANDS)
    options = _SUBCOMMANDS[name][3]
    flags = dict(_TOP_FLAGS, **{o.flag: o for o in options if o.flag[0] == "-"})
    slots = [o for o in options if o.flag[0] != "-"]
    ends = tokens.index("--") if "--" in tokens else len(tokens)
    reads = [_read_token(token, flags) for token in tokens[:ends]] + [None] * (len(tokens) - ends)
    if ends < len(tokens):
        if slots:
            del tokens[ends], reads[ends]
        else:
            reads[ends] = None, None  # argparse leaves it unrecognized
    values = {o.dest: [] if o.repeat else o.default for o in options}
    extras, filled, i = [], 0, 0
    while i < len(tokens):
        token, read = tokens[i], reads[i]
        i += 1
        if read is None:
            if filled == len(slots):
                extras.append(token)
                continue
            option, value = slots[filled], token
            filled += not option.repeat
        else:
            option, value = read
            if option is None:
                extras.append(token)
                continue
            if option is _HELP:
                return _show_help(name, value)
            if value is None:
                if i == ends or reads[i] is not None:
                    raise DomainError("usage", f"argument {option.flag}: expected one argument")
                value, i = tokens[i], i + 1
        if isinstance(option.default, int):
            try:
                value = int(value)
            except ValueError:
                shown = rationals._shown_in_message(value, repr)
                raise DomainError("usage", f"argument {option.flag}: invalid int value: {shown}") from None
        if option.choices and value not in option.choices:
            raise _invalid_choice(option.flag, value, option.choices)
        if option.repeat:
            values[option.dest].append(value)
        else:
            values[option.dest] = value
    missing = [o.flag for o in options if o.required and values[o.dest] in (None, [])]
    if missing:
        raise DomainError("usage", f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise DomainError("usage", f"unrecognized arguments: {' '.join(extras)}")
    return name, SimpleNamespace(**values)


def _emit(data: bytes, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "wb") as f:
                f.write(data)
        except OSError as exc:
            raise DomainError("unwritable_file", f"cannot write output file {out_path}: {exc.strerror or exc}")
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else list(argv))
        if parsed is None:
            return 0
        name, args = parsed
        result = _SUBCOMMANDS[name][1](args)
        _emit(canonical_json_bytes(result), args.out)
        if name == "oracle" and any(r["status"] == "fail" for r in result["reports"]):
            return 3
        return 0
    except ZeroleakError as exc:
        sys.stderr.buffer.write(canonical_json_bytes(exc.to_obj()))
        sys.stderr.buffer.flush()
        return exc.exit_code


def run_and_exit() -> None:
    """Process entry of `python -m zeroleak.cli` and the `zeroleak` script.

    Runs `main()`, flushes stdout and stderr and ends the process with
    `os._exit`, skipping the interpreter's teardown: freeing every object,
    clearing the modules and the last collections, about 10 ms a call once
    zeroleak is loaded.  Nothing is lost, since zeroleak registers no
    `atexit` callback, starts no thread and closes `--out` inside `_emit`.
    An exception from `main()` propagates through normal teardown; callers
    in the same process use `main()`, which returns its code.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
