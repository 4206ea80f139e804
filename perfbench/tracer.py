"""Per-layer tracer for one CLI call, run from outside the program.

    python perfbench/tracer.py STATS_FILE SUBCOMMAND [ARGS...]

imports `zeroleak.cli`, re-binds a timing wrapper at every `zeroleak.*`
module binding of each public function (the modules use `from .x import y`,
so one function has several bindings), counts `WorkMeter.spend` units per
meter name, calls `cli.main(argv)` and writes the aggregated spans and counts
to STATS_FILE as JSON.  stdout and the exit code are the CLI's own.

Spans are aggregated as they close: a span's self time is its duration minus
the time its child spans cover, summed per layer and per function.  Private
functions (a leading underscore, such as the simplex `_pivot`) are never
wrapped, so their time is the self time of the public caller.

The functions `layer_metrics` and `median_stats` turn stats files into the
benchmark's per-layer metrics; they import nothing from zeroleak.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter

# Layers are package modules; the wire-format helpers join jsonio.
LAYER_OF_MODULE = {
    "zeroleak.cli": "cli",
    "zeroleak.jsonio": "jsonio",
    "zeroleak.rationals": "jsonio",
    "zeroleak.fixtures": "jsonio",
    "zeroleak.graphs": "graphs",
    "zeroleak.lp": "lp",
    "zeroleak.programs": "programs",
    "zeroleak.leakage": "leakage",
    "zeroleak.oracle": "oracle",
    "zeroleak.budget": "budget",
}
LAYERS = ("cli", "jsonio", "graphs", "lp", "programs", "leakage", "oracle")

# Named sets of functions whose outermost spans are timed together, so a
# call nested inside another member of its group is not counted twice.
GROUPS = {
    "jsonio.load": {"jsonio.load_json_file", "jsonio.graph_from_obj", "jsonio.mapping_from_obj",
                    "jsonio.parse_budget_spec"},
    "jsonio.encode": {"jsonio.canonical_json_bytes", "jsonio.graph_to_obj", "jsonio.mapping_to_obj",
                      "jsonio.bounds_to_obj"},
    "graphs.mis": {"graphs.maximal_independent_sets", "graphs.mis_of_or_power", "graphs.independence_number"},
    "graphs.product": {"graphs.or_product", "graphs.and_product", "graphs.or_power", "graphs.and_power"},
    "graphs.hypergraph": {"graphs.associated_hypergraph"},
    "lp.solve": {"lp.solve_lp"},
    "lp.make": {"lp.make_lp"},
    "programs.cover": {"programs.covering_number"},
    "oracle.generate": {"oracle.generate_valid_mapping"},
}
# Self time of these plus all of make_lp is the time spent building LPs.
LP_BUILDERS = ("programs.fractional_chromatic", "programs.maximin_eta", "programs.fractional_covering",
               "programs.fractional_packing")
CACHES = {"mis": "graphs.maximal_independent_sets", "or_power": "graphs.or_power", "adjacency": "graphs.adjacency"}


class Aggregator:
    """Span stack that folds each closed span into per-layer totals."""

    def __init__(self, clock=time.perf_counter, groups=GROUPS):
        self.clock = clock
        self.groups_of = {}
        for group, keys in groups.items():
            for key in keys:
                self.groups_of.setdefault(key, []).append(group)
        self.stack = []  # [key, layer, start, time covered by children]
        self.self_s = Counter()
        self.self_by_key = Counter()
        self.group_s = Counter()
        self.depth = Counter()  # open spans per group and per layer
        self.group_start = {}
        self.calls = Counter()
        self.counts = Counter()
        self.peaks = Counter()
        self.units = Counter()

    def enter(self, key, layer):
        now = self.clock()
        self.stack.append([key, layer, now, 0.0])
        self.calls[key] += 1
        self.depth[layer] += 1
        for group in self.groups_of.get(key, ()):
            if self.depth[group] == 0:
                self.group_start[group] = now
            self.depth[group] += 1

    def exit(self):
        now = self.clock()
        key, layer, start, covered = self.stack.pop()
        duration = now - start
        self.self_s[layer] += duration - covered
        self.self_by_key[key] += duration - covered
        if self.stack:
            self.stack[-1][3] += duration
        self.depth[layer] -= 1
        for group in self.groups_of.get(key, ()):
            self.depth[group] -= 1
            if self.depth[group] == 0:
                self.group_s[group] += now - self.group_start[group]

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks[name], value)


# ---------------------------------------------------------------------------
# Probes: read sizes off arguments and results; they never raise
# ---------------------------------------------------------------------------

def _probe_solve_lp(agg, args, result, miss):
    program = args[0] if args else None
    rows = len(getattr(program, "constraints", ()))
    cols = len(getattr(program, "objective", ()))
    agg.counts["lp.cells"] += rows * cols
    agg.counts["lp.bounded_cols"] += sum(1 for b in getattr(program, "bounds", ()) if b[1] is not None)
    agg.peak("lp.max_rows", rows)
    agg.peak("lp.max_cols", cols)
    numbers = [getattr(result, "value", None)] + list(getattr(result, "assignment", None) or ())
    for x in numbers:
        if x is not None:
            agg.peak("lp.den_bits_max", x.denominator.bit_length())
    if agg.depth["programs.cover"]:
        agg.counts["lp.solves_in_cover"] += 1


def _probe_mis(agg, args, result, miss):
    if miss:
        agg.counts["graphs.mis_sets"] += len(result)


def _probe_witness(agg, args, result, miss):
    mapping = getattr(result, "witness", result)
    agg.counts["leakage.witness_cells"] += len(mapping.rows) * len(mapping.codewords)


def _probe_merge(agg, args, result, miss):
    if agg.depth["oracle"]:
        agg.counts["oracle.merges"] += 1


def _probe_grid(agg, args, result, miss):
    agg.counts["oracle.grid_points"] += len(result.points)


def _probe_encode(agg, args, result, miss):
    agg.counts["jsonio.out_bytes"] += len(result)


PROBES = {
    "lp.solve_lp": _probe_solve_lp,
    "graphs.maximal_independent_sets": _probe_mis,
    "leakage.optimal_leakage_t": _probe_witness,
    "leakage.optimal_scalar_mapping": _probe_witness,
    "leakage.merge_codewords": _probe_merge,
    "oracle.distribution_grid": _probe_grid,
    "jsonio.canonical_json_bytes": _probe_encode,
}


def _wrap(fn, key, layer, agg):
    probe = PROBES.get(key)
    cached = probe is not None and hasattr(fn, "cache_info")

    def traced(*args, **kwargs):
        misses = fn.cache_info().misses if cached else 0
        agg.enter(key, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            agg.exit()
        if probe is not None:
            try:
                probe(agg, args, result, not cached or fn.cache_info().misses > misses)
            except (AttributeError, TypeError, IndexError):
                pass  # a field the probe reads is gone: its count stays at zero
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", key)
    return traced


def install(agg):
    """Wrap every public zeroleak function at each of its module bindings."""
    import types

    from zeroleak.budget import WorkMeter

    wrappers = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "zeroleak" or module_name.startswith("zeroleak.")):
            continue
        for attr, fn in list(vars(module).items()):
            home = getattr(fn, "__module__", None) or ""
            if attr.startswith("_") or not home.startswith("zeroleak."):
                continue
            if not (isinstance(fn, types.FunctionType) or hasattr(fn, "cache_info")):
                continue
            if id(fn) not in wrappers:
                key = f"{home.rsplit('.', 1)[-1]}.{fn.__name__}"
                layer = LAYER_OF_MODULE.get(home, home.rsplit(".", 1)[-1])
                wrappers[id(fn)] = (fn, key, _wrap(fn, key, layer, agg))
            setattr(module, attr, wrappers[id(fn)][2])

    spend = WorkMeter.spend

    def counted_spend(self, amount=1):
        agg.units[self.name] += amount
        return spend(self, amount)

    WorkMeter.spend = counted_spend
    return [(key, fn) for fn, key, _ in wrappers.values()]


def main(argv):
    stats_path, cli_argv = argv[0], argv[1:]
    started = time.perf_counter()
    import zeroleak.cli  # noqa: F401  (the import itself is measured)

    import_s = time.perf_counter() - started
    agg = Aggregator()
    wrapped = install(agg)
    cli = sys.modules["zeroleak.cli"]
    code = cli.main(cli_argv)
    caches = {key: list(fn.cache_info()[:2]) for key, fn in wrapped if hasattr(fn, "cache_info")}
    stats = {
        "import_s": import_s,
        "self_s": agg.self_s,
        "self_by_key": agg.self_by_key,
        "group_s": agg.group_s,
        "calls": agg.calls,
        "counts": agg.counts,
        "peaks": agg.peaks,
        "units": agg.units,
        "caches": caches,
    }
    with open(stats_path, "w", encoding="utf-8") as f:
        json.dump(stats, f)
    return code


# ---------------------------------------------------------------------------
# Stats files -> per-layer metrics
# ---------------------------------------------------------------------------

TIMED = ("self_s", "self_by_key", "group_s")


def median_stats(samples):
    """One op's stats with every time replaced by its median over samples.

    Counts are taken from the first sample: the same input does the same work.
    """
    merged = dict(samples[0])
    merged["import_s"] = statistics.median(s["import_s"] for s in samples)
    for field in TIMED:
        keys = set().union(*(s[field] for s in samples))
        merged[field] = {k: statistics.median(s[field].get(k, 0.0) for s in samples) for k in keys}
    return merged


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(op_stats):
    """Per-layer metrics of a workload from the stats of each of its ops."""
    total = {field: Counter() for field in TIMED + ("calls", "counts", "units")}
    peaks = Counter()
    caches = {}
    import_s = 0.0
    for stats in op_stats:
        import_s += stats["import_s"]
        for field in total:
            total[field].update(stats[field])
        for k, v in stats["peaks"].items():
            peaks[k] = max(peaks[k], v)
        for key, (hits, misses) in stats["caches"].items():
            h, m = caches.get(key, (0, 0))
            caches[key] = (h + hits, m + misses)
    self_s, group_s, calls, counts, units = (total[f] for f in ("self_s", "group_s", "calls", "counts", "units"))
    m = {"cli.import_s": import_s}
    m.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    m.update({
        "jsonio.load_s": group_s["jsonio.load"],
        "jsonio.encode_s": group_s["jsonio.encode"],
        "jsonio.out_bytes": counts["jsonio.out_bytes"],
        "graphs.mis_s": group_s["graphs.mis"],
        "graphs.mis_nodes": units["mis_enumeration"],
        "graphs.mis_sets": counts["graphs.mis_sets"],
        "graphs.product_s": group_s["graphs.product"],
        "graphs.hypergraph_s": group_s["graphs.hypergraph"],
        "graphs.hypergraph_calls": calls["graphs.associated_hypergraph"],
        "lp.solve_s": group_s["lp.solve"],
        "lp.calls": calls["lp.solve_lp"],
        "lp.per_call_us": _ratio(group_s["lp.solve"] * 1e6, calls["lp.solve_lp"]),
        "lp.cells": counts["lp.cells"],
        "lp.max_rows": peaks["lp.max_rows"],
        "lp.max_cols": peaks["lp.max_cols"],
        "lp.bounded_cols": counts["lp.bounded_cols"],
        "lp.den_bits_max": peaks["lp.den_bits_max"],
        "programs.build_s": sum(total["self_by_key"][k] for k in LP_BUILDERS) + group_s["lp.make"],
        "programs.cover_s": group_s["programs.cover"],
        "programs.cover_nodes": units["set_cover_search"],
        "programs.cover_lp_solves_per_node": _ratio(counts["lp.solves_in_cover"], units["set_cover_search"]),
        "leakage.merge_calls": calls["leakage.merge_codewords"],
        "leakage.validate_calls": calls["leakage.validate_mapping"],
        "leakage.witness_cells": counts["leakage.witness_cells"],
        "oracle.generate_s": group_s["oracle.generate"],
        "oracle.trials": calls["oracle.generate_valid_mapping"],
        "oracle.merges": counts["oracle.merges"],
        "oracle.grid_points": counts["oracle.grid_points"],
        "budget.units": sum(units.values()),
    })
    # a cache that no longer exists is reported as absent, not as zero
    for name, key in CACHES.items():
        if key in caches:
            hits, misses = caches[key]
            m[f"graphs.{name}_cache_hit_ratio"] = _ratio(hits, hits + misses)
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
