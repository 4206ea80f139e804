"""Tests of the benchmark's own code: span arithmetic, checker, generator.

Run with `python3 -m pytest perfbench/tests`.
"""

import json
import random
from fractions import Fraction

import check
import gen
import tracer


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_a_synthetic_span_tree():
    # cli.main [0, 10] -> graphs.or_power [1, 4] -> graphs.or_product [2, 3]
    #                  -> lp.solve_lp [5, 9]
    agg = tracer.Aggregator(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    agg.enter("cli.main", "cli")
    agg.enter("graphs.or_power", "graphs")
    agg.enter("graphs.or_product", "graphs")
    agg.exit()
    agg.exit()
    agg.enter("lp.solve_lp", "lp")
    agg.exit()
    agg.exit()
    assert agg.self_s == {"cli": 3, "graphs": 3, "lp": 4}
    assert agg.self_by_key["graphs.or_power"] == 2
    # nested members of one group count once, by their outermost span
    assert agg.group_s["graphs.product"] == 3
    assert agg.group_s["lp.solve"] == 4
    assert agg.calls["graphs.or_product"] == 1
    assert not agg.stack


def _stats(caches):
    return {
        "import_s": 0.1, "self_s": {"lp": 2.0, "graphs": 1.0}, "self_by_key": {}, "group_s": {"lp.solve": 2.0},
        "calls": {"lp.solve_lp": 4}, "counts": {"lp.cells": 10}, "peaks": {"lp.max_rows": 3},
        "units": {"mis_enumeration": 7}, "caches": caches,
    }


def test_layer_metrics_sum_ops_and_report_missing_caches_as_absent():
    m = tracer.layer_metrics([_stats({"graphs.or_power": [3, 1]}), _stats({"graphs.or_power": [0, 4]})])
    assert m["lp.self_s"] == 4.0 and m["lp.calls"] == 8 and m["lp.cells"] == 20
    assert m["lp.per_call_us"] == 4.0 / 8 * 1e6
    assert m["lp.max_rows"] == 3 and m["graphs.mis_nodes"] == 14
    assert m["graphs.or_power_cache_hit_ratio"] == 3 / 8
    assert "graphs.mis_cache_hit_ratio" not in m


def test_median_stats_takes_median_times_and_first_counts():
    a, b, c = _stats({}), _stats({}), _stats({})
    a["self_s"], b["self_s"], c["self_s"] = {"lp": 1.0}, {"lp": 5.0}, {"lp": 2.0}
    merged = tracer.median_stats([a, b, c])
    assert merged["self_s"]["lp"] == 2.0
    assert merged["calls"] == {"lp.solve_lp": 4}


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

C5 = gen.cycle(5)


def _c5_witness():
    """Optimal C5 scheme: each source splits evenly over its two MIS codewords."""
    sets = gen.brute_mis(C5)
    rows = [["1/2" if x in s else "0/1" for s in sets] for x in range(5)]
    return {"t": 1, "codewords": ["+".join(map(str, s)) for s in sets], "rows": rows}


def _answer(witness, value="5/2"):
    return json.dumps({
        "t": 1, "log2_of": value, "bits": 1.321928094887, "witness": witness,
        "witness_log2_of": value, "witness_matches": True,
    }).encode()


def test_checker_accepts_an_optimal_witness():
    assert check.leakage_optimal(C5, 1, Fraction(5, 2))(0, _answer(_c5_witness())) == []


def test_checker_rejects_a_witness_with_a_confusable_pair():
    witness = _c5_witness()
    # move source 1's mass onto codeword 0+2: 1 is adjacent to both members
    witness["rows"][1] = ["1/1"] + ["0/1"] * 4
    problems = check.leakage_optimal(C5, 1, Fraction(5, 2))(0, _answer(witness))
    assert any("confusable" in p for p in problems)


def test_checker_rejects_a_wrong_chi_f():
    good = json.dumps({"chi_f": "5/2", "bits": 1.321928094887}).encode()
    bad = json.dumps({"chi_f": "3/1", "bits": 1.584962500721}).encode()
    assert check.chif(check.cycle_chi_f(5, 1))(0, good) == []
    assert check.chif(check.cycle_chi_f(5, 1))(0, bad) != []
    assert check.chif(Fraction(5, 2))(1, good) == ["exit code 1"]


def test_checker_rejects_a_non_maximal_mis():
    answer = {"alpha": 2, "mis": [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]}
    assert check.mis(C5, gen.brute_mis(C5))(0, json.dumps(answer).encode()) == []
    answer["mis"][0] = [0]
    problems = check.mis(C5)(0, json.dumps(answer).encode())
    assert problems == ["set (0,) is not maximal"]


def test_checker_rejects_an_unreduced_rational():
    answer = json.dumps({"chi_f": "10/4", "bits": 1.321928094887}).encode()
    assert check.chif(Fraction(5, 2))(0, answer) != []


def test_bitset_mis_matches_subset_enumeration():
    for g in (C5, gen.petersen(), gen.fig1(), gen.random_graph(12, 0.5, random.Random(3))):
        assert check.all_mis(g) == gen.brute_mis(g)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def _generate(tmp_path, seed):
    import workloads

    inputs = gen.Inputs(tmp_path / str(seed), seed)
    for build in workloads.WORKLOADS.values():
        build(inputs)
    return {p.name: p.read_bytes() for p in sorted(inputs.dir.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    first, again, other = _generate(tmp_path / "a", 7), _generate(tmp_path / "b", 7), _generate(tmp_path / "c", 8)
    assert first == again
    assert first.keys() == other.keys()
    changed = {name for name in first if first[name] != other[name]}
    assert changed == {"dense300.json", "dense400.json", "c5_dup_t2.json"}


def test_powers_follow_the_coordinate_rule():
    c5_2 = gen.power(C5, 2, "or")
    assert c5_2[0] == 25 and len(c5_2[1]) == 25 * 16 // 2
    k2_and2 = gen.power(gen.complete(2), 2, "and")
    assert k2_and2[1] == gen.complete(4)[1]
    assert gen.mis_of_or_power(C5, 2) == check.all_mis(c5_2)


def test_local_scale_uses_the_nearest_reference_runs():
    import run

    # a quiet first half (reference at REFERENCE_S) and a twice-slower second half
    references = [(t, run.REFERENCE_S) for t in range(10)] + [(t, 2 * run.REFERENCE_S) for t in range(10, 20)]
    assert run.local_scale(2.0, references) == 1.0
    assert run.local_scale(17.0, references) == 0.5
