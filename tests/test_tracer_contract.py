"""The benchmark's traced run reports every per-layer metric it declares.

`perfbench/tracer.py` wraps the package's public functions from outside and
reads the `cache_info()` of the lru-cached ones; a metric whose source is
gone is reported as absent.  One traced call per workload family must
together yield every `per_layer` name of `BENCHMARK.json`, except
`trace.overhead_s`, which `perfbench/run.py` adds.  Both files are read,
never edited.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALLS = [
    ["chif", "--graph", "fixture:c5"],
    ["leakage-optimal", "--graph", "fixture:c5", "--t", "2"],
    ["bounds-multi-approx", "--graph", "fixture:c5", "--theta", "fixture:c5", "--budget", "const:1"],
    ["oracle", "merge-closure", "--graph", "fixture:c5", "--trials", "2"],
    ["mis", "--graph", "fixture:c5"],
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(tmp_path, argv) -> dict:
    """The tracer's stats for one CLI call, which must answer on exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ZEROLEAK_BUDGET", None)
    stats_path = tmp_path / "stats.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(stats_path), *argv],
        capture_output=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    json.loads(done.stdout)  # the CLI's own answer, untouched by the tracer
    return json.loads(stats_path.read_text())


def test_traced_calls_report_every_declared_per_layer_metric(tmp_path):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = _load_tracer().layer_metrics([_trace(tmp_path, argv) for argv in CALLS])
    assert declared - {"trace.overhead_s"} - metrics.keys() == set()


@pytest.mark.parametrize(
    "argv, key, units",
    [
        (CALLS[0], "lp.solve_lp", {"mis_enumeration": 9, "lp_pivots": 5}),
        (CALLS[0], "programs.fractional_chromatic", {"mis_enumeration": 9, "lp_pivots": 5}),
        (CALLS[1], "leakage.optimal_leakage_t", {"mis_enumeration": 9, "lp_pivots": 5}),
        (CALLS[2], "lp.solve_lp", {"mis_enumeration": 10, "set_cover_search": 1, "lp_pivots": 10}),
        (CALLS[2], "bounds.multi_approx_guess_bounds", {"mis_enumeration": 10, "set_cover_search": 1, "lp_pivots": 10}),
        (CALLS[3], "oracle.verify_mergeability_closure", {"mis_enumeration": 9}),
    ],
    ids=["chif_lp", "chif_programs", "leakage_optimal", "bounds_multi_approx", "bounds_module", "merge_closure"],
)
def test_the_tracer_times_every_lazily_loaded_layer(tmp_path, argv, key, units):
    # the layers load on first use, inside the tracer's install(); their
    # calls and meter units must still be seen
    stats = _trace(tmp_path, argv)
    assert stats["calls"].get(key, 0) >= 1
    assert stats["units"] == units
