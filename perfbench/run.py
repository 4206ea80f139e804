"""zeroleak benchmark: drives `python -m zeroleak.cli` as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one child process at a time, all on one CPU.  Each invocation is
timed from spawn to exit, its peak RSS is read through `os.wait4`, and its
answer is checked by `check.py`.  Every op runs once, then ops are sampled
again (see `measure`) until `--seconds` is spent.

--trace 0 prints the end-to-end metrics:
  wall_s       sum over the workload's ops of each op's median wall time
  setup_s      median cold start of `alpha --graph fixture:e1`
  peak_rss_mb  largest child peak RSS
Cold starts and runs of `reference.py` are spread over the run.  Each op
and cold-start sample is scaled by REFERENCE_S over the median time of the
reference runs nearest to it, which cancels the speed of the machine.
--trace 1 runs every op both plainly and under `tracer.py` and prints the
per-layer metrics (unscaled medians over samples) plus `trace.overhead_s`.

The last stdout line is one JSON object; progress and every raw sample go to
stderr.  Inputs are generated under `.perfbench_run/` in the checkout that
holds this file, and removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_STARTS = 15
REFERENCE_RUNS = 20
# reference.py wall time on the machine the seed numbers were recorded on,
# when it was quiet, so that times read as seconds there; see the README
REFERENCE_S = 0.125
OP_TIMEOUT_S = 60.0
HARD_STOP_S = 170.0  # the whole run, set-up included, must end well within 180 s


class Runner:
    """Spawns, times, and checks one child at a time."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.hard_stop = started + HARD_STOP_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("ZEROLEAK_BUDGET", None)
        self.attempted = 0
        self.failed = 0
        self.peak_kb = 0
        self.verdicts = {}

    def spawn(self, cmd):
        """Run one child to exit; returns (wall seconds, exit code, stdout, timed out)."""
        timeout = max(1.0, min(OP_TIMEOUT_S, self.hard_stop - time.perf_counter()))
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            reaped = threading.Event()

            def kill():
                if not reaped.is_set():
                    os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                reaped.set()
                timer.cancel()
                timer.join()
            elapsed = time.perf_counter() - started
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        timed_out = code == -signal.SIGKILL and elapsed >= timeout
        return elapsed, code, out_path.read_bytes(), timed_out

    def invoke(self, op, traced=False):
        """Run and check one op; returns (wall seconds, tracer stats or None)."""
        stats_path = self.work / "stats.json"
        if traced:
            stats_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "tracer.py"), str(stats_path), *op.argv]
        else:
            cmd = [sys.executable, "-m", "zeroleak.cli", *op.argv]
        elapsed, code, stdout, timed_out = self.spawn(cmd)
        problems = [f"timed out after {elapsed:.0f} s"] if timed_out else self.verdict(op, code, stdout)
        self.attempted += 1
        if problems:
            self.failed += 1
            detail = (self.work / "stderr").read_bytes()[:300].decode("utf-8", "replace")
            print(f"FAIL {op.name}: {'; '.join(problems[:3])} {detail}", file=sys.stderr)
        stats = None
        if traced and stats_path.exists():
            stats = json.loads(stats_path.read_text())
        return elapsed, stats

    def reference(self):
        """Wall seconds of one run of `reference.py`, the machine-speed yardstick."""
        elapsed, code, _, _ = self.spawn([sys.executable, str(HERE / "reference.py")])
        if code != 0:
            raise RuntimeError(f"reference.py exited with code {code}")
        return elapsed

    def verdict(self, op, code, stdout):
        # outputs are deterministic, so each distinct answer is checked once
        key = (op.name, code, hashlib.sha256(stdout).hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = op.check(code, stdout)
        return self.verdicts[key]


def local_scale(when, references, nearest=5):
    """REFERENCE_S over the median time of the reference runs nearest to `when`."""
    near = sorted(references, key=lambda r: abs(r[0] - when))[:nearest]
    return REFERENCE_S / statistics.median(t for _, t in near)


def measure(ops, seconds, run_one, tick=lambda progress: None):
    """Sample ops until `seconds` are spent; returns each op's samples.

    Every op runs once in list order.  After that the next op is the one
    whose extra sample shrinks the variance of the summed medians most per
    second spent, m / (n (n + 1)) for median m over n samples, among the ops
    whose median still fits in the time left.  `tick` gets the share of
    `seconds` spent after each sample.
    """
    samples = {op.name: [] for op in ops}
    started = time.perf_counter()

    def sample(op):
        samples[op.name].append(run_one(op))
        tick((time.perf_counter() - started) / seconds)

    for op in ops:
        sample(op)
    while True:
        remaining = started + seconds - time.perf_counter()
        cost = {name: statistics.median(times) for name, times in samples.items()}
        fits = [op for op in ops if cost[op.name] <= remaining]
        if not fits:
            return samples
        sample(max(fits, key=lambda o: cost[o.name] / (len(samples[o.name]) * (len(samples[o.name]) + 1))))


def run(args, work: Path):
    started = time.perf_counter()
    if hasattr(os, "sched_setaffinity"):
        # one CPU for every child: the ops and the reference share its speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(work, started)
    inputs = gen.Inputs(work / "inputs", args.seed)
    ops = workloads.WORKLOADS[args.workload](inputs)
    runner.invoke(workloads.COLD_START)  # writes bytecode caches; not timed
    print(f"set-up done in {time.perf_counter() - started:.1f} s", file=sys.stderr)

    if not args.trace:
        when = {}  # name -> mid-point of each sample, on the perf_counter clock

        def timed(name, run_one):
            begun = time.perf_counter()
            elapsed = run_one()
            when.setdefault(name, []).append(begun + elapsed / 2)
            return elapsed

        cold, yardstick = [], []

        def interleave(progress):
            # spread over the run, so they see the same machine as the ops
            due = math.ceil(COLD_STARTS * min(progress, 1.0))
            while len(cold) < due:
                cold.append(timed("cold_start", lambda: runner.invoke(workloads.COLD_START)[0]))
            due = math.ceil(REFERENCE_RUNS * min(progress, 1.0))
            while len(yardstick) < due:
                yardstick.append(timed("reference", runner.reference))

        samples = measure(ops, args.seconds, lambda op: timed(op.name, lambda: runner.invoke(op)[0]), interleave)
        interleave(1.0)
        references = list(zip(when["reference"], yardstick))

        def scaled_median(name, times):
            return statistics.median(t * local_scale(w, references) for w, t in zip(when[name], times))

        wall, setup = sum(statistics.median(v) for v in samples.values()), statistics.median(cold)
        print(f"unscaled wall {wall:.4f} s, cold start {setup:.4f} s", file=sys.stderr)
        metrics = {
            "wall_s": {"value": sum(scaled_median(name, v) for name, v in samples.items()), "unit": "s"},
            "setup_s": {"value": scaled_median("cold_start", cold), "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_kb / 1024, "unit": "MB"},
        }
        samples = {"cold_start": cold, "reference": yardstick, **samples}
    else:
        plain = {op.name: [] for op in ops}
        traced = {op.name: [] for op in ops}
        stats = {op.name: [] for op in ops}

        def pair(op):
            plain[op.name].append(runner.invoke(op)[0])
            elapsed, op_stats = runner.invoke(op, traced=True)
            traced[op.name].append(elapsed)
            if op_stats is not None:
                stats[op.name].append(op_stats)
            return plain[op.name][-1] + elapsed

        measure(ops, args.seconds, pair)
        if all(stats.values()):
            values = tracer.layer_metrics([tracer.median_stats(v) for v in stats.values()])
        else:
            runner.failed += 1
            print("FAIL: a traced run wrote no stats", file=sys.stderr)
            values = {}
        values["trace.overhead_s"] = sum(statistics.median(traced[k]) - statistics.median(plain[k]) for k in plain)
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
        samples = {**plain, **{f"{k} traced": v for k, v in traced.items()}}

    for name, times in samples.items():
        print(f"{name:32s} n={len(times):2d} median={statistics.median(times):.3f} s", file=sys.stderr)
    print("samples " + json.dumps(samples), file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ratio") or name.endswith("_per_node"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zeroleak" / "cli.py").is_file():
        print(f"no zeroleak sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_run" / str(os.getpid())
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
