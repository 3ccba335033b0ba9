#!/usr/bin/env python3
"""quadguess benchmark: guess, extend and check on four fixed workloads.

Run from the repository root, against the package source in ./src:

    python3 perfbench/run.py --workload guess-oracle-long --seed 1 \\
        --seconds 20 --trace 0

One process, no threads.  Set-up (a fresh import of quadguess plus all
input generation) is repeated SETUP_REPEATS times and its median is
reported as setup_s.  One untimed warm-up operation follows.  Then whole
passes over the workload's operations are timed until --seconds of timed
work is done; every output is verified outside the timed region, and a
wrong output or an exception counts as a failed operation.

Times are in reference seconds (see calibration.py): each interval is
scaled by the machine speed measured just before and after it.  The raw
seconds are printed too (setup_raw_s, wall_raw_s).

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced and half with spans.Tracer installed, and reports the per-layer
metrics, including the tracing overhead (traced over untraced wall_s).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full report of the run is
also written to .perfbench_out/report-<workload>-trace<0|1>.json, and a
traced run writes its spans next to it.

--workload all runs every workload in both modes, each in its own process,
and with --baseline PATH writes the collected reports, the environment and
the layer -> end-to-end metric -> workload map to PATH.
"""

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import spans
from calibration import SpeedClock
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# A fixed count, not a time budget: each repetition leaves garbage behind,
# and peak_rss_mb should not depend on how fast the machine was.
SETUP_REPEATS = 5
# Traced passes store every span in memory; a short-input workload would
# otherwise run tens of passes.
MAX_TRACED_PASSES = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def import_fresh():
    """Import quadguess from scratch, so each set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == "quadguess" or n.startswith("quadguess.")]:
        del sys.modules[name]
    qg = importlib.import_module("quadguess")
    importlib.import_module("quadguess.cli")
    return qg


def set_up(workload, seed, workdir):
    """Returns the package, the operations, and the median set-up time in
    reference seconds and in raw seconds."""
    clock = SpeedClock()
    clock.probe()
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        qg = import_fresh()
        ops = workload.build(qg, random.Random(seed), workdir)
        elapsed = perf_counter() - start
        clock.probe()
        raw.append(elapsed)
        ref.append(elapsed * clock.factor(start))
    return qg, ops, statistics.median(ref), statistics.median(raw)


class Measurement:
    """Timings, verdicts and tallies of the operations run so far."""

    def __init__(self, ops):
        self.ops = ops
        self.clock = SpeedClock()
        self.attempted = 0
        self.failures = []            # (label, reason)
        self._verdicts = {}
        self._next_op = 1

    def run_op(self, index, op, tracer=None):
        """Runs, times and verifies one operation.  Returns its record
        (start, raw seconds, tally)."""
        self.clock.probe_if_due()
        args = op.prepare()
        if tracer is not None:
            tracer.begin_op(self._next_op)
            tracer.active = True
        self._next_op += 1
        start = perf_counter()
        try:
            out = op.run(args)
        except Exception as exc:  # a raising call is a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.end_op()
        self.attempted += 1
        tally = None
        if error is None:
            reason = self._verdict(index, op, args, out)
            if reason is None and op.tally is not None:
                tally = op.tally(out)
        else:
            reason = error
        if reason is not None:
            self.failures.append((op.label, reason))
        return start, elapsed, tally

    def _verdict(self, index, op, args, out):
        if op.verdict_key is None:
            return op.verify(args, out)
        key = (index, op.verdict_key(out))
        if key not in self._verdicts:
            self._verdicts[key] = op.verify(args, out)
        return self._verdicts[key]

    def run_passes(self, budget, tracer=None, max_passes=None):
        """Timed passes until `budget` raw seconds of timed work (at least
        one).  Returns each pass's operation records and, when traced, each
        pass's raw layer metrics and self-time shares."""
        passes, layers = [], []
        while True:
            if tracer is not None:
                tracer.begin_pass()
            records = [self.run_op(index, op, tracer)
                       for index, op in enumerate(self.ops)]
            passes.append(records)
            if tracer is not None:
                layers.append(tracer.pass_metrics(
                    sum(elapsed for _, elapsed, _ in records)))
            if max_passes is not None and len(passes) >= max_passes:
                break
            spent = sum(elapsed for records in passes
                        for _, elapsed, _ in records)
            if spent + spent / len(passes) > budget:
                break
        self.clock.probe()        # closes the last operation's interval
        return passes, layers

    def reference_times(self, passes):
        """Each pass's operation times in reference seconds."""
        return [[elapsed * self.clock.factor(start)
                 for start, elapsed, _ in records] for records in passes]

    def tallies(self, passes):
        """Summed tallies; seconds ("_s" keys) in reference seconds."""
        total = Counter()
        for records in passes:
            for start, _, tally in records:
                for key, value in (tally or {}).items():
                    if key.endswith("_s"):
                        value *= self.clock.factor(start)
                    total[key] += value
        return total


def pass_seconds(times):
    """Time of one pass: the sum over its operations of each operation's
    median time across passes.  Per-operation medians drop the operations
    that a burst of load happened to hit, which a median of whole-pass sums
    over a few passes does not."""
    return sum(statistics.median(column) for column in zip(*times))


def tail_percentile(samples):
    """(percentile, value) for the highest of 99.9/99/95/90 with at least
    ten samples beyond it, or None."""
    ordered = sorted(samples)
    for pct in (99.9, 99, 95, 90):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, ordered[math.ceil(len(ordered) * pct / 100) - 1]
    return None


def environment(qg, seed):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed,
            "kernel_backend": getattr(qg, "KERNEL_BACKEND", None)}


def measure_end_to_end(workload, ops, seconds, setup):
    meas = Measurement(ops)
    passes, _ = meas.run_passes(seconds)
    times = meas.reference_times(passes)
    op_times = [t for row in times for t in row]
    metrics = {
        "setup_s": setup[0],
        "wall_s": pass_seconds(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    raw = [[elapsed for _, elapsed, _ in records] for records in passes]
    extras = {"setup_raw_s": (setup[1], "s"),
              "wall_raw_s": (pass_seconds(raw), "s"),
              "machine_speed": (meas.clock.speed(), "ratio"),
              "passes": (len(passes), "count"),
              "fail_ratio": (len(meas.failures) / meas.attempted, "ratio")}
    if workload.guesses:
        extras["guess_s"] = (statistics.median(op_times), "s")
        extras["guess_samples"] = (len(op_times), "count")
        tail = tail_percentile(op_times)
        if tail is not None:
            extras["guess_s_tail"] = (tail[1], "s")
            extras["guess_s_tail_percentile"] = (tail[0], "%")
    t = meas.tallies(passes)
    if t["extend_s"]:
        extras["extend_terms_per_s"] = (t["extend_terms"] / t["extend_s"],
                                        "1/s")
    if t["check_s"]:
        extras["check_rows_per_s"] = (t["check_rows"] / t["check_s"], "1/s")
    return meas, metrics, extras


def measure_layers(ops, seconds):
    meas = Measurement(ops)
    untraced, _ = meas.run_passes(seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, per_pass = meas.run_passes(seconds / 2, tracer,
                                           MAX_TRACED_PASSES)
    finally:
        tracer.uninstall()
    traced_times = meas.reference_times(traced)
    metrics = {}
    for name, spec in spans.LAYER_METRICS.items():
        if name == "trace.overhead_ratio":
            continue
        values = [layers[name] for layers, _ in per_pass]
        if name in spans.COUNT_METRICS:
            if len(set(values)) > 1:
                print(f"warning: {name} differs between passes: {values}",
                      file=sys.stderr)
            metrics[name] = values[0]
            continue
        if spec[0] == "s":       # raw layer seconds -> reference seconds
            values = [value * sum(ref) / sum(e for _, e, _ in records)
                      for value, ref, records
                      in zip(values, traced_times, traced)]
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = (
        pass_seconds(traced_times)
        / pass_seconds(meas.reference_times(untraced)))
    shares = {name: statistics.median(s.get(name, 0.0) for _, s in per_pass)
              for name in per_pass[0][1]}
    return meas, metrics, shares, tracer


def run_one(args):
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        qg, ops, *setup = set_up(workload, args.seed, workdir)
        Measurement(ops).run_op(0, ops[0])           # untimed warm-up
        report = {"workload": workload.name, "why": workload.why,
                  "trace": args.trace,
                  "environment": environment(qg, args.seed),
                  "operations": [op.label for op in ops]}
        if args.trace:
            meas, metrics, shares, tracer = measure_layers(ops, args.seconds)
            units = {name: spec[0]
                     for name, spec in spans.LAYER_METRICS.items()}
            report.update(self_time_share=shares, absent_layers=tracer.absent)
            tracer.write_spans(OUT / f"spans-{workload.name}.csv")
        else:
            meas, metrics, extras = measure_end_to_end(
                workload, ops, args.seconds, setup)
            units = dict(END_TO_END)
            report["extras"] = {k: {"value": v, "unit": u}
                                for k, (v, u) in extras.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not meas.failures, "attempted": meas.attempted,
              "failed": len(meas.failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    report.update(result=result, failures=meas.failures[:20])
    (OUT / f"report-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    env = report["environment"]
    print(f"workload {workload.name}  seed {env['seed']}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"kernel {env['kernel_backend']}  trace {args.trace}")
    rows = dict(result["metrics"])
    rows.update(report.get("extras", {}))
    for name, item in rows.items():
        print(f"  {name:<32} {item['value']:<14.6g} {item['unit']}")
    for name in report.get("absent_layers", ()):
        print(f"  absent layer: {name} (its metrics read 0)")
    for label, reason in meas.failures[:20]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args):
    reports = {}
    for name in WORKLOADS:
        reports[name] = {"why": WORKLOADS[name].why}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, timeout=600, check=False)
            if proc.returncode != 0:
                print(f"error: {name} --trace {trace} exited "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            path = OUT / f"report-{name}-trace{trace}.json"
            reports[name][f"trace{trace}"] = json.loads(path.read_text())
    if args.baseline:
        first = reports[next(iter(WORKLOADS))]["trace0"]
        baseline = {
            "command": " ".join(["python3", "perfbench/run.py"]
                                + sys.argv[1:]),
            "environment": first["environment"],
            "layer_map": {name: {"unit": unit, "better": better, "span": span,
                                 "moves": moves, "on": where}
                          for name, (unit, better, span, moves, where)
                          in spans.LAYER_METRICS.items()},
            "workloads": {
                name: {"why": r["why"],
                       "operations": r["trace0"]["operations"],
                       "end_to_end": r["trace0"]["result"]["metrics"],
                       "extras": r["trace0"]["extras"],
                       "per_layer": r["trace1"]["result"]["metrics"],
                       "self_time_share": r["trace1"]["self_time_share"],
                       "attempted": r["trace0"]["result"]["attempted"],
                       "failed": r["trace0"]["result"]["failed"]}
                for name, r in reports.items()},
        }
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n",
                                       encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", metavar="PATH",
                        help="with --workload all: write the baseline here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "quadguess" / "__init__.py").is_file():
        print(f"error: no quadguess source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
