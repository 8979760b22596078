"""zetalab benchmark: one workload per run, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload hybrid-high --seed 1 --seconds 30 --trace 0

The seed generates the workload's operation list (see workloads.py);
the run repeats that list as passes, one operation at a time, until the
next pass would end after --seconds (at least two passes, so every
operation's output is compared with a second invocation).  Every
operation's output is checked; a failed check or an exception counts
the operation as failed.

Timed figures are CPU seconds of this process (time.process_time),
with numpy's BLAS pinned to one thread (onethread.py), each operation's
divided by the median CPU time of the last few fixed numpy calibration
slices, run just before it (calibrate.py): on a shared machine the
speed a process gets drifts, and the slices drift with it.  Set-up
time is scaled the same way.  Wall-clock and raw CPU figures are
printed as well, outside the result object.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates plain
and traced passes and prints the per-layer metrics: spans recorded
around zetalab's public functions (spans.py), written to
.perfbench-out/ at the end, plus the kernel and thread probes.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict

import onethread  # noqa: F401  (before numpy)
import calibrate
import checks
import probes
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
SETUP_REPEATS = 9
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Session:
    """Runs passes and keeps the tallies: attempts, failures, drift from
    the recorded values, first output of each label."""

    def __init__(self, zl, reference: dict, workdir: str):
        self.runner = workloads.Runner(zl, workdir)
        self.reference = reference
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.drift_max = 0.0
        self.next_op = 0
        self.slices: list[float] = []
        self.last_cpu = 0.0

    def run_op(self, op: workloads.Op, done: dict, tracer=None) -> tuple[float, float, float]:
        """(wall seconds, CPU seconds, CPU time in cal) of one operation.

        The unit is the median of the last calibrate.WINDOW slices, the
        last of which run just before the operation: the machine's
        speed at that moment."""
        op_id = self.next_op
        self.next_op += 1
        self.slices += calibrate.slices_for(self.last_cpu)
        gauge = statistics.median(self.slices[-calibrate.WINDOW:])
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                outcome = self.runner.run(op, done)
            else:
                outcome = tracer.run_op(op_id, op.label, lambda: self.runner.run(op, done))
        except Exception:  # an operation that raises is a failed operation
            outcome = None
            problems = [f"{op.label}: {traceback.format_exc(limit=4)}"]
        wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        self.last_cpu = cpu
        if outcome is not None:
            done[op.label] = outcome
            problems = list(outcome.problems)
            if op.label in self.first:
                problems += checks.check_identical(
                    f"{op.label} second invocation", self.first[op.label], outcome.fingerprint
                )
            else:
                self.first[op.label] = outcome.fingerprint
            for key, value in outcome.values.items():
                reference = self.reference.get(key)
                problems += checks.check_drift(key, value, reference)
                if reference is not None:
                    self.drift_max = max(self.drift_max, checks.drift(value, reference))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return wall, cpu, cpu / gauge

    def run_pass(self, ops, tracer=None) -> list[tuple[float, float, float]]:
        """(wall seconds, CPU seconds, CPU time in cal) of each operation
        of one pass."""
        done: dict = {}
        return [self.run_op(op, done, tracer) for op in ops]


def typical_pass(passes, which: int) -> float:
    """The sum over a pass's operations of each one's median wall
    seconds (which=0), CPU seconds (1) or cal (2) over `passes`, leaving
    out the calibration slices and checks between operations: one slow
    operation moves it less than it moves the median of pass totals."""
    return sum(statistics.median(p[i][which] for p in passes) for i in range(len(passes[0])))


def measure(session: Session, ops, seconds: float, trace: bool):
    """Run passes until the next one would end after `seconds`.

    Returns (the (wall, CPU, cal) times of each pass's operations, keyed
    by traced or not, and the layer metrics and spans of each traced
    pass).
    With trace, plain and traced passes alternate.
    """
    pass_times = {False: [], True: []}
    brackets = []
    layers, recorded = [], []
    tracer = spans.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        traced = trace and len(pass_times[False]) > len(pass_times[True])
        pass_start = time.perf_counter()
        if traced:
            tracer.spans = []
            tracer.install()
            try:
                op_times = session.run_pass(ops, tracer)
                probe = workloads.Op("probe", "layer-probe", ())
                session.run_op(probe, {}, tracer)
            finally:
                tracer.uninstall()
            metrics = spans.layer_metrics(tracer.spans)
            metrics["zeta.grid_share"] = metrics["zeta.grid_s"] / sum(t[0] for t in op_times)
            layers.append(metrics)
            recorded.append(tracer.spans)
        else:
            op_times = session.run_pass(ops)
        pass_times[traced].append(op_times)
        brackets.append(time.perf_counter() - pass_start)
        if len(brackets) >= MIN_PASSES and (
                time.perf_counter() - start + statistics.median(brackets) > seconds):
            return pass_times, layers, recorded


def write_spans(path: str, recorded):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[asdict(s) for s in pass_spans] for pass_spans in recorded], fh,
                  separators=(",", ":"))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zetalab", "__init__.py")):
        sys.stderr.write("perfbench: no zetalab source at ./src; run from the repository root\n")
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["values"]

    setup_times, setup_scaled = [], []
    if not args.trace:
        setup_times, setup_scaled = probes.measure_setup(args.workload, root, SETUP_REPEATS)

    zl = workloads.load_zetalab()
    probes.warm_up(zl, args.workload)
    ops = workloads.generate(args.workload, args.seed)
    workdir = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    session = Session(zl, reference, workdir)
    try:
        pass_times, layers, recorded = measure(
            session, ops, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = len(pass_times[False]) + len(pass_times[True])
    lines = [f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
             f"passes={passes} operations per pass={len(ops)}"]
    if args.trace:
        metrics = {
            name: (statistics.median(m[name] for m in layers), unit)
            for name, unit in PER_LAYER_UNITS.items()
        }
        for name, value in probes.kernel_probe(zl).items():
            metrics[f"zeta.us_per_node.{name}"] = (value, "us")
        speedup, problems = probes.thread_probe(zl)
        session.attempted += 1
        if problems:
            session.failed += 1
            session.problems.extend(problems)
        metrics["quadrature.thread_speedup_2"] = (speedup, "ratio")
        metrics["trace.overhead_s"] = (
            typical_pass(pass_times[True], 0) - typical_pass(pass_times[False], 0), "s")
        metrics["value_drift_max"] = (session.drift_max, "ratio")
        write_spans(os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
                    recorded)
        lines.append(f"  traced passes {len(pass_times[True])}, plain passes {len(pass_times[False])}; "
                     f"spans written to {OUT_DIR}/")
    else:
        plain = pass_times[False]
        plain_ops = [t for p in plain for t in p]
        gauge = statistics.median(session.slices)
        pass_cpu = typical_pass(plain, 1)
        op_cpu = statistics.median(t[1] for t in plain_ops)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "pass_cal": (typical_pass(plain, 2), "cal"),
            "op_cal_p50": (statistics.median(t[2] for t in plain_ops), "cal"),
            "zeta_rel_err_max": (probes.zeta_rel_err_max(zl, args.workload), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        lines += [
            f"  setup_s: median of {len(setup_times)} fresh interpreters, scaled to a "
            f"{calibrate.REFERENCE_S * 1e3:g} ms slice",
            f"  cal: median CPU time of {len(session.slices)} calibration slices "
            f"= {gauge * 1e3:.4g} ms",
            f"  pass_cal: pass CPU time, each of its {len(ops)} operations' median over "
            f"{len(plain)} passes, in cal",
            f"  op_cal_p50: median operation CPU time of {len(plain_ops)} operations, in cal "
            "(no tail percentile: see perfbench/README.md)",
            "  not result metrics:",
            f"    setup wall = {statistics.median(setup_times):.6g} s (median, unscaled)",
            f"    cpu_s = {pass_cpu:.6g} s (typical pass CPU time, as pass_cal)",
            f"    op_cpu_s_p50 = {op_cpu:.6g} s (median operation CPU time)",
            f"    wall_s = {typical_pass(plain, 0):.6g} s "
            "(typical pass wall time)",
            f"    op_s_p50 = {statistics.median(t[0] for t in plain_ops):.6g} s "
            "(median operation wall time)",
        ]
    lines.append(f"  ops_failed = {session.failed / session.attempted:g} "
                 f"({session.failed} of {session.attempted} attempted)")
    lines.append(f"  value_drift_max = {session.drift_max:.3g} (relative to reference.json)")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<40} {value:.6g} {unit}")
    print("\n".join(lines))
    for problem in session.problems[:20]:
        sys.stderr.write(f"perfbench: FAILED {problem}\n")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


PER_LAYER_UNITS = {
    "zeta.grid_calls": "count",
    "zeta.grid_nodes": "count",
    "zeta.grid_s": "s",
    "zeta.grid_us_per_node": "us",
    "zeta.grid_share": "ratio",
    "zeta.scalar_calls": "count",
    "zeta.scalar_s": "s",
    "quadrature.passes_per_integral": "count",
    "quadrature.panels": "count",
    "quadrature.nodes": "count",
    "quadrature.partition_s": "s",
    "quadrature.self_s": "s",
    "moments.integrals": "count",
    "moments.self_s": "s",
    "moments.t_span_ratio": "ratio",
    "dirichlet.sieve_s": "s",
    "dirichlet.sieve_n": "count",
    "dirichlet.calls": "count",
    "dirichlet.s": "s",
    "report.regression_data_calls_per_report": "count",
    "report.s": "s",
    "cli.self_s": "s",
    "config.s": "s",
    "pairs.enumerate_s": "s",
    "pairs.closure_size": "count",
    "objectives.optimize_s": "s",
    "thresholds.calls": "count",
    "bench.self_s": "s",
    "trace.spans": "count",
}

if __name__ == "__main__":
    sys.exit(main())
