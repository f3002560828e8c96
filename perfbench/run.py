"""Benchmark runner for the blindgame CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-deep --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: the ops of the workload's ladder run
one after another, in-process, through ``blindgame.cli.main([...])``, and
every op's outputs are checked.  Whole passes over the ladder repeat until
the next one would overrun ``--seconds``.

Times are reported in reference seconds: each measured time is scaled by
``CAL_REF_S / calibrate()``, with the calibration slice timed right next
to it.  The raw times are printed on the lines before the JSON result.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``wall_s``,
``solved_frac``, ``peak_rss_mb``).  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics of ``tracing.LAYER_METRICS``
plus the tracing overhead; the spans of every traced pass are written to
``.bench_work/trace-<workload>-seed<seed>.csv`` when the run ends.

``wall_s`` is the sum over ops of each op's median time across passes;
``trace.wall_s`` and ``trace.untraced_wall_s`` are the same for the traced
and untraced passes of a traced run, while per-layer self times are raw;
``setup_s`` is the import time plus the median of five rounds of input
generation and warm-up; ``solved_frac`` counts ops whose outputs passed
their check; ``peak_rss_mb`` is the process's peak resident memory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS / OpenMP pools to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys

from fractions import Fraction

import numpy as np

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
# Seconds one calibration slice takes on the reference host (2.1 GHz Xeon
# vCPU, unloaded); the unit in which ``wall_s`` and ``setup_s`` are given.
CAL_REF_S = 4.0e-3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import blindgame from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import blindgame.cli

    origin = os.path.abspath(blindgame.cli.__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"blindgame imported from {origin}, not from {SRC}")
    return blindgame.cli


def run_op(op, main) -> tuple[float, str]:
    """Run one op through ``main``; return (seconds, check outcome)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any crash is a failed op, not a dead run
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.check(rc, out.getvalue(), err.getvalue())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return elapsed, f"unreadable output: {type(exc).__name__}: {exc}"


def calibrate() -> float:
    """Time a fixed slice of benchmark-owned work like the program's hot
    code: RK4 steps on small numpy arrays, dict updates and Fraction sums.

    The shared host's speed drifts by tens of percent over minutes, in CPU
    time as well, and moves this slice and the program together.  Timings
    are scaled by ``CAL_REF_S / calibrate()`` measured next to them.  The
    collector is off so the program's heap cannot slow the slice down.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            x, u, seen = np.zeros(2), np.array([1.0, -0.5]), {}
            for i in range(400):
                k1 = np.asarray(u - 0.5 * x, dtype=float)
                k2 = np.asarray(u - 0.5 * (x + 0.05 * k1), dtype=float)
                x = x + (0.1 / 6.0) * (k1 + 2.0 * k2)
                seen[(i % 64, i % 7)] = float(x[0])
            total = Fraction(0)
            for i in range(300):
                total += Fraction(i % 13, 97 + i % 5)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def run_pass(ops, main):
    """Every op once, in ladder order, with a calibration slice between
    ops.  Returns (raw seconds, reference seconds, outcome) per op."""
    results = []
    before = calibrate()
    for op in ops:
        seconds, outcome = run_op(op, main)
        after = calibrate()
        results.append((seconds, seconds * 2.0 * CAL_REF_S / (before + after),
                        (op.name, outcome)))
        before = after
    return results


def ladder_time(passes, column: int = 1) -> float:
    """Sum over ops of each op's median time across passes.

    ``column`` 1 is reference seconds, 0 raw seconds.  Host slowdowns come
    in phases, so each op's median also rejects the passes that hit one.
    """
    return sum(statistics.median(r[column] for r in op_runs)
               for op_runs in zip(*passes))


def setup(args, work: str, reference: dict, main):
    """Generate the inputs and run the warm-up ops; return the ladder."""
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.build(
        args.workload, args.seed, os.path.join(work, "inputs"), reference)
    for op in workloads.warmup_ops(args.seed, os.path.join(work, "warmup")):
        _, outcome = run_op(op, main)
        if outcome != workloads.OK:
            raise RuntimeError(f"warm-up op {op.name} failed: {outcome}")
    return ops


class Tally:
    """Op outcomes over every pass of the run."""

    def __init__(self):
        self.attempted = self.solved = self.failed = 0
        self.failures: list[str] = []

    def add(self, results) -> None:
        for _, _, (name, outcome) in results:
            self.attempted += 1
            if outcome == workloads.OK:
                self.solved += 1
            elif outcome != workloads.KNOWN_DEFECT:
                self.failed += 1
                self.failures.append(f"{name}: {outcome}")


def host_line() -> str:
    pins = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"host nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} {pins}")


def measure(args, ops, main, tally: Tally):
    """Untraced passes until the next one would overrun ``--seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, main))
        tally.add(passes[-1])
        if time.perf_counter() - start + ladder_time(passes, 0) > args.seconds:
            return passes


def measure_traced(args, ops, main, tally: Tally):
    """Alternate untraced and traced passes; return per-layer metrics."""
    import tracing

    untraced, traced, spans = [], [], []
    counts_seen, times_seen = None, []
    consistent = True
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(ops, main))
        tally.add(untraced[-1])

        tr = tracing.Tracer()
        with tracing.installed(tr):
            traced.append(run_pass(ops, tr.wrap("cli.main", main)))
        tally.add(traced[-1])
        spans.append(tr.spans)
        counts, times = tracing.pass_metrics(tr)
        if counts_seen is None:
            counts_seen = counts
        elif counts != counts_seen:
            consistent = False
            diff = {k: (counts_seen[k], counts[k]) for k in counts
                    if counts[k] != counts_seen[k]}
            print(f"counts differ between traced passes: {diff}", file=sys.stderr)
        times_seen.append(times)
        pair = sum(r[0] for r in untraced[-1] + traced[-1])
        if time.perf_counter() - start + pair > args.seconds:
            break

    metrics = {}
    for name, unit, _, _ in tracing.LAYER_METRICS:
        if name in counts_seen:
            value = counts_seen[name]
        else:
            value = statistics.median(t[name] for t in times_seen)
        metrics[name] = {"value": value, "unit": unit}
    wall_t, wall_u = ladder_time(traced), ladder_time(untraced)
    metrics["trace.wall_s"] = {"value": wall_t, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": wall_u, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": wall_t / wall_u - 1.0, "unit": "frac"}
    metrics["trace.spans"] = {"value": len(spans[0]), "unit": "count"}
    return metrics, spans, consistent


def write_spans(path: str, spans_per_pass) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,id,name,start,end,parent\n")
        for k, spans in enumerate(spans_per_pass):
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{k},{i},{name},{start!r},{end!r},{parent}\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        cli = _import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    speed = [calibrate()]

    reference = workloads.load_reference()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    tally, consistent = Tally(), True
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops = setup(args, work, reference, cli.main)
            setup_times.append(time.perf_counter() - start)
            speed.append(calibrate())
        # Imports are scaled by the first slice, each round by the mean of
        # the slices around it.
        import_ref = import_s * CAL_REF_S / speed[0]
        setup_ref = [t * 2.0 * CAL_REF_S / (a + b)
                     for t, a, b in zip(setup_times, speed, speed[1:])]
        workloads.arm_transport_checks(ops)

        if args.trace:
            metrics, spans, consistent = measure_traced(args, ops, cli.main, tally)
            write_spans(os.path.join(
                WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.csv"), spans)
        else:
            passes = measure(args, ops, cli.main, tally)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": {"value": import_ref + statistics.median(setup_ref),
                            "unit": "s"},
                "wall_s": {"value": ladder_time(passes), "unit": "s"},
                "solved_frac": {"value": tally.solved / tally.attempted,
                                "unit": "frac"},
                "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            }
            raw = ladder_time(passes, 0)
            print(f"passes {len(passes)}, raw seconds: "
                  + " ".join(f"{sum(r[0] for r in p):.4f}" for p in passes))
            print(f"raw wall {raw:.4f} s, raw setup "
                  f"{import_s + statistics.median(setup_times):.4f} s, "
                  f"reference-to-raw ratio {ladder_time(passes) / raw:.3f}")
            print("op medians (reference s): " + " ".join(
                f"{op.name}={statistics.median(r[1] for r in runs):.4f}"
                for op, runs in zip(ops, zip(*passes))))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in tally.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(host_line())
    print(json.dumps({
        "correct": tally.failed == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
