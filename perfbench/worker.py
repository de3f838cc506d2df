"""One benchmark run process: set up, warm up, then time operations.

Started by run.py; not meant to be run by hand.  Set-up is everything before
the first timed operation: interpreter start, ``import graphent`` from the
checkout's ``src/`` by absolute path, input generation (with the checks'
expected values) and one untimed, checked warm-up operation.  Then a single
closed-loop client times one operation after another until its time budget
is spent, timing the reference loop of calibrate.py before the first
operation and after each one.  With --trace 1 the same operations run a
second time with the span wrappers of spans.py installed.

Prints one JSON line with the raw samples; run.py aggregates them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import calibrate
import spans
import workloads


def load_program(root: str):
    """Import graphent from root/src and the figure script, by absolute path."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import graphent
    import graphent.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(graphent.__file__))) != src:
        raise ImportError(f"graphent was imported from {graphent.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location(
        "make_figure_data", os.path.join(root, workloads.FIGURE_SCRIPT)
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return graphent, script


def timed_loop(runner, pool, budget, tracer=None):
    """Run pool ops in order (cycling) until budget seconds of wall time pass.
    Returns raw latencies, CPU times, the reference times around the ops and
    the number of failed ops."""
    latencies, cpu, failed = [], [], 0
    refs = [calibrate.reference()]
    start = time.perf_counter()
    j = 0
    while j == 0 or time.perf_counter() - start < budget:
        op = pool[j % len(pool)]
        runner.reset(op)
        c0, t0 = time.process_time(), time.perf_counter()
        if tracer is None:
            code, out = runner.execute(op)
        else:
            code, out = tracer.run_op(j, lambda: runner.execute(op))
        t1, c1 = time.perf_counter(), time.process_time()
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
        failed += not runner.check(op, code, out)
        refs.append(calibrate.reference())
        j += 1
    return latencies, cpu, refs, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    graphent, script = load_program(args.root)
    import numpy

    workroot = os.path.join(args.root, "perfbench", "_work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workroot)
    try:
        closed_general = graphent.entanglement.ed_closed_general
        indices = [args.worker + args.workers * j for j in range(workloads.POOL)]
        pool = [
            workloads.prepare(args.workload, args.seed, i, workdir, closed_general) for i in indices
        ]
        warm = workloads.prepare(
            args.workload, args.seed, workloads.WARMUP_INDEX + args.worker, workdir, closed_general
        )
        runner = workloads.Runner(args.workload, graphent.cli, script)
        runner.reset(warm)
        warm_ok = runner.check(warm, *runner.execute(warm))

        first_op = time.monotonic()
        budget = args.seconds / 2 if args.trace else args.seconds
        latencies, cpu, refs, failed = timed_loop(runner, pool, budget)
        result = {
            "first_op": first_op,
            "warm_ok": warm_ok,
            "latencies": latencies,
            "cpu": cpu,
            "refs": refs,
            "failed": failed,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "numpy": numpy.__version__,
            "digest": runner.digest,
            "inputs": workloads.describe(args.workload, pool),
        }
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(graphent, script)
            traced, _, _, traced_failed = timed_loop(runner, pool, budget, tracer)
            metrics = tracer.metrics()
            metrics["trace.untraced_op_s"] = statistics.median(latencies)
            metrics["trace.traced_op_s"] = statistics.median(traced)
            metrics["trace.overhead_s"] = metrics["trace.traced_op_s"] - metrics["trace.untraced_op_s"]
            result["trace"] = {
                "ops": len(traced),
                "failed": traced_failed,
                "metrics": metrics,
                "unwrapped": tracer.missing,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
