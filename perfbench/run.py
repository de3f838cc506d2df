#!/usr/bin/env python3
"""graphent benchmark.

    python3 perfbench/run.py --workload {oracle,verify,closed,figures}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from any directory of a checkout; graphent is imported from the
checkout's ``src/`` by absolute path, never from an installed package.

An untraced run (--trace 0) starts three run processes one after another
(worker.py).  Each sets up (interpreter start, import, inputs, one warm-up
operation) and then times operations for a third of --seconds as a single
closed-loop client.  The samples are pooled; ``setup_s`` is the median of the
three set-ups.  Every timing metric is calibrated to a fixed host speed by the
reference loop of calibrate.py; the report line gives the raw figures too.
A traced run (--trace 1) starts one run process that times the operations
untraced for half of --seconds and traced for the other half, and reports the
per-layer metrics of spans.py.

The next-to-last stdout line is a JSON report (environment, checks, tail
percentile, sample counts, inputs); the last is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 2 when the checkout holds no graphent sources, 1 when a run
process fails or overruns.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 3  # run processes per untraced run
DEADLINE_S = 170  # every run ends within 180 s
# One client, no extra threads: numpy's BLAS would otherwise start a pool.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "cpu_per_op_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    loose = _read(os.path.join(root, ".git", ref))
    if loose is not None:
        return loose
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed: int, env: dict, numpy_version: str) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")]
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(os.path.join(index, "level")), _read(os.path.join(index, "type"))
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(os.path.join(index, "size"))
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else None,
        "caches": caches,
        "threads": {v: env.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it (fewer with fewer
    than 11 samples): (value, percentile, samples beyond)."""
    ordered = sorted(samples)
    beyond = min(10, len(ordered) - 1)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def run_worker(args, k: int, workers: int, env: dict, deadline: float) -> tuple[dict, float, float]:
    """Start run process k, wait for it, and return its result, its raw set-up
    time and the reference time measured just before it started."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds / workers), "--worker", str(k),
        "--workers", str(workers), "--trace", str(args.trace),
    ]
    ref = calibrate.reference()
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"run process {k} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["first_op"] - spawn, ref


def main() -> int:
    parser = argparse.ArgumentParser(description="graphent benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    needed = [os.path.join("src", "graphent", "cli.py"), workloads.FIGURE_SCRIPT]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a graphent checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("GRAPHENT_MAX_QUBITS", None)  # the oracle runs at the default cap
    workers = 1 if args.trace else SETUPS
    deadline = time.monotonic() + DEADLINE_S
    results, setups, setup_scales = [], [], []
    try:
        for k in range(workers):
            result, setup, ref = run_worker(args, k, workers, env, deadline)
            results.append(result)
            setups.append(setup)
            # Set-up lies between the reference timed here and the worker's first one.
            setup_scales.append(calibrate.scales([ref, result["refs"][0]])[0])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(HERE, "_work"))
        except OSError:
            pass

    latencies = [x for r in results for x in r["latencies"]]
    cpu = [x for r in results for x in r["cpu"]]
    scale = [x for r in results for x in calibrate.scales(r["refs"])]
    refs = [x for r in results for x in r["refs"]]
    attempted = len(latencies)
    failed = sum(r["failed"] for r in results)
    traces = [r["trace"] for r in results if "trace" in r]
    attempted += sum(t["ops"] for t in traces)
    failed += sum(t["failed"] for t in traces)
    digests = sorted({r["digest"] for r in results if r["digest"] is not None})
    correct = failed == 0 and all(r["warm_ok"] for r in results) and len(digests) <= 1

    calibrated = [t * f for t, f in zip(latencies, scale)]
    tail_value, tail_pct, beyond = tail(calibrated)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_processes": workers,
        "environment": environment(args.seed, env, results[0]["numpy"]),
        "checks": attempted,
        "failed_frac": failed / attempted,
        "warmup_checks_ok": all(r["warm_ok"] for r in results),
        "op_tail": {"percentile": tail_pct, "samples": len(latencies), "samples_beyond": beyond},
        "setup_s_each": [s * f for s, f in zip(setups, setup_scales)],
        "calibration": {
            "reference_s": calibrate.REFERENCE_S,
            "reference_measured_s": {"min": min(refs), "median": statistics.median(refs), "max": max(refs)},
            "raw": {
                "op_p50_s": statistics.median(latencies),
                "op_tail_s": tail(latencies)[0],
                "ops_per_s": len(latencies) / sum(latencies),
                "cpu_per_op_s": sum(cpu) / len(cpu),
                "setup_s": statistics.median(setups),
            },
        },
        "figures_sha256": digests,
        "inputs": results[0]["inputs"],
    }
    if args.trace:
        metrics = traces[0]["metrics"]
        units = spans.units()
        report["unwrapped"] = traces[0]["unwrapped"]
        report["kernel_work"] = (
            "computed from array sizes, not measured; no bandwidth or roofline figure: "
            "a 22-qubit state is 64 MiB, below 4x the 300 MiB L3, and no peak-bandwidth run is made"
        )
    else:
        metrics = {
            "op_p50_s": statistics.median(calibrated),
            "op_tail_s": tail_value,
            "ops_per_s": len(calibrated) / sum(calibrated),
            "cpu_per_op_s": sum(c * f for c, f in zip(cpu, scale)) / len(cpu),
            "setup_s": statistics.median(s * f for s, f in zip(setups, setup_scales)),
            "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in results) / 1024.0,
        }
        units = END_TO_END
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
