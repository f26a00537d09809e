"""kdvnoise benchmark: one workload per invocation, run from the checkout root.

    python3 bench/run.py --workload {ensemble,trajectory,tails,estimates} \
        --seed N --seconds S --trace 0|1

The workload runs in a fresh worker process of its own (bench/worker.py), so
its set-up time and peak memory belong to it alone. With --trace 0 the last
line of standard output is the end-to-end result; set-up is measured in
SETUP_REPEATS further set-up-only processes as well and reported as the
median. Its times are normalized for hypervisor steal and for the host's
speed (host.py; bench/README.md has the definitions and measurements). With
--trace 1 the result holds the per-layer metrics of a traced run instead. The lines before it give the host record and a summary (job count,
which percentile job_tail_s is). Without the program's sources under src/
the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from host import REFERENCE_KERNEL_S, cpu_ticks

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ensemble", "trajectory", "tails", "estimates")
SETUP_REPEATS = 2
DEADLINE_S = 170.0
# Thread caps for the worker: the host has 2 cores, and only the ensemble
# workload's own 2 flow workers may use the second one.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TAIL_BEYOND = 10


class BenchError(Exception):
    """A worker failed to produce a result; the run prints none."""


def _spawn(argv, env, deadline, extra=()):
    launch = time.monotonic()
    timeout = deadline - launch
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv, "--launch", repr(launch), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {proc.stdout[-2000:]!r}") from exc


def tail_latency(latencies):
    """(latency, percentile) at the highest percentile with TAIL_BEYOND jobs
    above it; the median when that percentile would be below 50."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(xs), 50.0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kdvnoise", "__init__.py")):
        print(f"benchmark: no program sources at {os.path.join(root, 'src', 'kdvnoise')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    ticks_start = cpu_ticks()
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(_spawn(argv, env, deadline, ["--setup-only"]))
        res = _spawn(argv, env, deadline)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    load_end = os.getloadavg()
    busy, steal, total = (b - a for a, b in zip(ticks_start, cpu_ticks()))

    # every checked job counts, warm-ups included, and so does each run-level check
    attempted = res["jobs"] + 1 + len(setups) + res["run_checks"]
    failed = len(res["failures"]) + bool(res["warmup_failed"]) + len(res["final_failed"])
    failed += sum(bool(s["failed"]) for s in setups)
    host = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **res["versions"],
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        # shares of all CPU time during the run: busy in this VM, and taken
        # by the hypervisor for other guests (steal)
        "cpu_busy_frac": busy / total if total else 0.0,
        "cpu_steal_frac": steal / total if total else 0.0,
        "thread_caps": THREAD_CAPS,
    }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": res["jobs"],
        "failures": res["failures"],
        "warmup_failed": res["warmup_failed"],
        "final_failed": res["final_failed"],
    }
    correct = failed == 0
    if args.trace:
        layers = res["layers"]
        correct = correct and layers["nesting_ok"]
        summary["traced_jobs"] = layers["traced_jobs"]
        summary["nesting_ok"] = layers["nesting_ok"]
        metrics = layers["metrics"]
    else:
        lat = res["latencies"]
        samples = [res, *setups]
        raw = {
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "job_p50_s": statistics.median(lat),
            "job_tail_s": tail_latency(lat)[0],
            "throughput": res["work"] / sum(lat),
        }
        # Normalized times (see host.py): a time measured in a window is
        # scaled by the share of it not stolen, and by the host's speed then
        # against the reference, from the kernel timed just before and after.
        k = res["kernel_s"]
        scaled = [
            t * (1.0 - s) * REFERENCE_KERNEL_S / ((k0 + k1) / 2.0)
            for t, s, k0, k1 in zip(lat, res["steal_shares"], k, k[1:])
        ]
        tail, pct = tail_latency(scaled)
        setup_s = statistics.median(
            s["setup_s"] * (1.0 - s["setup_steal"]) * REFERENCE_KERNEL_S / s["setup_kernel_s"]
            for s in samples
        )
        summary.update({
            "timed_jobs": len(lat),
            "job_tail_percentile": pct,
            "throughput_unit": f"{res['unit_of_work']}/s",
            "median_job_steal_share": statistics.median(res["steal_shares"]),
            "median_host_speed": REFERENCE_KERNEL_S / statistics.median(k),
            "setup_s_samples": [s["setup_s"] for s in samples],
            "unscaled": raw,
        })
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "job_tail_s": {"value": tail, "unit": "s"},
            "throughput": {"value": res["work"] / sum(scaled), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"host": host}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
