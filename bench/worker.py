"""Run one workload in this process and print its raw result as JSON.

Started by run.py with the checkout's src/ on PYTHONPATH:

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --launch <time.monotonic() just before this process was started>

Set-up (imports, inputs, one untimed warm-up job that pays lazy costs such as
the scipy.signal import and the bump quadrature cache) ends where the first
timed job starts. Jobs then run one after another (closed loop, one client)
until --seconds have passed. In an untraced run the calibration kernel of
host.py is timed before the first job and after every job, and each job's
stolen share of CPU time is read. With --trace 1 every odd job runs with the
layer wrappers installed and the even jobs run without them, so the two
latency medians give the tracing overhead from interleaved jobs. --setup-only
stops after the warm-up and reports the set-up time alone.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from host import calibrate, cpu_ticks, stolen_share
from spans import Tracer, self_times

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Per-layer metrics of a traced run and their units. Every one is reported on
# every workload; a layer the workload never calls reads 0.
LAYER_UNITS = {
    "spectral.besov_norm_batch.busy_s": "s",
    "spectral.besov_norm_batch.rows": "count",
    "spectral.hamiltonian.busy_s": "s",
    "spectral.hamiltonian.calls": "count",
    "noise.sample_batch.busy_s": "s",
    "noise.sample_batch.rows": "count",
    "noise.sample_batch.us_per_row": "us",
    "noise.tail_sweep.self_s": "s",
    "flow.evolve_batch.busy_s": "s",
    "flow.evolve_batch.member_steps": "count",
    "flow.evolve_batch.us_per_member_step": "us",
    "flow.evolve_batch.parallel_eff": "ratio",
    "flow.evolve.busy_s": "s",
    "flow.evolve.steps": "count",
    "flow.evolve.us_per_step": "us",
    "flow.liouville_logdet.busy_s": "s",
    "flow.conservation_report.busy_s": "s",
    "flow.blowups": "count",
    "invariance.generate.busy_s": "s",
    "invariance.generate_control.busy_s": "s",
    "invariance.invariance_report.busy_s": "s",
    "invariance.push_forward.self_s": "s",
    "invariance.ks_two_sample.calls": "count",
    "snapshots.save_ensemble.busy_s": "s",
    "snapshots.save_ensemble.bytes": "B",
    "snapshots.load_ensemble.busy_s": "s",
    "snapshots.load_ensemble.bytes": "B",
    "estimates.bilinear_ratio_sweep.busy_s": "s",
    "estimates.bilinear_ratio_sweep.trials": "count",
    "estimates.bilinear_ratio_sweep.ms_per_trial.N8": "ms",
    "estimates.bilinear_ratio_sweep.ms_per_trial.N16": "ms",
    "estimates.bilinear_ratio_sweep.ms_per_trial.N32": "ms",
    "estimates.bilinear_ratio_sweep.ms_per_trial.N64": "ms",
    "estimates.resonance_weight.busy_s": "s",
    "estimates.resonance_weight.points": "count",
    "estimates.time_localization_check.busy_s": "s",
    "estimates.bump_transform.busy_s": "s",
    "estimates.bump_transform.points": "count",
    "trace.overhead_frac": "ratio",
}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def job_layer_metrics(spans, selfs):
    """Per-layer numbers of one traced job from its spans and self times."""
    busy, self_s, calls, counts = {}, {}, {}, {}
    sweep_busy, sweep_trials = {}, {}
    for s, own in zip(spans, selfs):
        name = s["name"]
        busy[name] = busy.get(name, 0.0) + s["end"] - s["start"]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, v in s["counts"].items():
            counts[(name, key)] = counts.get((name, key), 0) + v
        if name == "estimates.bilinear_ratio_sweep":
            N = s["counts"]["N"]
            sweep_busy[N] = sweep_busy.get(N, 0.0) + s["end"] - s["start"]
            sweep_trials[N] = sweep_trials.get(N, 0) + s["counts"]["trials"]

    def b(name):
        return busy.get(name, 0.0)

    def c(name, key):
        return counts.get((name, key), 0)

    m = {}
    for name in ("spectral.besov_norm_batch", "noise.sample_batch"):
        m[f"{name}.busy_s"] = b(name)
        m[f"{name}.rows"] = c(name, "rows")
    m["noise.sample_batch.us_per_row"] = _ratio(b("noise.sample_batch"), c("noise.sample_batch", "rows"), 1e6)
    m["spectral.hamiltonian.busy_s"] = b("spectral.hamiltonian")
    m["spectral.hamiltonian.calls"] = calls.get("spectral.hamiltonian", 0)
    m["noise.tail_sweep.self_s"] = self_s.get("noise.tail_sweep", 0.0)
    m["flow.evolve_batch.busy_s"] = b("flow.evolve_batch")
    m["flow.evolve_batch.member_steps"] = c("flow.evolve_batch", "member_steps")
    m["flow.evolve_batch.us_per_member_step"] = _ratio(
        b("flow.evolve_batch"), c("flow.evolve_batch", "member_steps"), 1e6
    )
    m["flow.evolve.busy_s"] = b("flow.evolve")
    m["flow.evolve.steps"] = c("flow.evolve", "steps")
    m["flow.evolve.us_per_step"] = _ratio(b("flow.evolve"), c("flow.evolve", "steps"), 1e6)
    m["flow.liouville_logdet.busy_s"] = b("flow.liouville_logdet")
    m["flow.conservation_report.busy_s"] = b("flow.conservation_report")
    m["flow.blowups"] = sum(
        c(name, "raised") for name in ("flow.evolve", "flow.evolve_batch", "flow.liouville_logdet")
    )
    for name in ("generate", "generate_control", "invariance_report"):
        m[f"invariance.{name}.busy_s"] = b(f"invariance.{name}")
    m["invariance.push_forward.self_s"] = self_s.get("invariance.push_forward", 0.0)
    m["invariance.ks_two_sample.calls"] = calls.get("invariance.ks_two_sample", 0)
    for name in ("save_ensemble", "load_ensemble"):
        m[f"snapshots.{name}.busy_s"] = b(f"snapshots.{name}")
        m[f"snapshots.{name}.bytes"] = c(f"snapshots.{name}", "bytes")
    sweep = "estimates.bilinear_ratio_sweep"
    m[f"{sweep}.busy_s"] = b(sweep)
    m[f"{sweep}.trials"] = c(sweep, "trials")
    for N in (8, 16, 32, 64):
        m[f"{sweep}.ms_per_trial.N{N}"] = _ratio(sweep_busy.get(N, 0.0), sweep_trials.get(N, 0), 1e3)
    m["estimates.resonance_weight.busy_s"] = b("estimates.resonance_weight")
    m["estimates.resonance_weight.points"] = c("estimates.resonance_weight", "points")
    m["estimates.time_localization_check.busy_s"] = b("estimates.time_localization_check")
    m["estimates.bump_transform.busy_s"] = b("estimates.bump_transform")
    m["estimates.bump_transform.points"] = c("estimates.bump_transform", "points")
    return m


def _import_program():
    sys.path.insert(0, SRC)
    import kdvnoise

    if os.path.dirname(os.path.abspath(kdvnoise.__file__)) != os.path.join(SRC, "kdvnoise"):
        raise SystemExit(f"kdvnoise was imported from {kdvnoise.__file__}, not from {SRC}")


def run_job(wl, seed, index):
    """(work done, failed check names) for one job; an exception is a failure."""
    try:
        work, failed = wl.job(seed + index, index)
    except Exception as exc:  # a raising job is a failed job, and the loop goes on
        return 0, [f"raised {type(exc).__name__}: {exc}"]
    return (0 if failed else work), failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    ticks_start = cpu_ticks()

    _import_program()
    import numpy as np
    import scipy

    from workloads import WORKLOADS, trace_points

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = WORKLOADS[args.workload](OUT_DIR)
    _, warm_failed = run_job(wl, args.seed, 0)
    wl.start_timing()
    t_first = time.monotonic()
    setup_s = t_first - args.launch
    setup_steal = stolen_share(ticks_start, cpu_ticks())
    # the kernel between jobs (and after set-up) gives the host's speed; the
    # traced run does without, as its per-layer times are not normalized
    calibrating = not args.trace
    kernel_s = [calibrate()] if calibrating else []
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_steal": setup_steal,
                          "setup_kernel_s": kernel_s[0], "failed": warm_failed}))
        return 0

    tracer = Tracer()
    points = trace_points() if args.trace else []
    latencies = {False: [], True: []}
    steal_shares = []
    failures = {}
    work = 0
    index = 0
    deadline = t_first + args.seconds
    while True:
        traced = bool(args.trace) and index % 2 == 1
        ticks0 = cpu_ticks()
        t0 = time.perf_counter()
        if traced:
            tracer.job = index
            with tracer.installed(points), tracer.span("job"):
                done, failed = run_job(wl, args.seed, index)
        else:
            done, failed = run_job(wl, args.seed, index)
        latencies[traced].append(time.perf_counter() - t0)
        if not traced:
            steal_shares.append(stolen_share(ticks0, cpu_ticks()))
        if calibrating:
            kernel_s.append(calibrate())
        work += done
        if failed:
            failures[index] = failed
        index += 1
        # a traced run goes on until it has one traced and one untraced job
        if time.monotonic() >= deadline and (not args.trace or index >= 2):
            break
    final_failed = wl.finish()

    result = {
        "workload": args.workload,
        "unit_of_work": wl.unit,
        "setup_s": setup_s,
        "setup_steal": setup_steal,
        "setup_kernel_s": kernel_s[0] if kernel_s else None,
        "kernel_s": kernel_s,
        "jobs": index,
        "work": work,
        "latencies": latencies[False],
        "steal_shares": steal_shares,
        "failures": {str(k): v for k, v in failures.items()},
        "warmup_failed": warm_failed,
        "final_failed": final_failed,
        "run_checks": wl.RUN_CHECKS,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        result["layers"] = traced_layers(wl, tracer, latencies, args)
    print(json.dumps(result))
    return 0


def traced_layers(wl, tracer, latencies, args):
    """Per-layer metrics over the traced jobs; writes the spans out."""
    spans = tracer.spans
    selfs = self_times(spans)
    per_job = {}
    for s, own in zip(spans, selfs):
        js, jself = per_job.setdefault(s["job"], ([], []))
        js.append(s)
        jself.append(own)
    rows = []
    nesting_ok = True
    for js, jself in per_job.values():
        # the job span opens first; the self times below it cannot exceed it
        root, children = js[0], js[1:]
        nesting_ok &= root["parent"] is None and all(s["parent"] is not None for s in children)
        nesting_ok &= sum(jself[1:]) <= root["end"] - root["start"]
        rows.append(job_layer_metrics(children, jself[1:]))
    # times are medians over traced jobs; counts are those of the first traced
    # job (job 1), so they repeat exactly for a given seed
    layers = {
        k: rows[0][k] if LAYER_UNITS[k] in ("count", "B") else statistics.median(r[k] for r in rows)
        for k in rows[0]
    }
    untraced, traced = latencies[False], latencies[True]
    layers["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0 if traced and untraced else 0.0
    )
    layers["flow.evolve_batch.parallel_eff"] = (
        wl.parallel_efficiency(args.seed) if hasattr(wl, "parallel_efficiency") else 0.0
    )
    metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": spans,
                   "self_s": selfs, "per_job": rows}, fh)
    return {"metrics": metrics, "nesting_ok": bool(nesting_ok), "traced_jobs": len(rows)}


if __name__ == "__main__":
    sys.exit(main())
