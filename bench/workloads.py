"""The four benchmark workloads, their correctness checks and trace points.

Each workload builds its inputs from a job seed (workload seed + job index)
and calls only the public functions of the kdvnoise layers, looked up on
their modules at call time so that a traced job sees the wrapped names.
A job returns the work it completed (in the workload's unit) and the names
of the checks it failed; an empty list means the outputs are correct.
"""
from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from kdvnoise import estimates, flow, invariance, noise, snapshots
from kdvnoise.estimates import WeightParams
from kdvnoise.flow import FlowConfig, IntegratorBlowupError
from kdvnoise.invariance import ObservableSpec
from kdvnoise.noise import GaussianSampleSpec
from kdvnoise.spectral import NormSpec

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Shared by the tails workload and the CLI's headline norm observable.
NORM = NormSpec(-0.49, 2.1, math.inf)

# Relative tolerance against values recorded from the program in
# reference.json; wide enough for a changed summation order, far below any
# change in what is computed.
REFERENCE_RTOL = 1e-9


def _l2_rows(coeffs):
    return 2.0 * np.sum(np.abs(coeffs) ** 2, axis=1)


def headline_observables():
    """The five observables the CLI's invariance subcommand reports."""
    return [
        ObservableSpec.mode_re(1),
        ObservableSpec.mode_im(2),
        ObservableSpec.mode_abs2(3),
        ObservableSpec.l2_mass(),
        ObservableSpec.norm(NORM),
    ]


class Workload:
    """Defaults for the hooks a workload may leave out."""

    RUN_CHECKS = 0  # how many checks finish() makes

    def start_timing(self):
        """Called once after the warm-up job, before the first timed job."""

    def finish(self):
        """Run-level checks after the last timed job; returns failed names."""
        return []


class Ensemble(Workload):
    """Batch flow of a white-noise ensemble, KS reports and snapshot I/O."""

    name = "ensemble"
    unit = "member-steps"
    N, COUNT, DT, STEPS, WORKERS, ALPHA = 16, 1024, 2.5e-4, 32, 2, 0.01
    # The largest per-member relative l2 drift measured over 40 seeds is 2e-6.
    L2_DRIFT_TOL = 1e-5

    def __init__(self, out_dir):
        self.cfg = FlowConfig(dt=self.DT, T=self.STEPS * self.DT)
        self.observables = headline_observables()
        self.path = os.path.join(out_dir, "ensemble.snap")

    def job(self, seed, index):
        e0 = invariance.generate(self.N, self.COUNT, seed)
        eT = invariance.push_forward(e0, self.cfg, workers=self.WORKERS)
        rep = invariance.invariance_report(e0, eT, self.observables, self.ALPHA)
        ctrl = invariance.generate_control(self.N, self.COUNT, seed + 1, variance_factor=1.5)
        rep_ctrl = invariance.invariance_report(e0, ctrl, self.observables, self.ALPHA)
        snapshots.save_ensemble(eT, self.path)
        back = snapshots.load_ensemble(self.path)

        failed = []
        m0, m1 = _l2_rows(e0.coeffs), _l2_rows(eT.coeffs)
        if not np.max(np.abs(m1 - m0) / m0) <= self.L2_DRIFT_TOL:
            failed.append("member_l2_drift")
        if not rep["overall_pass"]:
            failed.append("ks_evolved_vs_initial")
        if rep_ctrl["overall_pass"]:
            failed.append("ks_variance_control_not_rejected")
        if not (
            back.coeffs.dtype == eT.coeffs.dtype
            and back.coeffs.tobytes() == eT.coeffs.tobytes()
            and back.N == eT.N
            and back.time == eT.time
            and back.provenance == eT.provenance
        ):
            failed.append("snapshot_roundtrip")
        return self.COUNT * self.STEPS, failed

    def parallel_efficiency(self, seed, repeats=2):
        """Speed-up of evolve_batch from 1 to 2 workers, divided by 2."""
        rows = invariance.generate(self.N, self.COUNT, seed).coeffs
        best = {1: math.inf, 2: math.inf}
        for _ in range(repeats):
            for w in (1, 2):
                t0 = time.perf_counter()
                flow.evolve_batch(rows, self.cfg, workers=w)
                best[w] = min(best[w], time.perf_counter() - t0)
        return best[1] / (2.0 * best[2])


class Trajectory(Workload):
    """One N=64 field through evolve with checkpoints, plus Liouville probes."""

    name = "trajectory"
    unit = "member-steps"
    N, DT, STEPS = 64, 2.0**-18, 512
    LIOU_N, LIOU_DT, LIOU_T = 8, 2.0**-12, 2.0**-6
    # 3e-8 to 8e-8 measured at seeds 0-2.
    DRIFT_TOL = 1e-6
    LOGDET_TOL, AIRY_TOL = 1e-5, 1e-10

    def __init__(self, out_dir):
        self.cfg = FlowConfig(dt=self.DT, T=self.STEPS * self.DT)
        T = self.cfg.T
        self.checkpoints = [0.0, T / 4, T / 2, 3 * T / 4, T]
        self.lcfg = FlowConfig(dt=self.LIOU_DT, T=self.LIOU_T)
        # evolve's steps plus the 4N finite-difference probe rows of the
        # full Liouville run; the linear-only control takes no flow steps
        self.work = self.STEPS + 4 * self.LIOU_N * self.lcfg.steps

    def job(self, seed, index):
        f = noise.sample(GaussianSampleSpec(self.N, seed))
        traj = flow.evolve(f, self.cfg, checkpoints=self.checkpoints)
        rep = flow.conservation_report(traj)
        g = noise.sample(GaussianSampleSpec(self.LIOU_N, seed))
        full = flow.liouville_logdet(g, self.lcfg)
        airy = flow.liouville_logdet(g, self.lcfg, linear_only=True)

        failed = []
        if [t for t, _ in traj] != self.checkpoints:
            failed.append("checkpoint_times")
        if not rep["l2_drift_rel"] <= self.DRIFT_TOL:
            failed.append("l2_drift")
        if not rep["hamiltonian_drift_rel"] <= self.DRIFT_TOL:
            failed.append("hamiltonian_drift")
        if not abs(full) < self.LOGDET_TOL:
            failed.append("liouville_logdet")
        if not abs(airy) < self.AIRY_TOL:
            failed.append("liouville_airy_control")
        return self.work, failed


class Tails(Workload):
    """Tail sweep of the Besov norm of white noise; fit pooled over the run."""

    name = "tails"
    unit = "samples"
    RUN_CHECKS = 1
    N, SAMPLES = 256, 5000
    KS = np.arange(1.8, 3.31, 0.2)

    def __init__(self, out_dir):
        self.start_timing()

    def start_timing(self):
        # the warm-up repeats job 0's inputs, so only timed jobs are pooled
        self.pooled = np.zeros(self.KS.size, dtype=np.int64)
        self.pooled_samples = 0

    def job(self, seed, index):
        rows = noise.tail_sweep(NORM, self.N, self.KS, self.SAMPLES, seed)
        counts = np.array([r["count"] for r in rows])
        failed = []
        if len(rows) != self.KS.size or any(r["samples"] != self.SAMPLES for r in rows):
            failed.append("tail_rows")
        elif not (np.all(np.diff(counts) <= 0) and 0 <= counts.min() and counts.max() <= self.SAMPLES):
            failed.append("tail_counts")
        else:
            self.pooled += counts
            self.pooled_samples += self.SAMPLES
        return self.SAMPLES, failed

    def finish(self):
        """Acceptance 5 on the run's pooled counts: slope < 0, 99% CI below 0."""
        if self.pooled_samples == 0:
            return ["pooled_tail_fit"]
        rows = [
            {
                "K": float(K),
                "count": int(c),
                "estimate": int(c) / self.pooled_samples,
                "censored": c == 0,
            }
            for K, c in zip(self.KS, self.pooled)
        ]
        try:
            fit = noise.fit_log_tail(rows)
        except ValueError:
            return ["pooled_tail_fit"]
        if not (fit["slope"] < 0 and fit["ci99"][1] < 0):
            return ["pooled_tail_fit"]
        return []


class Estimates(Workload):
    """Weighted and unweighted bilinear sweeps plus one time-localization check."""

    name = "estimates"
    unit = "jobs"
    S, P, N_LIST, TRIALS, TL_N = -0.49, 2.1, (8, 16, 32, 64), 20, 4
    # the unweighted control bypasses resonance_weight
    MODES = {
        "weighted": (WeightParams(), True),
        "control": (WeightParams(delta=1e-12), False),
    }

    def __init__(self, out_dir):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.curve = curve_table(self.TL_N, self.P)

    def job(self, seed, index):
        failed = []
        for mode, (params, weighted) in self.MODES.items():
            ref = self.reference["sweep"][mode]
            # one call per N, so that a trace can split the cost by N
            for N in self.N_LIST:
                rows = estimates.bilinear_ratio_sweep(
                    self.S, self.P, params, [N], self.TRIALS, seed, weighted=weighted
                )
                for r in rows:
                    ok = math.isfinite(r["ratio"]) and r["ratio"] >= 0.0
                    want = ref[str(r["N"])].get(r["family"])
                    if want is not None:
                        ok = ok and math.isclose(r["ratio"], want, rel_tol=REFERENCE_RTOL)
                    if not ok:
                        failed.append(f"sweep_{mode}_N{r['N']}_{r['family']}")
        k = index % 7
        ratio = estimates.time_localization_check(self.curve, 2.0**-k, self.S, self.P)
        want = self.reference["time_localization"][str(k)]
        if not (math.isfinite(ratio) and math.isclose(ratio, want, rel_tol=REFERENCE_RTOL)):
            failed.append(f"time_localization_T2^-{k}")
        return 1, sorted(set(failed))


def curve_table(N, p):
    """The CLI's time-localization input: unit-per-block mass on tau = n^3."""
    f = estimates.SpaceTimeCoeffs.zeros(N)
    for n in list(range(-N, 0)) + list(range(1, N + 1)):
        j = int(math.floor(math.log2(abs(n))))
        f.values[f.row(n), f.col(float(n**3))] = 2.0 ** (-j / p) * f.dtau ** (-1.0 / p)
    return f


WORKLOADS = {w.name: w for w in (Ensemble, Trajectory, Tails, Estimates)}


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(result)[0])}


def _points(args, kwargs, result):
    return {"points": int(np.size(result))}


def _member_steps(args, kwargs, result):
    return {"member_steps": int(np.shape(result)[0]) * args[1].steps}


def _steps(args, kwargs, result):
    return {"steps": args[1].steps}


def _sweep(args, kwargs, result):
    n_list, trials = args[3], args[4]
    return {"trials": len(n_list) * trials, "N": int(n_list[0]) if len(n_list) == 1 else 0}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def trace_points():
    """(module, attribute, span name, count, tallied exceptions) per layer call.

    Nested calls are wrapped where the caller looks the name up: push_forward
    calls invariance.evolve_batch, tail_sweep calls noise.sample_batch and
    noise.besov_norm_batch, conservation_report calls flow.hamiltonian.
    """
    blowup = (IntegratorBlowupError,)
    return [
        (invariance, "generate", "invariance.generate", None, ()),
        (invariance, "generate_control", "invariance.generate_control", None, ()),
        (invariance, "push_forward", "invariance.push_forward", None, ()),
        (invariance, "invariance_report", "invariance.invariance_report", None, ()),
        (invariance, "ks_two_sample", "invariance.ks_two_sample", None, ()),
        (invariance, "evolve_batch", "flow.evolve_batch", _member_steps, blowup),
        (invariance, "sample_batch", "noise.sample_batch", _rows, ()),
        (invariance, "besov_norm_batch", "spectral.besov_norm_batch", _rows, ()),
        (noise, "tail_sweep", "noise.tail_sweep", None, ()),
        (noise, "sample_batch", "noise.sample_batch", _rows, ()),
        (noise, "besov_norm_batch", "spectral.besov_norm_batch", _rows, ()),
        (flow, "evolve", "flow.evolve", _steps, blowup),
        (flow, "conservation_report", "flow.conservation_report", None, ()),
        (flow, "hamiltonian", "spectral.hamiltonian", None, ()),
        (flow, "liouville_logdet", "flow.liouville_logdet", None, blowup),
        (snapshots, "save_ensemble", "snapshots.save_ensemble", _saved_bytes, ()),
        (snapshots, "load_ensemble", "snapshots.load_ensemble", _loaded_bytes, ()),
        (estimates, "bilinear_ratio_sweep", "estimates.bilinear_ratio_sweep", _sweep, ()),
        (estimates, "resonance_weight", "estimates.resonance_weight", _points, ()),
        (estimates, "time_localization_check", "estimates.time_localization_check", None, ()),
        (estimates, "bump_transform", "estimates.bump_transform", _points, ()),
    ]
