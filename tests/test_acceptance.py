"""Top-level acceptance runs.

Each test exercises one headline check at its stated tolerance and prints a
single PASS/FAIL line (visible even under capture). Two checks run at
settings fixed by what the computation can resolve; see README for the
measurements:

* conservation (2) runs N=64 white noise at h=2^-20, h/2, h/4 over T=2^-6.
  IF-RK4 resolves the flow only while the step resonance number 3N^3h/4 is
  of order 1 or below; the steps 1e-3..2.5e-4 (numbers 197..49) blow up
  well before T=1, and the l2 bound needs h <= 2^-20, which over T=1 would
  take about 21 minutes;
* the decay statistic (6) follows (ln M - ln ln 2) M^-delta, which at
  delta=0.1 rises up to M ~ e^(1/delta - 0.37) ~ 2^13.9 and falls slowly
  after, so the check asserts the rise 2^9 -> 2^13 and the fall
  2^14 -> 2^20, each by more than 2 standard errors of the 200-seed median.
"""
import resource
import time

import numpy as np
import pytest

from kdvnoise.estimates import (
    WeightParams,
    bilinear_ratio_sweep,
    bracket_product_integral,
    quadratic_bracket_sum,
    resonance_residual_max,
    resonance_set_integral,
)
from kdvnoise.flow import FlowConfig, IntegratorBlowupError, conservation_report, evolve, liouville_logdet
from kdvnoise.invariance import ObservableSpec, generate, generate_control, invariance_report, push_forward
from kdvnoise.noise import GaussianSampleSpec, decay_median_curve, fit_log_tail, sample, tail_sweep
from kdvnoise.spectral import FourierField, NormSpec, besov_norm, convolve, fl_norm


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    if not ok:
        pytest.fail(f"acceptance {num} {name}: {detail}")


def test_acceptance_1_resonance_identity(capsys):
    t0 = time.perf_counter()
    worst = resonance_residual_max(200)
    dt = time.perf_counter() - t0
    ok = worst == 0 and dt < 1.0
    report(capsys, 1, "resonance-identity", ok, f"max residual {worst}, {dt:.2f}s")


def test_acceptance_2_conservation(capsys):
    # the l2 bound needs h <= 2^-20; three runs at 2^-20 take about 20 s per
    # 2^-6 of time, hence the horizon
    t0 = time.perf_counter()
    N = 64
    f = sample(GaussianSampleSpec(N, 20260821))
    h, T = 2.0**-20, 2.0**-6
    resonance = 0.75 * N**3 * h
    detail = ""
    ok = False
    try:
        traj = evolve(f, FlowConfig(dt=h, T=T))
        rep = conservation_report(traj)
        half = evolve(f, FlowConfig(dt=h / 2, T=T))
        quarter = evolve(f, FlowConfig(dt=h / 4, T=T))
        e1 = np.linalg.norm(traj[-1][1].coeffs - quarter[-1][1].coeffs)
        e2 = np.linalg.norm(half[-1][1].coeffs - quarter[-1][1].coeffs)
        ratio = e1 / e2
        dt = time.perf_counter() - t0
        ok = (
            resonance < 1.0
            and rep["mean_drift"] == 0.0
            and rep["l2_drift_rel"] < 1e-8
            and rep["hamiltonian_drift_rel"] < 1e-6
            and 12.0 <= ratio <= 20.0
            and dt < 60.0
        )
        detail = (
            f"h=2^-20, 3N^3h/4={resonance:.2f}, T=2^-6: "
            f"l2 drift {rep['l2_drift_rel']:.2e}, H drift {rep['hamiltonian_drift_rel']:.2e}, "
            f"Richardson {ratio:.2f} (17 for 4th order), {dt:.0f}s"
        )
    except IntegratorBlowupError as exc:
        dt = time.perf_counter() - t0
        detail = (
            f"integrator blowup ({exc}); the coarsest step has resonance number "
            f"3N^3h/4={resonance:.2f}, {dt:.0f}s"
        )
    report(capsys, 2, "conservation", ok, detail)


def test_acceptance_3_liouville(capsys):
    t0 = time.perf_counter()
    f = sample(GaussianSampleSpec(8, 20260821))
    cfg = FlowConfig(dt=5e-4, T=0.5)
    full = liouville_logdet(f, cfg)
    ctrl = liouville_logdet(f, cfg, linear_only=True)
    dt = time.perf_counter() - t0
    ok = abs(full) < 1e-5 and abs(ctrl) < 1e-10 and dt < 60.0
    report(
        capsys, 3, "liouville", ok,
        f"|logdet| {abs(full):.2e}, airy control {abs(ctrl):.2e}, {dt:.0f}s",
    )


def test_acceptance_4_measure_invariance(capsys):
    t0 = time.perf_counter()
    N, count, alpha = 16, 10**4, 0.01
    obs = [
        ObservableSpec.mode_re(1),
        ObservableSpec.mode_im(2),
        ObservableSpec.mode_abs2(3),
        ObservableSpec.l2_mass(),
        ObservableSpec.norm(NormSpec(-0.49, 2.1, np.inf)),
    ]
    e0 = generate(N, count, seed=20260821)
    eT = push_forward(e0, FlowConfig(dt=2.5e-4, T=1.0))
    rep = invariance_report(e0, eT, obs, alpha=alpha)
    bad = generate_control(N, count, seed=20260822, variance_factor=1.5)
    rep_bad = invariance_report(e0, bad, obs, alpha=alpha)
    dt = time.perf_counter() - t0
    dmax = max(row["D"] for row in rep["observables"])
    ok = rep["overall_pass"] and not rep_bad["overall_pass"] and dt < 600.0
    report(
        capsys, 4, "measure-invariance", ok,
        f"all KS pass={rep['overall_pass']} (max D {dmax:.4f}), "
        f"variance control fails={not rep_bad['overall_pass']}, {dt:.0f}s",
    )


def test_acceptance_5_fernique_tail(capsys):
    # the process's peak RSS is reported only: it costs nothing to read, and
    # it stays flat when the sweep needs less than what ran before it
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    spec = NormSpec(-0.49, 2.1, np.inf)
    rows = tail_sweep(spec, 256, np.arange(1.8, 3.31, 0.2), 10**5, 20260821)
    fit = fit_log_tail(rows)
    dt = time.perf_counter() - t0
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    hi = fit["slope"] + 2.576 * fit["slope_se"]
    ok = fit["slope"] < 0 and hi < 0 and dt < 300.0
    report(
        capsys, 5, "fernique-tail", ok,
        f"slope {fit['slope']:.3f} per K^2, 99% CI upper {hi:.3f}, "
        f"{fit['n_points']} usable K values, process peak RSS "
        f"{rss0 / 1024:.0f} -> {rss1 / 1024:.0f} MB, {dt:.0f}s",
    )


def test_acceptance_6_decay_statistic(capsys):
    # max of M exponentials = ln M + Gumbel, whose median is -ln ln 2; the
    # standard error of the median over n seeds is M^-delta / (ln 2 sqrt(n))
    t0 = time.perf_counter()
    delta, n_seeds = 0.1, 200
    exps = list(range(9, 17)) + [20]
    curve = decay_median_curve([2**j for j in exps], delta=delta, n_seeds=n_seeds, seed0=20260821)
    med = dict(zip(exps, curve))
    dt = time.perf_counter() - t0

    def se(j):
        return 2.0 ** (-delta * j) / (np.log(2.0) * np.sqrt(n_seeds))

    rise = (med[13] - med[9]) / np.hypot(se(13), se(9))
    fall = (med[14] - med[20]) / np.hypot(se(14), se(20))
    ok = rise > 2.0 and fall > 2.0 and dt < 60.0
    report(
        capsys, 6, "decay-statistic", ok,
        "medians " + ", ".join(f"{med[j]:.3f}" for j in range(9, 17))
        + f" over M=2^9..2^16, {med[20]:.3f} at 2^20; "
        f"rise 2^9->2^13 {rise:.1f} se, fall 2^14->2^20 {fall:.1f} se (both > 2), "
        f"turnover of the law at M~e^(1/delta-0.37)~2^13.9, {dt:.0f}s",
    )


def test_acceptance_7_lemma_oracles(capsys):
    t0 = time.perf_counter()
    a_list = (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
    gtv_ok = True
    gtv_msg = []
    for ab in ((0.5, 0.5), (0.26, 0.26), (0.1, 0.45)):
        ratios = [bracket_product_integral(ab[0], ab[1], a)[1] for a in a_list]
        spread = max(ratios) / min(ratios)
        gtv_ok = gtv_ok and spread < 10.0
        gtv_msg.append(f"{ab}: {spread:.2f}")
    v1, _ = quadratic_bracket_sum(1, 0.0, 1.0, 1.0, cutoff=10**6)
    v2, _ = quadratic_bracket_sum(1, 0.0, 1.0, 1.0, cutoff=2 * 10**6)
    psum_stable = abs(v2 - v1) / v1 < 1e-6
    grid = [
        quadratic_bracket_sum(n, lam, 1.0, 1.0, cutoff=10**4)[0]
        for n in (1, 3, 10, 31, 100, 316, 1000)
        for lam in (0.0, 10.0, -1e3, 1e4, -1e5, 1e6)
    ]
    psum_ok = psum_stable and np.isfinite(grid).all()
    omega = [resonance_set_integral(n, 0.75) for n in range(1, 1001)]
    omega_ok = np.isfinite(omega).all() and max(omega) < 10.0
    dt = time.perf_counter() - t0
    ok = gtv_ok and psum_ok and omega_ok and dt < 300.0
    report(
        capsys, 7, "lemma-oracles", ok,
        f"gtv spreads {'; '.join(gtv_msg)}, psum cutoff drift {abs(v2 - v1) / v1:.1e} "
        f"grid sup {max(grid):.3f}, omega sup {max(omega):.3f}, {dt:.0f}s",
    )


def test_acceptance_8_bilinear_sweep(capsys):
    t0 = time.perf_counter()
    s, p = -0.49, 2.1
    N_list = [8, 16, 32, 64]
    trials = 200
    weighted = bilinear_ratio_sweep(s, p, WeightParams(), N_list, trials, seed=20260821)
    control = bilinear_ratio_sweep(
        s, p, WeightParams(delta=1e-12), N_list, trials, seed=20260821, weighted=False
    )
    wmax = {N: max(r["ratio"] for r in weighted if r["N"] == N) for N in N_list}
    cmax = {N: max(r["ratio"] for r in control if r["N"] == N) for N in N_list}
    bounded_factor = 3.0
    growth_min = 1.3
    spread = max(wmax.values()) / min(wmax.values())
    growth = cmax[64] / cmax[8]
    dt = time.perf_counter() - t0
    ok = spread < bounded_factor and growth > growth_min and dt < 900.0
    report(
        capsys, 8, "bilinear-sweep", ok,
        f"weighted max by N {[f'{wmax[N]:.2f}' for N in N_list]} spread {spread:.2f} "
        f"(< {bounded_factor}), unweighted growth x{growth:.2f} (> {growth_min}), {dt:.0f}s",
    )


def test_acceptance_9_norm_crosschecks(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260821)
    worst_norm = 0.0
    for _ in range(10**3):
        N = int(rng.integers(2, 65))
        c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        f = FourierField(N, c)
        s = float(rng.uniform(-1.0, 1.0))
        p = float(rng.uniform(1.0, 4.0))
        a = besov_norm(f, NormSpec(s, p, p))
        b = fl_norm(f, s, p)
        worst_norm = max(worst_norm, abs(a - b) / max(b, 1e-300))
    worst_conv = 0.0
    for N in (4, 32, 256):
        c1 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        c2 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        f, g = FourierField(N, c1), FourierField(N, c2)
        ha = convolve(f, g, method="transform")
        hb = convolve(f, g, method="direct")
        scale = max(np.max(np.abs(ha.coeffs)), 1e-300)
        worst_conv = max(worst_conv, np.max(np.abs(ha.coeffs - hb.coeffs)) / scale)
    dt = time.perf_counter() - t0
    ok = worst_norm < 1e-12 and worst_conv < 1e-12
    report(
        capsys, 9, "norm-crosschecks", ok,
        f"besov(q=p) vs flat-weighted worst {worst_norm:.1e}, "
        f"convolution dual-path worst {worst_conv:.1e}, {dt:.0f}s",
    )
