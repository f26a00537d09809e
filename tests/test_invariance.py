"""Monte Carlo invariance machinery: ensembles, KS statistics, reports."""
import numpy as np
import pytest

import oracles
from kdvnoise.flow import FlowConfig
from kdvnoise.invariance import (
    Ensemble,
    KsResult,
    ObservableSpec,
    generate,
    generate_control,
    invariance_report,
    ks_two_sample,
    push_forward,
)
from kdvnoise.spectral import NormSpec


class TestGenerate:
    def test_empty(self):
        e = generate(8, 0, seed=1)
        assert e.count == 0
        assert e.coeffs.shape == (0, 8)
        assert e.time == 0.0

    def test_deterministic(self):
        a = generate(8, 16, seed=5)
        b = generate(8, 16, seed=5)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, generate(8, 16, seed=6).coeffs)

    def test_mode_second_moment(self):
        # E|coefficient|^2 = 2 per mode; |a|^2 has variance 4
        count = 20000
        e = generate(8, count, seed=7)
        m = np.mean(np.abs(e.coeffs[:, 2]) ** 2)
        assert abs(m - 2.0) < 3 * 2.0 / np.sqrt(count)

    def test_members_match_noise_module(self):
        from kdvnoise.noise import GaussianSampleSpec, sample

        e = generate(8, 5, seed=9)
        for k in range(5):
            assert np.array_equal(
                e.coeffs[k], sample(GaussianSampleSpec(8, 9, stream=k)).coeffs
            )


class TestPushForward:
    def test_time_zero(self):
        e = generate(8, 6, seed=11)
        out = push_forward(e, FlowConfig(dt=1e-3, T=0.0))
        assert np.array_equal(out.coeffs, e.coeffs)
        assert out.time == 0.0

    def test_memberwise_l2_preserved(self):
        e = generate(8, 4, seed=12)
        out = push_forward(e, FlowConfig(dt=2.5e-5, T=0.05))
        assert out.time == pytest.approx(0.05)
        m0 = np.sum(np.abs(e.coeffs) ** 2, axis=1)
        mT = np.sum(np.abs(out.coeffs) ** 2, axis=1)
        assert np.max(np.abs(mT - m0) / m0) < 1e-8

    def test_worker_independence(self):
        e = generate(8, 6, seed=13)
        cfg = FlowConfig(dt=1e-3, T=0.02)
        a = push_forward(e, cfg, workers=1)
        b = push_forward(e, cfg, workers=4)
        assert np.array_equal(a.coeffs, b.coeffs)


class TestKsTwoSample:
    def test_identical_samples(self):
        x = np.arange(10.0)
        r = ks_two_sample(x, x)
        assert r.D == 0.0

    def test_disjoint_supports(self):
        r = ks_two_sample(np.arange(10.0), np.arange(10.0) + 100.0)
        assert r.D == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.array([]), np.arange(3.0))

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.standard_normal(rng.integers(5, 40))
            b = rng.standard_normal(rng.integers(5, 40)) * 1.3 + 0.1
            r = ks_two_sample(a, b)
            assert r.D == pytest.approx(oracles.ks_statistic_brute(a, b), abs=1e-13)

    def test_threshold_formula(self):
        r = KsResult(D=0.0, m=400, n=900)
        c = np.sqrt(-np.log(0.05 / 2.0) / 2.0)
        assert r.threshold(0.05) == pytest.approx(c * np.sqrt((400 + 900) / (400 * 900.0)))

    def test_null_calibration(self):
        # same distribution, m=n=1e4: pass at alpha=0.01 in >= 98/100 reps
        rng = np.random.default_rng(22)
        passed = 0
        for _ in range(100):
            a = rng.standard_normal(10**4)
            b = rng.standard_normal(10**4)
            if ks_two_sample(a, b).passes(0.01):
                passed += 1
        assert passed >= 98


class TestObservables:
    def test_mode_re_im_abs2(self):
        e = generate(8, 50, seed=31)
        re = ObservableSpec.mode_re(3).evaluate(e)
        im = ObservableSpec.mode_im(3).evaluate(e)
        a2 = ObservableSpec.mode_abs2(3).evaluate(e)
        assert np.array_equal(re, e.coeffs[:, 2].real)
        assert np.array_equal(im, e.coeffs[:, 2].imag)
        assert np.allclose(a2, np.abs(e.coeffs[:, 2]) ** 2, rtol=1e-15)

    def test_l2_and_norm(self):
        from kdvnoise.spectral import FourierField, besov_norm, l2_mass

        e = generate(8, 10, seed=32)
        l2 = ObservableSpec.l2_mass().evaluate(e)
        nrm = ObservableSpec.norm(NormSpec(-0.49, 2.1, np.inf)).evaluate(e)
        for k in range(10):
            f = FourierField(8, e.coeffs[k])
            assert l2[k] == pytest.approx(l2_mass(f), rel=1e-14)
            assert nrm[k] == pytest.approx(
                besov_norm(f, NormSpec(-0.49, 2.1, np.inf)), rel=1e-12
            )

    def test_mode_out_of_range(self):
        e = generate(8, 3, seed=33)
        with pytest.raises(ValueError):
            ObservableSpec.mode_re(9).evaluate(e)

    @pytest.mark.parametrize("kind, modes", [
        ("mode_re", (0,)), ("mode_im", (-1,)), ("mode_abs2", (0,)),
        ("pair_corr", (0, 2)), ("pair_corr", (2, 0)),
    ])
    def test_mode_below_one_rejected(self, kind, modes):
        # mode 0 would read mode N through negative indexing
        with pytest.raises(ValueError, match="modes start at 1"):
            getattr(ObservableSpec, kind)(*modes)

    def test_pair_corr_zero_mean_at_t0(self):
        count = 10**4
        e = generate(8, count, seed=34)
        v = ObservableSpec.pair_corr(1, 4).evaluate(e)
        se = np.std(v) / np.sqrt(count)
        assert abs(np.mean(v)) < 3 * se


OBS = [
    ObservableSpec.mode_re(1),
    ObservableSpec.mode_abs2(3),
    ObservableSpec.l2_mass(),
]


class TestInvarianceReport:
    def test_t0_all_zero(self):
        e = generate(8, 200, seed=41)
        rep = invariance_report(e, e, OBS, alpha=0.01)
        assert rep["overall_pass"]
        for row in rep["observables"]:
            assert row["D"] == 0.0
            assert row["passes"]

    def test_mismatched_count(self):
        a = generate(8, 10, seed=42)
        b = generate(8, 11, seed=43)
        with pytest.raises(ValueError):
            invariance_report(a, b, OBS, alpha=0.01)

    def test_one_member_rejected(self):
        # one member has no sample variance: var_* and mean_se would be NaN
        a = generate(8, 1, seed=42)
        with pytest.raises(ValueError, match="at least 2 members per ensemble, got 1"):
            invariance_report(a, a, OBS, alpha=0.01)

    def test_mismatched_cutoff(self):
        a = generate(8, 10, seed=42)
        b = generate(16, 10, seed=42)
        with pytest.raises(ValueError):
            invariance_report(a, b, OBS, alpha=0.01)

    def test_member_permutation_invariant(self):
        a = generate(8, 500, seed=44)
        b = generate(8, 500, seed=45)
        perm = np.random.default_rng(46).permutation(500)
        b_perm = Ensemble(N=8, coeffs=b.coeffs[perm], time=b.time, provenance=b.provenance)
        r1 = invariance_report(a, b, OBS, alpha=0.05)
        r2 = invariance_report(a, b_perm, OBS, alpha=0.05)
        for x, y in zip(r1["observables"], r2["observables"]):
            assert x["D"] == y["D"]
            assert x["mean_b"] == pytest.approx(y["mean_b"], rel=1e-12)

    def test_bonferroni_level(self):
        a = generate(8, 300, seed=47)
        b = generate(8, 300, seed=48)
        rep = invariance_report(a, b, OBS, alpha=0.03)
        assert rep["alpha_per_test"] == pytest.approx(0.03 / len(OBS))
        for row in rep["observables"]:
            assert row["threshold"] == pytest.approx(
                KsResult(0.0, 300, 300).threshold(0.01)
            )

    def test_moment_fields_present(self):
        a = generate(8, 300, seed=49)
        rep = invariance_report(a, a, OBS, alpha=0.05)
        row = rep["observables"][0]
        for key in ("name", "mean_a", "mean_b", "mean_se", "var_a", "var_b"):
            assert key in row

    def test_variance_control_fails(self):
        a = generate(8, 4000, seed=51)
        bad = generate_control(8, 4000, seed=52, variance_factor=1.5)
        rep = invariance_report(a, bad, OBS, alpha=0.01)
        assert not rep["overall_pass"]

    def test_control_keeps_the_member_streams(self):
        z = generate(8, 5, seed=55).coeffs
        scaled = generate_control(8, 5, seed=55, variance_factor=4.0).coeffs
        assert np.array_equal(scaled, 2.0 * z)
        skewed = generate_control(8, 5, seed=55, skew=0.3).coeffs
        assert np.array_equal(skewed.real, z.real + 0.3 * (z.real**2 - 1.0))
        assert np.array_equal(skewed.imag, z.imag + 0.3 * (z.imag**2 - 1.0))

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"variance_factor": float("nan")}, "variance_factor"),
            ({"variance_factor": float("inf")}, "variance_factor"),
            ({"variance_factor": -1.0}, "variance_factor"),
            ({"skew": float("nan")}, "skew"),
            ({"skew": float("-inf")}, "skew"),
        ],
    )
    def test_control_rejects_bad_parameters(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            generate_control(8, 5, seed=55, **kwargs)

    def test_control_allows_zero_variance(self):
        assert np.all(generate_control(8, 5, seed=55, variance_factor=0.0).coeffs == 0)

    @pytest.mark.parametrize("alpha", [float("nan"), 0.0, 1.0, 2.5, -0.1])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        a = generate(8, 10, seed=42)
        with pytest.raises(ValueError, match="alpha"):
            invariance_report(a, a, OBS, alpha=alpha)

    def test_skew_control_fails(self):
        a = generate(8, 4000, seed=53)
        bad = generate_control(8, 4000, seed=54, skew=0.8)
        obs = [ObservableSpec.mode_re(1), ObservableSpec.mode_re(2)]
        rep = invariance_report(a, bad, obs, alpha=0.01)
        assert not rep["overall_pass"]

    def test_null_pass_rate(self):
        # two independent draws, no dynamics: overall pass rate over R reps
        # must stay above 1 - alpha - 3*sqrt(alpha/R)
        alpha, R = 0.05, 100
        passed = 0
        for r in range(R):
            a = generate(8, 1000, seed=1000 + 2 * r)
            b = generate(8, 1000, seed=1001 + 2 * r)
            rep = invariance_report(a, b, OBS, alpha=alpha)
            passed += bool(rep["overall_pass"])
        assert passed / R >= 1 - alpha - 3 * np.sqrt(alpha / R)
