"""Dispersive-estimate oracles: weights, space-time norms, bilinear form, lemmas."""
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import fftconvolve

import oracles
from kdvnoise import estimates
from kdvnoise.estimates import (
    SpaceTimeCoeffs,
    WeightParams,
    bilinear_form,
    bilinear_ratio_sweep,
    bourgain_l1tau_norm,
    bourgain_norm,
    bracket_product_integral,
    bump,
    bump_transform,
    family_points,
    modulation_max_holds,
    quadratic_bracket_sum,
    resonance_residual,
    resonance_residual_max,
    resonance_set_integral,
    resonance_weight,
    sweep_trial_rng,
    time_localization_check,
    weight_terms,
    weighted_bourgain_norm,
)
from kdvnoise.spectral import bracket


class TestResonanceIdentity:
    def test_examples(self):
        assert resonance_residual(2, 3) == 0
        assert resonance_residual(-5, 5) == 0
        assert resonance_residual(7, -11) == 0

    def test_exhaustive_small(self):
        assert resonance_residual_max(50) == 0

    def test_integer_type(self):
        assert isinstance(resonance_residual(123456, -654321), int)


class TestModulationMax:
    def test_on_curve_attained(self):
        for n1, n2 in [(3, 4), (-2, 7), (5, 5)]:
            assert modulation_max_holds(n1, n2, n1**3, n2**3)

    def test_randomized(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            n1 = int(rng.integers(-50, 51)) or 1
            n2 = int(rng.integers(-50, 51)) or 2
            if n1 + n2 == 0:
                n2 += 1
            t1 = float(rng.uniform(-1e5, 1e5))
            t2 = float(rng.uniform(-1e5, 1e5))
            assert modulation_max_holds(n1, n2, t1, t2)

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            modulation_max_holds(3, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            modulation_max_holds(3, -3, 1.0, 1.0)


class TestWeight:
    def test_below_threshold_is_one(self):
        params = WeightParams()
        for n in (-9, -1, 1, 5, 9):
            assert resonance_weight(n, 123.4, params) == 1.0

    def test_constructed_resonant_point(self):
        params = WeightParams(C=10, c0=0.4, delta=0.3)
        n, k0 = 40, 7
        tau = n**3 - 3 * n * (n - k0) * k0
        expect = 1.0 + 2.0 * min(bracket(k0), bracket(n - k0)) ** 0.3
        assert resonance_weight(n, tau, params) == pytest.approx(expect, rel=1e-13)

    def test_matches_brute_scan(self):
        params = WeightParams()
        rng = np.random.default_rng(62)
        for _ in range(200):
            n = int(rng.integers(1, 80)) * int(rng.choice([-1, 1]))
            tau = float(n**3 + rng.uniform(-4e4, 4e4))
            got = resonance_weight(n, tau, params)
            expect = oracles.weight_scan(n, tau, params.C, params.c0, params.delta, kmax=300)
            assert got == pytest.approx(expect, rel=1e-13)

    def test_upper_bound(self):
        params = WeightParams()
        rng = np.random.default_rng(63)
        for _ in range(300):
            n = int(rng.integers(-100, 101)) or 3
            tau = float(rng.uniform(-1e6, 1e6))
            assert resonance_weight(n, tau, params) <= 1.0 + 2.0 * bracket(n) ** params.delta

    def test_at_most_two_terms(self):
        # with c0=1 the quadratic's integer gaps exceed the window width
        params = WeightParams()
        rng = np.random.default_rng(64)
        for _ in range(300):
            n = int(rng.integers(10, 120)) * int(rng.choice([-1, 1]))
            tau = float(n**3 - 3 * n * (n - rng.integers(-30, 31)) * rng.integers(-30, 31) + rng.uniform(-2, 2))
            assert len(weight_terms(n, tau, params)) <= 2

    def test_vectorized_matches_scalar(self):
        params = WeightParams()
        rng = np.random.default_rng(65)
        ns = rng.integers(1, 60, size=50) * rng.choice([-1, 1], size=50)
        taus = rng.uniform(-3e5, 3e5, size=50)
        vec = resonance_weight(ns, taus, params)
        for i in range(50):
            assert vec[i] == resonance_weight(int(ns[i]), float(taus[i]), params)

    @pytest.mark.parametrize("params", [WeightParams(), WeightParams(C=2, c0=6.0, delta=0.4)])
    def test_terms_add_up_to_weight(self, params):
        rng = np.random.default_rng(66)
        resonant = 0
        for i in range(400):
            n = int(rng.integers(10, 150)) * int(rng.choice([-1, 1]))
            if i % 2:
                k = int(rng.integers(-60, 61))
                tau = float(n**3 - 3 * n * (n - k) * k + rng.uniform(-1, 1))
            else:
                tau = float(rng.uniform(-4e6, 4e6))
            terms = weight_terms(n, tau, params)
            resonant += bool(terms)
            expect = 1.0 + sum(gain for _, gain in terms)
            assert resonance_weight(n, tau, params) == pytest.approx(expect, rel=1e-14)
        assert resonant >= 150

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WeightParams(C=0.5)
        with pytest.raises(ValueError):
            WeightParams(delta=0.0)


class TestSpaceTimeCoeffs:
    def test_zeros_shape(self):
        f = SpaceTimeCoeffs.zeros(4, tau_max=32.0, dtau=0.5)
        assert f.values.shape == (8, 129)
        assert f.tau_grid[0] == -32.0 and f.tau_grid[-1] == 32.0

    def test_default_grid(self):
        f = SpaceTimeCoeffs.zeros(4)
        assert f.tau_max == 4 * 4**3
        assert f.dtau == 0.5

    def test_grid_divisibility(self):
        with pytest.raises(ValueError):
            SpaceTimeCoeffs.zeros(4, tau_max=10.0, dtau=0.3)

    def test_from_points_and_row_order(self):
        f = SpaceTimeCoeffs.from_points(4, {(2, 8.0): 3.0, (-1, -0.5): 1j}, tau_max=16.0, dtau=0.5)
        # rows ordered n = -N..-1 then 1..N
        assert f.values[f.row(2), f.col(8.0)] == 3.0
        assert f.values[f.row(-1), f.col(-0.5)] == 1j
        assert np.count_nonzero(f.values) == 2

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            SpaceTimeCoeffs.from_points(4, {(0, 1.0): 1.0}, tau_max=16.0, dtau=0.5)

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError):
            SpaceTimeCoeffs.from_points(4, {(1, 0.3): 1.0}, tau_max=16.0, dtau=0.5)

    def test_nonfinite_rejected(self):
        v = np.zeros((8, 65), dtype=complex)
        v[0, 0] = np.nan
        with pytest.raises(ValueError):
            SpaceTimeCoeffs(4, 16.0, 0.5, v)


class TestBourgainNorms:
    def test_zero(self):
        f = SpaceTimeCoeffs.zeros(4, tau_max=16.0, dtau=0.5)
        assert bourgain_norm(f, -0.5, 0.5, 2.0) == 0.0
        assert bourgain_l1tau_norm(f, -0.5, 0.0, 2.0) == 0.0
        assert weighted_bourgain_norm(f, -0.5, 0.5, 2.0, WeightParams()) == 0.0

    def test_single_point_closed_form(self):
        n0, t0, a = 3, 11.5, 1.7 - 0.4j
        f = SpaceTimeCoeffs.from_points(4, {(n0, t0): a}, tau_max=64.0, dtau=0.5)
        s, b, p = -0.49, 0.5, 2.1
        expect = bracket(n0) ** s * bracket(t0 - n0**3) ** b * abs(a) * 0.5 ** (1 / p)
        assert bourgain_norm(f, s, b, p) == pytest.approx(expect, rel=1e-12)
        expect_l1 = bracket(n0) ** s * bracket(t0 - n0**3) ** b * abs(a) * 0.5
        assert bourgain_l1tau_norm(f, s, b, p) == pytest.approx(expect_l1, rel=1e-12)

    def test_block_sup_structure(self):
        # two modes in different dyadic blocks: sup picks the larger block value
        f = SpaceTimeCoeffs.from_points(8, {(1, 0.0): 2.0, (5, 0.0): 1.0}, tau_max=32.0, dtau=0.5)
        p = 2.0
        dt_p = 0.5 ** (1 / p)
        v1_half = bracket(-1.0) ** 0.5 * 2.0 * dt_p
        v5_half = bracket(-(5**3.0)) ** 0.5 * 1.0 * dt_p
        assert bourgain_norm(f, 0.0, 0.5, p) == pytest.approx(max(v1_half, v5_half), rel=1e-12)
        v1_zero = 2.0 * dt_p
        v5_zero = 1.0 * dt_p
        assert bourgain_norm(f, 0.0, 0.0, p) == pytest.approx(max(v1_zero, v5_zero), rel=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(71)
        f = random_st(6, rng)
        for fn in (
            lambda g: bourgain_norm(g, -0.3, 0.5, 2.1),
            lambda g: bourgain_l1tau_norm(g, -0.3, 0.0, 2.1),
            lambda g: weighted_bourgain_norm(g, -0.3, 0.5, 2.1, WeightParams(C=3)),
        ):
            a = fn(f)
            g = SpaceTimeCoeffs(f.N, f.tau_max, f.dtau, 2.5 * f.values)
            assert fn(g) == pytest.approx(2.5 * a, rel=1e-12)

    def test_monotone_under_domination(self):
        rng = np.random.default_rng(72)
        f = random_st(6, rng)
        g = SpaceTimeCoeffs(f.N, f.tau_max, f.dtau, f.values * rng.uniform(0, 1, f.values.shape))
        assert bourgain_norm(g, -0.3, 0.5, 2.1) <= bourgain_norm(f, -0.3, 0.5, 2.1) + 1e-15

    def test_weighted_dominates_y_part(self):
        rng = np.random.default_rng(73)
        f = random_st(6, rng)
        w = weighted_bourgain_norm(f, -0.49, -0.5, 2.1, WeightParams(C=3))
        y = bourgain_l1tau_norm(f, -0.49, -1.0, 2.1)
        assert w >= y

    def test_trivial_weight_splits(self):
        rng = np.random.default_rng(74)
        f = random_st(6, rng)
        big_c = WeightParams(C=10**9)
        s, b, p = -0.49, 0.5, 2.1
        expect = bourgain_norm(f, s, b, p) + bourgain_l1tau_norm(f, s, b - 0.5, p)
        assert weighted_bourgain_norm(f, s, b, p, big_c) == pytest.approx(expect, rel=1e-12)

    def test_grid_refinement(self):
        # smooth profile: halving dtau moves the norm by < 1%
        vals = {}
        for dtau in (0.5, 0.25):
            f = smooth_profile(4, tau_max=64.0, dtau=dtau)
            vals[dtau] = bourgain_norm(f, -0.3, 0.25, 2.0)
        assert abs(vals[0.25] - vals[0.5]) / vals[0.25] < 0.01


def random_st(N, rng, tau_max=32.0, dtau=0.5):
    L = int(round(2 * tau_max / dtau)) + 1
    v = rng.standard_normal((2 * N, L)) + 1j * rng.standard_normal((2 * N, L))
    return SpaceTimeCoeffs(N, tau_max, dtau, v)


def smooth_profile(N, tau_max, dtau):
    f = SpaceTimeCoeffs.zeros(N, tau_max=tau_max, dtau=dtau)
    ns = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    for i, n in enumerate(ns):
        f.values[i] = np.exp(-((f.tau_grid - n**3) ** 2) / 80.0) * (1.0 + 0.1 * n)
    return f


class TestBilinearForm:
    def test_zero_input(self):
        f = SpaceTimeCoeffs.zeros(4, tau_max=32.0, dtau=0.5)
        g = SpaceTimeCoeffs.from_points(4, {(1, 1.0): 1.0}, tau_max=32.0, dtau=0.5)
        out = bilinear_form(f, g, -0.49, WeightParams())
        assert np.all(out.values == 0)

    def test_lattice_mismatch(self):
        f = SpaceTimeCoeffs.zeros(4, tau_max=32.0, dtau=0.5)
        g = SpaceTimeCoeffs.zeros(4, tau_max=16.0, dtau=0.5)
        with pytest.raises(ValueError):
            bilinear_form(f, g, -0.49, WeightParams())

    def test_single_point_hand_formula(self):
        s = -0.49
        params = WeightParams()
        n1, t1, a = 2, 9.0, 1.3 + 0.2j
        n2, t2, c = 3, -4.5, -0.7 + 1.1j
        f = SpaceTimeCoeffs.from_points(8, {(n1, t1): a}, tau_max=256.0, dtau=0.5)
        g = SpaceTimeCoeffs.from_points(8, {(n2, t2): c}, tau_max=256.0, dtau=0.5)
        out = bilinear_form(f, g, s, params)
        n, t = n1 + n2, t1 + t2
        mult = abs(n) * bracket(n) ** s / (bracket(n1) ** s * bracket(n2) ** s)
        den1 = resonance_weight(n1, t1, params) * bracket(t1 - n1**3) ** 0.5
        den2 = resonance_weight(n2, t2, params) * bracket(t2 - n2**3) ** 0.5
        expect = mult * a * c / (den1 * den2) * 0.5 * bracket(t - n**3) ** -0.5
        got = out.values[out.row(n), out.col(t)]
        assert got == pytest.approx(expect, rel=1e-12)
        others = np.abs(out.values).sum() - abs(got)
        assert others < 1e-14

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(81)
        f = random_st(5, rng)
        g = random_st(5, rng)
        a = bilinear_form(f, g, -0.49, WeightParams())
        b = bilinear_form(g, f, -0.49, WeightParams())
        assert np.max(np.abs(a.values - b.values)) < 1e-12 * np.max(np.abs(a.values))

    def test_bilinearity(self):
        rng = np.random.default_rng(82)
        f = random_st(5, rng)
        g = random_st(5, rng)
        h = random_st(5, rng)
        fa = SpaceTimeCoeffs(5, f.tau_max, f.dtau, 2.0 * f.values + h.values)
        lhs = bilinear_form(fa, g, -0.3, WeightParams())
        r1 = bilinear_form(f, g, -0.3, WeightParams())
        r2 = bilinear_form(h, g, -0.3, WeightParams())
        assert np.allclose(lhs.values, 2.0 * r1.values + r2.values, rtol=1e-11, atol=1e-13)

    def test_unweighted_drops_w(self):
        # a point on the resonant set where w > 1 with a low threshold
        params = WeightParams(C=2, c0=0.4, delta=0.3)
        n1, k0 = 12, 5
        t1 = float(n1**3 - 3 * n1 * (n1 - k0) * k0)
        f = SpaceTimeCoeffs.from_points(16, {(n1, t1): 1.0}, tau_max=8192.0, dtau=0.5)
        g = SpaceTimeCoeffs.from_points(16, {(2, 8.0): 1.0}, tau_max=8192.0, dtau=0.5)
        a = bilinear_form(f, g, -0.49, params, weighted=True)
        b = bilinear_form(f, g, -0.49, params, weighted=False)
        w1 = resonance_weight(n1, t1, params)
        w2 = resonance_weight(2, 8.0, params)
        assert w1 > 1.0
        i, j = a.row(14), a.col(t1 + 8.0)
        assert b.values[i, j] == pytest.approx(a.values[i, j] * w1 * w2, rel=1e-12)


class TestRatioSweep:
    def test_empty(self):
        rows = bilinear_ratio_sweep(-0.49, 2.1, WeightParams(), [8], trials=0, seed=1)
        assert rows == []

    def test_deterministic(self):
        a = bilinear_ratio_sweep(-0.49, 2.1, WeightParams(), [8], trials=3, seed=5)
        b = bilinear_ratio_sweep(-0.49, 2.1, WeightParams(), [8], trials=3, seed=5)
        assert a == b
        assert all(r["ratio"] > 0 and np.isfinite(r["ratio"]) for r in a)
        assert {r["N"] for r in a} == {8}
        assert sorted({r["trial"] for r in a}) == [0, 1, 2]

    def test_row_fields(self):
        rows = bilinear_ratio_sweep(-0.49, 2.1, WeightParams(), [8, 16], trials=2, seed=9)
        for r in rows:
            assert set(r) == {"N", "trial", "family", "ratio"}

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_non_finite_p_rejected(self, p):
        # the sparse route has no p = inf branch; it returned inf and nan ratios
        with pytest.raises(ValueError, match="finite p"):
            bilinear_ratio_sweep(-0.49, p, WeightParams(C=3), [6], trials=4, seed=13)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"N_list": [0]}, "N >= 2"),
            ({"N_list": [1]}, "N >= 2"),
            ({"N_list": [8, 1]}, "N >= 2"),
            ({"p": 0.5}, "p >= 1"),
            ({"trials": -3}, "trials >= 0"),
        ],
    )
    def test_schema_rules_enforced(self, change, match):
        # these returned ratio-0.0 rows, finite ratios below p = 1, or [] silently
        args = {"s": -0.49, "p": 2.1, "params": WeightParams(), "N_list": [8], "trials": 4, "seed": 1}
        with pytest.raises(ValueError, match=match):
            bilinear_ratio_sweep(**(args | change))

    @pytest.mark.parametrize(
        "params, weighted", [(WeightParams(), True), (WeightParams(delta=1e-12), False)]
    )
    def test_fixed_families_computed_once_per_call(self, monkeypatch, params, weighted):
        s, p, N_list, trials, seed = -0.49, 2.1, [8, 16], 9, 4
        sparse_ratio = estimates._sparse_ratio
        calls = []

        def counting(*args):
            calls.append(args[2])
            return sparse_ratio(*args)

        monkeypatch.setattr(estimates, "_sparse_ratio", counting)
        rows = bilinear_ratio_sweep(s, p, params, N_list, trials, seed, weighted=weighted)
        # trials 0..8 cycle the four families: one call each for the three
        # fixed ones, plus the random trials 3 and 7, at each N
        assert calls == [8] * 5 + [16] * 5
        calls.clear()
        assert bilinear_ratio_sweep(s, p, params, N_list, trials, seed, weighted=weighted) == rows
        assert len(calls) == 10  # nothing is cached across calls
        for r in rows:
            rng = sweep_trial_rng(seed, r["N"], r["trial"])
            fpts, gpts = family_points(r["family"], r["N"], p, rng)
            assert r["ratio"] == sparse_ratio(fpts, gpts, r["N"], s, p, params, weighted)

    def test_sparse_matches_dense_route(self):
        # recompute one sweep ratio through the dense public operations
        s, p = -0.49, 2.1
        params = WeightParams(C=3)
        N = 6
        rows = bilinear_ratio_sweep(s, p, params, [N], trials=1, seed=13)
        row = rows[0]
        rng = sweep_trial_rng(13, N, 0)
        fpts, gpts = family_points(row["family"], N, p, rng)
        f = SpaceTimeCoeffs.from_points(N, fpts)
        g = SpaceTimeCoeffs.from_points(N, gpts)
        out = bilinear_form(f, g, s, params, weighted=True)
        # undo the outer modulation factor before taking the output norm
        tgrid = out.tau_grid[None, :]
        npow = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])[:, None].astype(float)
        stripped = SpaceTimeCoeffs(
            N, out.tau_max, out.dtau, out.values * bracket(tgrid - npow**3) ** 0.5
        )
        num = weighted_bourgain_norm(stripped, 0.0, -0.5, p, params)
        den = bourgain_norm(f, 0.0, 0.0, p) * bourgain_norm(g, 0.0, 0.0, p)
        assert num / den == pytest.approx(row["ratio"], rel=1e-9)

    def test_scaling_invariance(self):
        s, p, params, N = -0.49, 2.1, WeightParams(C=3), 6
        rng = sweep_trial_rng(29, N, 0)
        fpts, gpts = family_points("random", N, p, rng)
        f = SpaceTimeCoeffs.from_points(N, fpts)
        g = SpaceTimeCoeffs.from_points(N, gpts)
        f2 = SpaceTimeCoeffs(N, f.tau_max, f.dtau, 3.7 * f.values)
        r1 = bilinear_form(f, g, s, params)
        r2 = bilinear_form(f2, g, s, params)
        assert np.allclose(r2.values, 3.7 * r1.values, rtol=1e-12, atol=1e-15)


class TestReferenceValues:
    """Seed-independent sweep families and time-localization ratios, pinned to
    the values the benchmark checks against (bench/reference.json)."""

    REFERENCE = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text()
    )
    MODES = {"weighted": (WeightParams(), True), "control": (WeightParams(delta=1e-12), False)}

    @pytest.mark.parametrize("N", [8, 16, 32, 64])
    @pytest.mark.parametrize("mode", ["weighted", "control"])
    def test_sweep_families(self, mode, N):
        params, weighted = self.MODES[mode]
        rows = bilinear_ratio_sweep(-0.49, 2.1, params, [N], 3, seed=0, weighted=weighted)
        want = self.REFERENCE["sweep"][mode][str(N)]
        assert sorted(r["family"] for r in rows) == sorted(want)
        for r in rows:
            assert r["ratio"] == pytest.approx(want[r["family"]], rel=1e-9)

    def test_time_localization(self):
        f = SpaceTimeCoeffs.from_points(4, family_points("free_curve", 4, 2.1, None)[0])
        for k, want in sorted(self.REFERENCE["time_localization"].items()):
            ratio = time_localization_check(f, 2.0 ** -int(k), -0.49, 2.1)
            assert ratio == pytest.approx(want, rel=1e-9)


class TestBracketProductIntegral:
    def test_closed_form_at_zero(self):
        value, ratio = bracket_product_integral(0.5, 0.5, 0.0)
        assert value == pytest.approx(2.0, rel=1e-8)
        assert ratio > 0

    def test_ratio_bounded_over_a(self):
        ratios = [bracket_product_integral(0.5, 0.5, a)[1] for a in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)]
        assert max(ratios) / min(ratios) < 10.0

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            bracket_product_integral(0.3, 0.2, 1.0)  # alpha > beta
        with pytest.raises(ValueError):
            bracket_product_integral(0.2, 0.24, 1.0)  # alpha + beta <= 1/2

    def test_matches_quad_oracle(self):
        for alpha, beta, a in [(0.5, 0.5, 37.0), (0.26, 0.26, 100.0), (0.1, 0.45, 1000.0)]:
            value, _ = bracket_product_integral(alpha, beta, a)
            expect = oracles.bracket_integral_quad(alpha, beta, a)
            assert value == pytest.approx(expect, rel=1e-6)


class TestQuadraticBracketSum:
    def test_pinned_value_stable(self):
        v1, _ = quadratic_bracket_sum(1, 0.0, 1.0, 1.0, cutoff=10**6)
        v2, _ = quadratic_bracket_sum(1, 0.0, 1.0, 1.0, cutoff=2 * 10**6)
        assert abs(v2 - v1) / v1 < 1e-6
        assert v1 == pytest.approx(0.447866089, rel=1e-6)

    def test_tail_bound_covers_remainder(self):
        for n, lam in [(1, 0.0), (5, 300.0), (-7, -4000.0)]:
            v_small, tail = quadratic_bracket_sum(n, lam, 1.0, 1.0, cutoff=10**3)
            v_big, _ = quadratic_bracket_sum(n, lam, 1.0, 1.0, cutoff=10**5)
            assert v_big - v_small <= tail * (1 + 1e-12)

    def test_grid_sup_bounded(self):
        vals = []
        for n in (1, 10, 100, 1000):
            for lam in (0.0, 10.0, -1e3, 1e6):
                v, _ = quadratic_bracket_sum(n, lam, 1.0, 1.0, cutoff=10**4)
                vals.append(v)
        arr = np.array(vals)
        assert np.isfinite(arr).all()
        assert arr.max() < 5.0

    def test_precondition_error(self):
        with pytest.raises(ValueError):
            quadratic_bracket_sum(1, 0.0, 0.5, 0.25, cutoff=100)  # l1+2l2 = 1
        with pytest.raises(ValueError):
            quadratic_bracket_sum(1, 0.0, -0.1, 1.0, cutoff=100)


class TestResonanceSetIntegral:
    def test_zero_width(self):
        assert resonance_set_integral(5, 0.75, c0=0.0) == 0.0

    def test_bounded_over_n(self):
        vals = [resonance_set_integral(n, 0.75) for n in (1, 3, 10, 100, 1000)]
        assert all(v > 0 for v in vals)
        assert max(vals) < 10.0

    def test_larger_exponent_dominated(self):
        for n in (2, 20, 200):
            assert resonance_set_integral(n, 2.0) <= resonance_set_integral(n, 0.75)


class TestTimeLocalization:
    def test_bump_properties(self):
        assert bump(0.0) == 1.0
        assert bump(0.4) == 1.0  # flat on |t| <= 1/2
        assert bump(1.0) == 0.0
        assert bump(2.0) == 0.0
        assert 0.0 < bump(0.75) < 1.0

    def test_bump_transform_even_real(self):
        for xi in (0.0, 0.7, -0.7, 3.0):
            assert np.isreal(bump_transform(xi))
        xi = 0.3 * np.arange(5000)
        assert np.array_equal(bump_transform(-xi), bump_transform(xi))

    @pytest.mark.parametrize("T", [-0.5, 0.0, np.nan, np.inf])
    def test_bad_T_rejected(self, T):
        # T = -0.5 gave a complex ratio, T = 0 gave 0.0, nan/inf warned first
        f = free_curve_profile(4)
        with pytest.raises(ValueError, match="finite T > 0"):
            time_localization_check(f, T, -0.49, 2.1)

    @pytest.mark.parametrize("p", [0.5, 0.0, np.nan])
    def test_bad_p_rejected(self, p):
        # p = 0.5 gave a ratio of 461.65, p = nan gave nan, p = 0 divided by zero
        f = free_curve_profile(4)
        with pytest.raises(ValueError, match="p >= 1"):
            time_localization_check(f, 0.5, -0.49, p)

    @pytest.mark.parametrize("step, L", [
        (2.0 * T * 0.5, SpaceTimeCoeffs.zeros(N).L)
        for N in (4, 8) for T in [2.0**-k for k in range(7)] + [0.3]
    ] + [(0.3, 3)])
    def test_grid_kernel_matches_direct(self, step, L):
        want = bump_transform(step * np.arange(L))
        got = estimates._bump_transform_grid(step, L)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("T", [2.0**-k for k in range(7)] + [0.3])
    @pytest.mark.parametrize("N", [4, 8])
    def test_mirrored_kernel_matches_two_sided(self, N, T):
        f = free_curve_profile(N)
        got = time_localization_check(f, T, -0.49, 2.1)
        assert got == pytest.approx(two_sided_time_localization(f, T, -0.49, 2.1), rel=1e-15, abs=0)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_chunks_match_one_chunk(self, monkeypatch, rows):
        # N = 4 fits one chunk (8 rows at period 4096); 3 leaves a short last chunk
        f = free_curve_profile(4)
        whole = [time_localization_check(f, T, -0.49, 2.1) for T in (1.0, 0.3)]
        monkeypatch.setattr(estimates, "_TIME_LOC_CHUNK", rows * 4096)
        assert [time_localization_check(f, T, -0.49, 2.1) for T in (1.0, 0.3)] == whole

    def test_zero_input(self):
        f = SpaceTimeCoeffs.zeros(4, tau_max=64.0, dtau=0.5)
        assert time_localization_check(f, 1.0, -0.49, 2.1) == 0.0

    def test_ratio_stable_across_T(self):
        f = free_curve_profile(8)
        ratios = [
            time_localization_check(f, 2.0**-k, -0.49, 2.1) for k in range(0, 7)
        ]
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        assert max(ratios) / min(ratios) < 4.0


def free_curve_profile(N):
    f = SpaceTimeCoeffs.zeros(N)
    p = 2.1
    ns = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    for i, n in enumerate(ns):
        j = int(np.floor(np.log2(abs(n))))
        amp = 2.0 ** (-j / p) * f.dtau ** (-1 / p)
        f.values[i, f.col(float(n**3))] = amp
    return f


def two_sided_time_localization(f, T, s, p):
    """time_localization_check with the kernel evaluated on all 2L-1 offsets."""
    den = T ** (1.0 / p) * bourgain_norm(f, s, 0.5, p)
    L = f.L
    diffs = (np.arange(2 * L - 1) - (L - 1)) * f.dtau
    ker = (2.0 * T / (2.0 * np.pi)) * bump_transform(2.0 * T * diffs)
    conv = fftconvolve(f.values, ker[None, :], mode="full", axes=1)[:, L - 1 : 2 * L - 1]
    loc = SpaceTimeCoeffs(f.N, f.tau_max, f.dtau, conv * f.dtau)
    return bourgain_norm(loc, s, 0.0, p) / den
