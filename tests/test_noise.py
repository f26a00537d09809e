"""White-noise sampling, density, tail, and decay statistic tests."""
import math
import multiprocessing
import os
import signal
import tracemalloc
from concurrent.futures import BrokenExecutor

import numpy as np
import oracles
import pytest

from kdvnoise import noise
from kdvnoise.noise import (
    GaussianSampleSpec,
    _wilson,
    decay_median_curve,
    decay_ratio,
    fit_log_tail,
    log_density_unnormalized,
    sample,
    sample_batch,
    tail_sweep,
)
from kdvnoise.spectral import FourierField, NormSpec, besov_norm_batch, l2_mass

INF = math.inf


class TestSample:
    def test_determinism(self):
        a = sample(GaussianSampleSpec(8, 42, 0))
        b = sample(GaussianSampleSpec(8, 42, 0))
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_streams_differ(self):
        a = sample(GaussianSampleSpec(8, 42, 0))
        b = sample(GaussianSampleSpec(8, 42, 1))
        assert not np.array_equal(a.coeffs, b.coeffs)

    def test_seeds_differ(self):
        a = sample(GaussianSampleSpec(8, 42, 0))
        b = sample(GaussianSampleSpec(8, 43, 0))
        assert not np.array_equal(a.coeffs, b.coeffs)

    def test_hermitian(self):
        f = sample(GaussianSampleSpec(4, 7, 0))
        for n in range(1, 5):
            assert f.coeff(-n) == np.conj(f.coeff(n))

    def test_batch_matches_per_stream(self):
        batch = sample_batch(6, 5, 99, stream_start=0)
        assert batch.shape == (5, 6)
        for i in range(5):
            one = sample(GaussianSampleSpec(6, 99, i))
            assert np.array_equal(batch[i], one.coeffs)

    def test_component_variance(self):
        # Re and Im of each mode are standard normal under the sampling density
        batch = sample_batch(4, 20000, 5)
        for part in (batch.real, batch.imag):
            v = np.var(part, axis=0, ddof=1)
            # sd of a variance estimate of N(0,1) over n samples is ~ sqrt(2/n)
            tol = 3.0 * math.sqrt(2.0 / 20000)
            assert np.all(np.abs(v - 1.0) < tol)

    def test_mode_independence(self):
        batch = sample_batch(4, 20000, 6)
        c = batch[:, 0] * np.conj(batch[:, 2])
        se = 2.0 / math.sqrt(20000)
        assert abs(np.mean(c.real)) < 3 * se
        assert abs(np.mean(c.imag)) < 3 * se

    def test_l2_mass_expectation(self):
        # two-sided sum: each of N modes contributes E|a|^2 = 2 twice
        N, count = 8, 20000
        batch = sample_batch(N, count, 11)
        masses = 2.0 * np.sum(np.abs(batch) ** 2, axis=1)
        # var of each one-sided |a|^2 is 4, so var(l2) = 16 N
        se = math.sqrt(16.0 * N / count)
        assert abs(np.mean(masses) - 4.0 * N) < 3 * se


class TestStreamExactness:
    """sample_batch against per-row SeedSequence construction, byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64, 2**70])
    @pytest.mark.parametrize("stream_start", [0, 7, 2**32 - 3])
    def test_seeds_and_stream_starts(self, seed, stream_start):
        # six rows from 2^32-3 cross from one-word to two-word streams; with
        # seed 2^70 (three words) the entropy then outgrows the pool of four
        got = sample_batch(5, 6, seed, stream_start)
        assert got.tobytes() == oracles.gaussian_rows(5, 6, seed, stream_start).tobytes()

    @pytest.mark.parametrize("seed,stream_start", [(0, 0), (2**70, 2**32 - 3)])
    @pytest.mark.parametrize("count", [0, 1, 513, 1100])
    @pytest.mark.parametrize("N", [1, 5, 256])
    def test_counts_and_cutoffs(self, N, count, seed, stream_start):
        got = sample_batch(N, count, seed, stream_start)
        assert got.shape == (count, N)
        assert got.tobytes() == oracles.gaussian_rows(N, count, seed, stream_start).tobytes()

    @pytest.mark.parametrize("N,seed,stream", [(1, 0, 0), (5, 2**64, 7), (256, 3, 2**32 - 1)])
    def test_sample_is_the_stream_row(self, N, seed, stream):
        f = sample(GaussianSampleSpec(N, seed, stream))
        assert f.coeffs.tobytes() == oracles.gaussian_rows(N, 1, seed, stream)[0].tobytes()

    @pytest.mark.parametrize("M", [1, 16, 1024])
    def test_decay_ratio_is_the_stream_m_row(self, M):
        mags = np.abs(oracles.gaussian_rows(M, 1, 9, M)[0]) ** 2
        assert decay_ratio(M, 0.3, 9) == float(M**0.7 * mags.max() / mags.sum())

    @pytest.mark.parametrize("seed0", [0, 2**32 - 3, 2**64 - 2])
    def test_seed_range_rows(self, seed0):
        # the decay curve's path: seeds seed0.. at one stream, hashed in one
        # pass per piece; five seeds from 2^32-3 or 2^64-2 gain a word
        N, count, stream = 5, 5, 64
        out = np.empty((count, N), dtype=complex)
        for _ in noise._sample_blocks(N, count, seed0, stream, out, step_seed=True):
            pass
        want = np.concatenate(
            [oracles.gaussian_rows(N, 1, seed0 + k, stream) for k in range(count)]
        )
        assert out.tobytes() == want.tobytes()

    def test_negative_seed_or_stream(self):
        with pytest.raises(ValueError):
            sample_batch(4, 1, -1)
        with pytest.raises(ValueError):
            sample_batch(4, 1, 0, stream_start=-1)

    def test_peak_memory_is_the_output(self):
        # no full-size scratch: the peak stays within 25% of the 20.5 MB output
        tracemalloc.start()
        try:
            out = sample_batch(256, 5000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == 256 * 5000 * 16
        assert peak < 1.25 * out.nbytes


class TestArgumentErrors:
    def test_sample_batch_needs_a_cutoff(self):
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            sample_batch(0, 3, 0)

    def test_sample_batch_negative_count(self):
        with pytest.raises(ValueError, match="count must be an integer >= 0"):
            sample_batch(4, -1, 0)

    def test_tail_sweep_needs_samples(self):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            tail_sweep(NormSpec(-0.49, 2.1, INF), 8, [1.0], 0, 1)

    def test_tail_sweep_needs_a_cutoff(self):
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            tail_sweep(NormSpec(-0.49, 2.1, INF), 0, [1.0], 10, 1)

    @pytest.mark.parametrize(
        "call, name",
        [
            # the first two raised numpy's TypeError
            (lambda: tail_sweep(NormSpec(-0.49, 2.1, INF), 8, [1.0], 100.0, 1), "samples"),
            (lambda: tail_sweep(NormSpec(-0.49, 2.1, INF), 8.0, [1.0], 100, 1), "N"),
            (lambda: sample_batch(4, 3.0, 0), "count"),
            (lambda: sample_batch(4, 3, 0.5), "seed"),
            (lambda: decay_median_curve([4], 0.2, 2.0), "n_seeds"),
            # these raised TypeError from the power-of-two test
            pytest.param(lambda: decay_median_curve([8.0], 0.2, 2), "M", id="curve-M"),
            pytest.param(lambda: decay_ratio(8.0, 0.2, 1), "M", id="ratio-M"),
            pytest.param(lambda: decay_median_curve([4], 0.2, 2, seed0=0.5), "seed", id="curve-seed"),
            pytest.param(lambda: sample_batch(4, 3, 0, stream_start=1.0), "stream", id="stream"),
            # accepted, and failed only later in sample_batch
            pytest.param(lambda: GaussianSampleSpec(8.5, 1), "N", id="spec-N"),
            pytest.param(lambda: GaussianSampleSpec(8, 1.5), "seed", id="spec-seed"),
            pytest.param(lambda: GaussianSampleSpec(8, 1, 2.0), "stream", id="spec-stream"),
            pytest.param(lambda: GaussianSampleSpec(0, 1), "N", id="spec-N-below-1"),
            pytest.param(lambda: GaussianSampleSpec(8, -1), "seed", id="spec-seed-below-0"),
        ],
    )
    def test_sizes_must_be_integers(self, call, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call()

    def test_numpy_integer_sizes_accepted(self):
        spec = NormSpec(-0.49, 2.1, INF)
        rows = tail_sweep(spec, np.int64(8), [1.0], np.int64(100), np.int64(1))
        assert rows == tail_sweep(spec, 8, [1.0], 100, 1)
        assert type(rows[0]["samples"]) is int
        got = sample_batch(np.int64(4), np.int64(3), np.int64(0))
        assert got.tobytes() == sample_batch(4, 3, 0).tobytes()
        want = sample(GaussianSampleSpec(8, 42, 1)).coeffs.tobytes()
        spec = GaussianSampleSpec(np.int64(8), np.int64(42), np.int64(1))
        assert sample(spec).coeffs.tobytes() == want
        curve = decay_median_curve([np.int64(8)], 0.2, np.int64(3), np.int64(2))
        assert curve == decay_median_curve([8], 0.2, 3, 2)
        assert decay_ratio(np.int64(8), 0.2, np.int64(1)) == decay_ratio(8, 0.2, 1)


class TestTailStream:
    """tail_sweep norms the sampling loop's blocks as they are drawn."""

    @pytest.mark.parametrize("q", [2.0, INF])
    @pytest.mark.parametrize("samples", [1, 511, 512, 513, 1100])
    @pytest.mark.parametrize("N", [1, 5, 256])
    def test_norms_equal_the_whole_batch(self, N, samples, q):
        # counts above every whole-batch norm and above the float just below
        # it pin down how many streamed norms equal each value, bit for bit
        spec = NormSpec(-0.49, 2.1, q)
        norms = np.sort(besov_norm_batch(sample_batch(N, samples, 17), spec))
        Ks = np.concatenate([norms, np.nextafter(norms, -INF)])
        rows = tail_sweep(spec, N, Ks, samples, 17)
        assert [r["count"] for r in rows] == [int(np.sum(norms > K)) for K in Ks]

    def test_peak_memory_does_not_grow_with_samples(self, split):
        # the whole sweep in one process: a worker norms its range the same way
        split(1)
        spec = NormSpec(-0.49, 2.1, INF)
        tail_sweep(spec, 256, [2.0], 10, 0)  # one-time allocations of a first call
        peaks = {}
        for samples in (2000, 20000):
            tracemalloc.start()
            try:
                tail_sweep(spec, 256, np.arange(1.8, 3.31, 0.2), samples, 0)
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20000] <= 1.1 * peaks[2000]
        assert peaks[20000] < 8e6

    def test_peak_memory_does_not_grow_with_the_cutoff(self, split):
        # blocks hold at most 2^17 values, two rows at N = 2^16
        split(1)
        tracemalloc.start()
        try:
            tail_sweep(NormSpec(-0.49, 2.1, INF), 2**16, [2.0], 64, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def whole_batch_norms(spec, N, samples, seed):
    """Sorted norms of streams 0..samples-1, sampled and normed 64 rows at a time."""
    return np.sort(np.concatenate([
        besov_norm_batch(sample_batch(N, min(64, samples - lo), seed, lo), spec)
        for lo in range(0, samples, 64)
    ]))


class TestTailSplit:
    """tail_sweep's stream ranges on the shared worker pool."""

    SPEC = NormSpec(-0.49, 2.1, INF)

    @pytest.mark.parametrize("samples", [1, 512, 513, 1100, 5000])
    @pytest.mark.parametrize("N", [1, 5, 256, 2**14])
    def test_counts_independent_of_processes(self, split, N, samples):
        # Ks at every norm and the float below it: equal counts mean equal
        # norms, bit for bit, whichever process drew and normed each row
        norms = whole_batch_norms(self.SPEC, N, samples, 23)
        Ks = np.concatenate([norms, np.nextafter(norms, -INF)])
        want = (samples - np.searchsorted(norms, Ks, side="right")).tolist()
        for n in (1, 2, 3, None):
            split(n)
            rows = tail_sweep(self.SPEC, N, Ks, samples, 23)
            assert [r["count"] for r in rows] == want, n

    @pytest.mark.parametrize("N, samples", [(256, 512), (2**14, 8)])
    def test_one_block_starts_no_process(self, split, fresh_pool, N, samples):
        for n in (None, 3):
            split(n)
            tail_sweep(self.SPEC, N, [1.0], samples, 24)
        assert multiprocessing.active_children() == []

    def test_caller_peak_does_not_grow_with_samples(self, split, fresh_pool):
        # the caller holds its own blocks and every range's norms; the pool
        # and the process machinery's import come before the traced sweeps
        split(2)
        tail_sweep(self.SPEC, 256, [2.0], 1100, 0)
        peaks = {}
        for samples in (2000, 20000):
            tracemalloc.start()
            try:
                tail_sweep(self.SPEC, 256, np.arange(1.8, 3.31, 0.2), samples, 0)
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20000] <= 1.1 * peaks[2000]
        assert peaks[20000] < 8e6

    def test_dead_worker_fails_the_next_sweep(self, split, fresh_pool):
        split(2)
        want = tail_sweep(self.SPEC, 256, [1.5, 2.0], 1100, 25)
        (pid,) = [p.pid for p in multiprocessing.active_children()]
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(BrokenExecutor):
            tail_sweep(self.SPEC, 256, [1.5, 2.0], 1100, 25)
        assert tail_sweep(self.SPEC, 256, [1.5, 2.0], 1100, 25) == want
        (new,) = [p.pid for p in multiprocessing.active_children()]
        assert new != pid

    def test_overflowing_norm_leaves_the_pool_working(self, split, fresh_pool):
        # the caller's range raises while the worker's range may still run;
        # the next sweep gets the pool's one worker back
        split(2)
        with pytest.raises(ValueError, match=r"s=100, p=2\.1"):
            tail_sweep(NormSpec(100, 2.1, INF), 256, [1.0], 1100, 26)
        got = tail_sweep(self.SPEC, 256, [1.5, 2.0], 1100, 26)
        assert len(multiprocessing.active_children()) == 1
        split(1)
        assert got == tail_sweep(self.SPEC, 256, [1.5, 2.0], 1100, 26)

    def test_worker_error_reaches_the_caller(self, monkeypatch, split, fresh_pool):
        # the pool forks after the patch, so only the worker's range fails
        caller, norm_rows = os.getpid(), noise._besov_norm_rows

        def in_caller_only(block, spec, weighted):
            if os.getpid() != caller:
                raise ValueError("a worker's norm failed")
            return norm_rows(block, spec, weighted)

        monkeypatch.setattr(noise, "_besov_norm_rows", in_caller_only)
        split(2)
        with pytest.raises(ValueError, match="a worker's norm failed"):
            tail_sweep(self.SPEC, 256, [1.0], 1100, 27)


class TestLogDensity:
    def test_zero(self):
        assert log_density_unnormalized(FourierField.zeros(4)) == 0.0

    def test_single_pair(self):
        a = 1.5 - 0.5j
        f = FourierField.from_pairs(3, {1: a})
        assert log_density_unnormalized(f) == pytest.approx(-abs(a) ** 2 / 2)

    def test_matches_l2_mass(self):
        f = sample(GaussianSampleSpec(16, 3, 0))
        assert log_density_unnormalized(f) == pytest.approx(-l2_mass(f) / 4.0, rel=1e-13)


class TestTails:
    def test_k_zero(self):
        (row,) = tail_sweep(NormSpec(-0.49, 2.1, INF), 8, [0.0], 200, 1)
        assert row["estimate"] == 1.0

    def test_k_huge(self):
        (row,) = tail_sweep(NormSpec(-0.49, 2.1, INF), 16, [1e6], 200, 1)
        assert row["estimate"] == 0.0

    def test_stderr_formula(self):
        (row,) = tail_sweep(NormSpec(-0.49, 2.1, INF), 8, [2.0], 500, 2)
        est = row["estimate"]
        assert row["stderr"] == pytest.approx(math.sqrt(est * (1 - est) / 500))

    def test_sweep_rows(self):
        rows = tail_sweep(NormSpec(-0.49, 2.1, INF), 16, [1.0, 2.0, 50.0], 400, 3)
        assert [r["K"] for r in rows] == [1.0, 2.0, 50.0]
        for r in rows:
            assert 0.0 <= r["wilson_low"] <= r["estimate"] + 1e-15
            assert r["estimate"] <= r["wilson_high"] <= 1.0
        assert rows[-1]["censored"]  # no sample exceeds K=50
        assert not rows[0]["censored"]

    def test_wilson_endpoints_exact(self):
        for n in (5, 5000, 10**5):
            lo, hi = _wilson(0, n)
            assert lo == 0.0 and 0.0 < hi < 1.0
            lo, hi = _wilson(n, n)
            assert hi == 1.0 and 0.0 < lo < 1.0

    def test_fit_slope_negative(self):
        spec = NormSpec(-0.49, 2.1, INF)
        rows = tail_sweep(spec, 16, np.arange(1.6, 3.0, 0.2), 20000, 4)
        fit = fit_log_tail(rows)
        assert fit["slope"] < 0
        assert fit["n_points"] >= 3

    def test_fit_needs_points(self):
        rows = tail_sweep(NormSpec(-0.49, 2.1, INF), 8, [40.0, 50.0], 100, 5)
        with pytest.raises(ValueError):
            fit_log_tail(rows)

    @pytest.mark.parametrize("Ks", [[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])
    def test_fit_needs_two_distinct_k(self, Ks):
        # three uncensored rows at one K^2 divided by sxx = 0: NaN slope and CI
        rows = tail_sweep(NormSpec(-0.49, 2.1, INF), 8, Ks, 100, 5)
        assert not any(r["censored"] for r in rows)
        with pytest.raises(ValueError, match="at least 2 distinct K"):
            fit_log_tail(rows)

    def test_fit_needs_finite_k(self):
        rows = tail_sweep(NormSpec(-0.49, 2.1, INF), 8, [0.5, 1.0, 1.5], 100, 5)
        rows[0] = rows[0] | {"K": -INF}
        with pytest.raises(ValueError, match="finite K"):
            fit_log_tail(rows)

    @pytest.mark.parametrize("K", [math.nan, INF, -INF])
    def test_sweep_needs_finite_k(self, K):
        # K = nan gave a censored row with K = nan
        with pytest.raises(ValueError, match="every K must be finite"):
            tail_sweep(NormSpec(-0.49, 2.1, INF), 8, [1.0, K], 10, 1)


class TestDecayRatio:
    def test_single_element_block(self):
        # block at M=1 is {1}; max equals sum
        assert decay_ratio(1, 0.3, 7) == 1.0

    def test_delta_one_bounded(self):
        for seed in range(10):
            assert decay_ratio(64, 1.0, seed) <= 1.0

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            decay_ratio(12, 0.5, 1)
        with pytest.raises(ValueError):
            decay_ratio(0, 0.5, 1)

    def test_determinism(self):
        assert decay_ratio(16, 0.5, 3) == decay_ratio(16, 0.5, 3)

    @pytest.mark.parametrize("seed0", [0, 2**32 - 2])
    def test_median_curve_is_median_of_ratios(self, seed0):
        # bit for bit; at M = 2^13 and 2^17 the 20 seeds take several draw
        # blocks, at 2^17 one row each
        Ms = [1, 2, 64, 2**13, 2**17]
        want = [float(np.median([decay_ratio(M, 0.2, seed0 + k) for k in range(20)])) for M in Ms]
        assert decay_median_curve(Ms, 0.2, 20, seed0) == want
        with pytest.raises(ValueError):
            decay_median_curve([4, 12], 0.2, 20)
        with pytest.raises(ValueError):
            decay_median_curve([4], 0.2, 20, seed0=-1)

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_median_curve_needs_a_seed(self, n_seeds):
        # n_seeds = 0 gave [nan] and numpy's "Mean of empty slice" warning
        with pytest.raises(ValueError, match="n_seeds must be an integer >= 1"):
            decay_median_curve([4], 0.2, n_seeds)

    def test_median_curve_blocks_bounded_in_values(self):
        # at M = 2^16 a block holds two rows, so five seeds take three blocks
        M, seed0 = 2**16, 2**32 - 2
        vals = []
        for k in range(5):
            mags = np.abs(oracles.gaussian_rows(M, 1, seed0 + k, M)[0]) ** 2
            vals.append(float(M**0.8 * mags.max() / mags.sum()))
        assert decay_median_curve([M], 0.2, 5, seed0) == [float(np.median(vals))]

    def test_median_curve_decreasing_from_threshold(self):
        # at delta=0.5 the max-to-sum statistic's median falls steadily once
        # blocks are past the ~e^{1/delta} turnover
        Ms = [2**4, 2**6, 2**8, 2**10, 2**12]
        med = decay_median_curve(Ms, 0.5, 200, seed0=0)
        assert all(a > b for a, b in zip(med, med[1:]))
