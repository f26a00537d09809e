"""Integrator, conservation, and volume-preservation tests.

Step sizes here were chosen by convergence probing. The binding limit is the
fastest resonant phase, not advection: IF-RK4 resolves the flow when the step
resonance number dt * 3N^3/4 is of order 1 or below (N=64 white noise
self-converges at 0.19 and blows up at 49, although 2.5e-4 lies below the
advective bound 2.8/(N max|u|)). The steps below have resonance numbers from
0.08 to 4.9, the largest in the short N=32 Richardson run, except the 8-step
comparisons with the naive IF-RK4 formula, which check arithmetic, not
resolution, and reach 12.6 at N=65; the blowup check uses 197. The l2 drift
of the scheme scales like dt^4 per unit time.
"""
import copy
import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import numpy as np
import pytest

import oracles
import kdvnoise
from kdvnoise import flow
from kdvnoise.flow import (
    FDProbeError,
    FlowConfig,
    IntegratorBlowupError,
    airy_propagate,
    conservation_report,
    conservation_rows,
    evolve,
    evolve_batch,
    evolve_checkpoints,
    liouville_logdet,
    nonlinear_term,
    step,
)
from kdvnoise.noise import GaussianSampleSpec, sample, sample_batch
from kdvnoise.pool import _close_pool
from kdvnoise.spectral import FourierField, _dealias_length, hamiltonian, l2_mass


def wn(N, seed, stream=0):
    return sample(GaussianSampleSpec(N, seed, stream))


# one cutoff on each side of the quadratic term's route threshold, with a
# step whose resonance number dt * 3N^3/4 is below 1; 1100 rows are three
# 512-row chunks and 513 rows two, the second of one row
DENSE, FFT = flow._DENSE_MAX_N, flow._DENSE_MAX_N + 1
ROUTE_CASES = [
    pytest.param(16, 2.0**-12, 1100, id="dense"),
    pytest.param(DENSE, 2.0**-18, 513, id="dense-64"),
    pytest.param(FFT, 2.0**-18, 1100, id="fft"),
]
ROUTES = pytest.mark.parametrize("N, dt, count", ROUTE_CASES)


class TestFlowConfig:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            FlowConfig(dt=0.0, T=1.0)

    def test_rejects_fractional_step_count(self):
        with pytest.raises(ValueError):
            FlowConfig(dt=0.3, T=1.0)

    def test_rejects_step_count_beyond_float(self):
        # T / dt is infinite; rounding it raised OverflowError
        with pytest.raises(ValueError, match="not an integer multiple"):
            FlowConfig(dt=1e-320, T=1.0)

    def test_step_count(self):
        cfg = FlowConfig(dt=0.25, T=1.0)
        assert cfg.steps == 4
        assert FlowConfig(dt=0.25, T=-1.0).steps == 4

    @pytest.mark.parametrize("dt, T", [(1e-12, 1.5e-12), (1e-320, 1e-310)])
    def test_tolerance_follows_the_step(self, dt, T):
        # the tolerance 1e-9 max(1, |T|) was absolute below |T| = 1: these
        # ran 2 steps, ending at 2e-12, and 10000111329 steps
        with pytest.raises(ValueError, match="not an integer multiple"):
            FlowConfig(dt=dt, T=T)

    @pytest.mark.parametrize("T, dt, steps", [
        (0.3, 0.01, 30), (1.0, 2.5e-4, 4000), (2.0**-6, 2.0**-18, 4096), (100.0, 1e-9, 10**11),
    ])
    def test_rounded_step_multiples_accepted(self, T, dt, steps):
        assert FlowConfig(dt=dt, T=T).steps == steps
        assert FlowConfig(dt=dt, T=-T).steps == steps

    @pytest.mark.parametrize("dt", [1e-20, 2.0**-60])
    def test_rejects_more_steps_than_stay_exact(self, dt):
        # exact step multiples of 10^20 and 2^60 steps: runs that cannot end,
        # whose step count and segment starts are no longer exact
        with pytest.raises(ValueError, match=r"more than 2\*\*53"):
            FlowConfig(dt=dt, T=1.0)
        with pytest.raises(ValueError, match=r"more than 2\*\*53"):
            FlowConfig(dt=dt, T=-1.0)

    @pytest.mark.parametrize("dt, steps", [(2.0**-40, 2**40), (2.0**-53, 2**53)])
    def test_exact_step_counts_accepted(self, dt, steps):
        assert FlowConfig(dt=dt, T=1.0).steps == steps


class TestNonlinearTerm:
    def test_single_pair(self):
        # u = 2a cos(x): quadratic term feeds mode 2 with -i a^2
        a = 0.7
        f = FourierField.from_pairs(2, {1: a})
        h = nonlinear_term(f)
        assert h.coeff(2) == pytest.approx(-1j * a * a, rel=1e-14)
        assert h.coeff(1) == 0

    def test_zero(self):
        h = nonlinear_term(FourierField.zeros(8))
        assert np.all(h.coeffs == 0)

    def test_pseudospectral_oracle(self):
        f = wn(16, 77)
        expect = oracles.nonlinear_pseudospectral(f.coeffs)
        got = nonlinear_term(f).coeffs
        assert np.max(np.abs(got - expect)) / np.max(np.abs(expect)) < 1e-11

    @pytest.mark.parametrize("N", [5, 9, 10, 11, 12, 21, DENSE, FFT, 85])
    def test_pseudospectral_oracle_at_alias_edge(self, N):
        # the route's grid has M = 3N + gap points: the dense grid is the
        # first multiple of 4 above 3N, so N = 9..12 leave gaps 1..4, and
        # the FFT grid is the power of two above 3N; at gap 1 one point
        # fewer would alias mode -2N onto N
        gap = {5: 1, 9: 1, 10: 2, 11: 3, 12: 4, 21: 1, DENSE: 4, FFT: 61, 85: 1}
        assert flow._Kernels(N, [], []).M - 3 * N == gap[N]
        f = wn(N, 79)
        expect = oracles.nonlinear_pseudospectral(f.coeffs)
        got = nonlinear_term(f).coeffs
        assert np.max(np.abs(got - expect)) / np.max(np.abs(expect)) < 1e-11

    @pytest.mark.parametrize("count", [1, 512, 513])
    @pytest.mark.parametrize("N", [1, 2, 21, 22, 42, 43, DENSE, FFT])
    def test_dense_route_matches_fft_route(self, N, count):
        # the dense kernel on its grid of 4 floor(3N/4) + 4 points against
        # the FFT kernel on the power of two above 3N, with no phase and
        # with a generic one folded in; at N=1 the term vanishes, so the
        # bound there is absolute (the rows have unit variance)
        rows = sample_batch(N, count, 81).view(np.float64)
        for ph in (np.ones(N, dtype=complex), flow._airy_phase(N, 0.37)):
            M = _dealias_length(N)
            buf = np.zeros((count, M // 2 + 1), dtype=complex)
            tables = flow._fft_tables(N, M, ph, 1.0)
            want = flow._fft_rows(rows, np.empty_like(rows), tables, buf).view(complex)
            M = flow._dense_length(N)
            tables = flow._dense_tables(N, M, ph, 1.0)
            got = flow._dense_rows(rows, np.empty_like(rows), tables, np.empty((count, M)))
            got = got.view(complex)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)

    @pytest.mark.parametrize("N", [16, DENSE, FFT])
    def test_stage_kernels_are_quadratic_forms(self, N):
        # G_c(x+y) + G_c(x-y) = 2 G_c(x) + 2 G_c(y) for each stage kernel,
        # the identity that carries a tangent vector through a stage
        x, y = sample_batch(N, 8, 82), sample_batch(N, 8, 83)
        rows = np.concatenate([x + y, x - y, x, y]).view(np.float64)
        for G in flow._stage_kernels(N, 2.0**-14).bind(len(rows)):
            g = G(rows, np.empty_like(rows)).view(complex).reshape(4, 8, N)
            rhs = 2.0 * g[2] + 2.0 * g[3]
            assert np.max(np.abs(g[0] + g[1] - rhs)) <= 1e-13 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("N", [8, 16, DENSE, FFT])
    def test_dot_keeps_matmul_bytes(self, monkeypatch, N):
        # the flow's products go through np.dot for its lower dispatch cost;
        # one step at one row up to a full chunk equals the same step with
        # np.matmul in its place, byte for byte
        kernels = flow._stage_kernels(N, 2.0**-18)
        for count in (1, 32, flow._CHUNK_ROWS):
            rows = sample_batch(N, count, 84)
            got = flow._rk4_chunk(rows, kernels, 2.0**-18, 1, 0.0, 0).copy()
            with monkeypatch.context() as m:
                m.setattr(np, "dot", np.matmul)
                want = flow._rk4_chunk(rows, kernels, 2.0**-18, 1, 0.0, 0)
            assert got.tobytes() == want.tobytes()

    def test_hermitian(self):
        f = wn(8, 78)
        h = nonlinear_term(f)
        for n in range(1, 9):
            assert h.coeff(-n) == np.conj(h.coeff(n))


class TestAiry:
    def test_identity_at_zero(self):
        f = wn(8, 1)
        g = airy_propagate(f, 0.0)
        assert np.array_equal(f.coeffs, g.coeffs)

    def test_modulus_preserved(self):
        f = wn(8, 2)
        g = airy_propagate(f, 0.37)
        assert np.max(np.abs(np.abs(g.coeffs) - np.abs(f.coeffs))) < 1e-14

    def test_group_property(self):
        f = wn(8, 3)
        g = airy_propagate(airy_propagate(f, 0.61), -0.61)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-14


class TestStep:
    def test_zero_fixed_point(self):
        g = step(FourierField.zeros(8), 1e-3)
        assert np.all(g.coeffs == 0)

    @pytest.mark.parametrize("N", [8, 16, 43, DENSE, FFT])
    def test_matches_naive_if_rk4(self, N):
        # the stage arithmetic against the formula written apart from src/
        dt = 2.0**-14
        rows = np.stack([wn(N, 7, k).coeffs for k in range(3)])
        want = oracles.if_rk4_step(rows[0], dt)
        got = step(FourierField(N, rows[0]), dt).coeffs
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        want = rows
        for _ in range(8):
            want = np.stack([oracles.if_rk4_step(r, dt) for r in want])
        got = evolve_batch(rows, FlowConfig(dt=dt, T=8 * dt))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite_dt(self, dt):
        with pytest.raises(ValueError, match="dt"):
            step(wn(8, 7), dt)

    def test_zero_and_negative_dt(self):
        f = wn(8, 7)
        assert np.array_equal(step(f, 0.0).coeffs, f.coeffs)
        back = evolve(f, FlowConfig(dt=1e-3, T=-1e-3))[-1][1]
        assert np.array_equal(step(f, -1e-3).coeffs, back.coeffs)

    @pytest.mark.parametrize("N", [16, FFT])
    def test_zero_step_keeps_bytes_and_steps_reverse(self, N):
        # the RK4 weights live in the tables, so dt = 0 zeroes them and the
        # state passes through bit for bit; a step and its reverse return
        # to the start up to the scheme's O(h^5) local error (resonance
        # number h * 3N^3/4 about 0.2 at both cutoffs)
        f = wn(N, 7)
        assert step(f, 0.0).coeffs.tobytes() == f.coeffs.tobytes()
        h = 2.0**-14 if N <= 16 else 2.0**-20
        back = step(step(f, h), -h).coeffs
        assert np.linalg.norm(back - f.coeffs) <= 1e-10 * np.linalg.norm(f.coeffs)

    def test_richardson_order4(self):
        # self-convergence at a stable configuration
        f = wn(32, 5)
        dt = 2e-4
        T = 0.1
        ref = evolve(f, FlowConfig(dt=dt / 4, T=T))[-1][1]
        e1 = evolve(f, FlowConfig(dt=dt, T=T))[-1][1]
        e2 = evolve(f, FlowConfig(dt=dt / 2, T=T))[-1][1]
        err1 = np.linalg.norm(e1.coeffs - ref.coeffs)
        err2 = np.linalg.norm(e2.coeffs - ref.coeffs)
        # err(dt)/err(dt/2) with the dt/4 reference: 16*(1-1/16)/(1-...) ~ 17 for
        # a clean order-4 scheme; accept the bracket the criterion uses
        assert 12.0 < err1 / err2 < 20.0

    def test_blowup_detected(self):
        f = wn(64, 6)
        with pytest.raises(IntegratorBlowupError):
            evolve(f, FlowConfig(dt=1e-3, T=1.0))

    def test_blowup_names_absolute_member(self):
        # one wild member in the second 512-row chunk; it blows up at once
        coeffs = np.zeros((600, 8), dtype=complex)
        coeffs[550] = 100.0 * wn(8, 6).coeffs
        states = evolve_checkpoints(coeffs, FlowConfig(dt=0.01, T=1.0), [0.5, 1.0], workers=2)
        with pytest.raises(IntegratorBlowupError, match=r"members \[550\]"):
            list(states)

    def test_large_block_below_limit_passes_screen_fallback(self):
        # 512 members at |coeff| = 3e7: the block's sum of squares fails the
        # one-dot screen, and the exact check finds no member above 1e8
        phase = np.exp(2j * np.pi * sample_batch(16, 512, 24).real)
        coeffs = 3e7 * phase
        assert np.sum(np.abs(coeffs) ** 2) > flow._BLOWUP_SCREEN
        out = evolve_batch(coeffs, FlowConfig(dt=1e-12, T=1e-12))
        assert np.all(np.abs(out) < flow._BLOWUP_LIMIT)
        assert np.max(np.abs(np.abs(out) - 3e7)) < 1e-2 * 3e7

    def test_blowup_names_nonfinite_members(self):
        # a NaN and an inf member raise at the first step and are named;
        # the screen's dot is NaN or inf, so the exact check runs
        dt = 0.01
        coeffs = sample_batch(8, 600, 25)
        coeffs[300, 2] = np.nan
        coeffs[550, 5] = np.inf
        with pytest.raises(IntegratorBlowupError, match=r"members \[300, 550\]") as exc:
            evolve_batch(coeffs, FlowConfig(dt=dt, T=1.0), workers=1)
        assert exc.value.members == [300, 550]
        assert exc.value.t == dt

    def test_blowup_survives_pickling_and_copy(self):
        # a worker process's blowup reaches the caller pickled
        exc = IntegratorBlowupError("boom", [3, 5], 0.25)
        for back in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
            assert type(back) is IntegratorBlowupError
            assert str(back) == "boom" and back.members == [3, 5] and back.t == 0.25

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blowup_names_every_chunk(self, workers):
        # wild members in the first and second 512-row chunks, the second
        # tamer so it blows up later; the error keeps both and the earlier t
        cfg = FlowConfig(dt=0.01, T=1.0)
        coeffs = np.zeros((1100, 8), dtype=complex)
        coeffs[10] = 100.0 * wn(8, 6).coeffs
        coeffs[600] = 10.0 * wn(8, 6).coeffs
        times = []
        for row in (10, 600):
            with pytest.raises(IntegratorBlowupError) as alone:
                evolve_batch(coeffs[row : row + 1], cfg)
            times.append(alone.value.t)
        assert times[0] < times[1]
        with pytest.raises(IntegratorBlowupError, match=r"members \[10, 600\]") as exc:
            evolve_batch(coeffs, cfg, workers=workers)
        assert exc.value.members == [10, 600]
        assert exc.value.t == times[0]
        assert f"t~{times[0]:.4g};" in str(exc.value)


class TestWorkersArgument:
    CFG = FlowConfig(dt=0.01, T=0.02)

    @pytest.mark.parametrize("workers", [0, -2, 2.5, "2", np.float64(2.0), [2]])
    def test_bad_workers_refused(self, workers):
        # 0 and -2 ran one process, and 2.5 raised TypeError from range
        coeffs = sample_batch(8, 3, 26)
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            evolve_batch(coeffs, self.CFG, workers=workers)
        # refused before the iterator is returned, as bad times are
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            evolve_checkpoints(coeffs, self.CFG, [0.01], workers=workers)

    def test_numpy_integer_workers(self):
        coeffs = sample_batch(8, 600, 26)
        want = evolve_batch(coeffs, self.CFG, workers=1)
        assert np.array_equal(evolve_batch(coeffs, self.CFG, workers=np.int64(2)), want)


class TestEvolve:
    def test_time_zero(self):
        f = wn(8, 7)
        traj = evolve(f, FlowConfig(dt=1e-3, T=0.0))
        assert len(traj) == 1
        t, g = traj[0]
        assert t == 0.0
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_checkpoints(self):
        f = wn(8, 8)
        cfg = FlowConfig(dt=0.01, T=0.1)
        traj = evolve(f, cfg, checkpoints=[0.0, 0.05, 0.1])
        assert [round(t, 10) for t, _ in traj] == [0.0, 0.05, 0.1]

    def test_reversibility(self):
        f = wn(16, 9)
        fwd = evolve(f, FlowConfig(dt=2.5e-5, T=0.125))[-1][1]
        back = evolve(fwd, FlowConfig(dt=2.5e-5, T=-0.125))[-1][1]
        rel = np.linalg.norm(back.coeffs - f.coeffs) / np.linalg.norm(f.coeffs)
        assert rel < 1e-8

    def test_batch_matches_single(self):
        coeffs = np.stack([wn(8, 10, k).coeffs for k in range(3)])
        cfg = FlowConfig(dt=1e-3, T=0.05)
        out = evolve_batch(coeffs, cfg)
        for k in range(3):
            single = evolve(FourierField(8, coeffs[k]), cfg)[-1][1]
            assert np.max(np.abs(out[k] - single.coeffs)) < 1e-12

    def test_checkpoints_match_uninterrupted(self):
        coeffs = np.stack([wn(8, 12, k).coeffs for k in range(3)])
        cfg = FlowConfig(dt=1e-3, T=0.05)
        states = list(evolve_checkpoints(coeffs, cfg, [0.0, 0.02, 0.05]))
        assert [t for t, _ in states] == [0.0, 0.02, 0.05]
        assert np.array_equal(states[0][1], coeffs)
        assert np.array_equal(states[-1][1], evolve_batch(coeffs, cfg))

    def test_checkpoints_checked_before_running(self):
        cfg = FlowConfig(dt=1e-3, T=0.05)
        coeffs = wn(8, 13).coeffs[None, :]
        for times in ([0.0105], [0.06], [0.02, 0.01]):
            with pytest.raises(ValueError):
                evolve_checkpoints(coeffs, cfg, times)

    # 2100 rows are five chunks: more than one chunk per process at every
    # worker count
    @pytest.mark.parametrize(
        "N, dt, count", [*ROUTE_CASES, pytest.param(16, 2.0**-12, 2100, id="dense-2100")]
    )
    def test_chunked_runs_bit_exact(self, N, dt, count):
        # several 512-row chunks, so workers 2 and 3 run chunks in worker
        # processes, each over its own process's tables; BLAS keeps its
        # default threading
        coeffs = sample_batch(N, count, 14)
        cfg = FlowConfig(dt=dt, T=20 * dt)
        runs = [evolve_batch(coeffs, cfg, workers=w) for w in (1, 2, 3)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])
        states = list(evolve_checkpoints(coeffs, cfg, [5 * dt, 10 * dt, 20 * dt], workers=2))
        assert np.array_equal(states[-1][1], runs[0])

    @ROUTES
    def test_default_workers_bit_exact(self, N, dt, count):
        # the default runs the chunks on every CPU the process may use
        coeffs = sample_batch(N, count, 15)
        cfg = FlowConfig(dt=dt, T=10 * dt)
        assert np.array_equal(evolve_batch(coeffs, cfg), evolve_batch(coeffs, cfg, workers=1))

    @pytest.fixture
    def builds(self, monkeypatch):
        """The cutoff of every _Kernels built while the test runs, from an empty cache."""
        built = []
        init = flow._Kernels.__init__

        def counted(self, N, phases, scales):
            built.append(N)
            init(self, N, phases, scales)

        flow._stage_kernels.cache_clear()
        flow._plain_kernel.cache_clear()
        monkeypatch.setattr(flow._Kernels, "__init__", counted)
        return built

    def test_tables_built_once_per_run(self, builds):
        dt = 2.0**-18
        cfg = FlowConfig(dt=dt, T=8 * dt)
        traj = evolve(wn(DENSE, 20), cfg, checkpoints=[2 * dt, 4 * dt, 6 * dt, 8 * dt])
        assert len(traj) == 4 and builds == [DENSE]
        builds.clear()
        flow._stage_kernels.cache_clear()
        evolve_batch(sample_batch(DENSE, 1100, 21), cfg, workers=2)
        assert builds == [DENSE]
        # the tables outlive the run: a repeated run builds nothing, a new
        # dt builds once, and step and nonlinear_term share the caches
        builds.clear()
        evolve_batch(sample_batch(DENSE, 1100, 21), cfg, workers=2)
        step(wn(DENSE, 20), dt)
        assert builds == []
        evolve_batch(sample_batch(DENSE, 3, 21), FlowConfig(dt=dt / 2, T=4 * dt))
        step(wn(DENSE, 20), dt / 2)
        assert builds == [DENSE]
        nonlinear_term(wn(DENSE, 20))
        nonlinear_term(wn(DENSE, 21))
        assert builds == [DENSE, DENSE]

    @pytest.mark.parametrize("N", [16, FFT])
    def test_cached_tables_are_read_only_and_bounded(self, builds, N):
        kernels = [flow._stage_kernels(N, 2.0**-18), flow._plain_kernel(N)]
        arrays = [arr for ks in kernels for arr in [*ks.phases, *(t for ts in ks.tables for t in ts)]]
        assert len(arrays) == 4 + 2 * 4  # four phase vectors, two tables per kernel
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        bound = flow._TABLE_SETS
        for j in range(bound + 3):
            flow._stage_kernels(N, 2.0 ** -(10 + j))
        info = flow._stage_kernels.cache_info()
        assert info.maxsize == bound and info.currsize == bound

    @pytest.mark.parametrize("N", [8, 16, DENSE, FFT])
    def test_step_arrays_start_on_a_line(self, monkeypatch, N):
        assert line_offsets(monkeypatch, N) == {0}

    def test_lines_do_not_follow_import_history(self):
        # odd-sized arrays allocated before the import move the heap, not
        # the layout
        src = os.path.dirname(os.path.dirname(kdvnoise.__file__))
        path = [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", _LINE_OFFSETS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0]] * 4

    @pytest.mark.parametrize("N", [16, DENSE])
    def test_table_bytes_pinned(self, N):
        # SHA-256 of each stage's (C, D) at dt = 2^-18, as the tables were
        # before they moved onto 64-byte lines; they rest on numpy's cos, sin
        # and complex exp, so another platform's libm may need its own pins
        want = {
            16: ["30cd501e47e53432c3f57cb6aacaabdcbd7f1fd8ef37ac40b783edb82faaf085",
                 "7d1078be4818c057b7ac90613b5dc67821458e3d04a187d2617072d83b646118",
                 "d82c89ae73283dcd7fc8313dfd5c390ce68f217fbbf7be76838df1538ee56b96"],
            DENSE: ["1f9ebcf95bd045a370a27fcdd3e64421b577cc76e22fcbdd64645ff9399231af",
                    "35b995e57e09bab10115fb28d46ba0f806286ab1711e4c2fc5b2faa880266871",
                    "9218a38141fd2e5472b14511f8be099fc5d552e2497efda033e28431d9cb3ed8"],
        }
        tables = flow._stage_kernels(N, 2.0**-18).tables
        assert [hashlib.sha256(C.tobytes() + D.tobytes()).hexdigest() for C, D in tables] == want[N]

    @pytest.mark.parametrize("offset", [16, 32, 48])
    def test_layout_moves_no_byte(self, monkeypatch, offset):
        # the same tables and phases off a line give the same step and
        # 16-row chunk at N=64, byte for byte
        dt = 2.0**-18
        kernels = flow._stage_kernels(DENSE, dt)
        moved = copy.copy(kernels)
        moved.phases = [off_line(ph, offset) for ph in kernels.phases]
        moved.tables = [tuple(off_line(t, offset) for t in ts) for ts in kernels.tables]
        assert {arr.ctypes.data % 64 for ts in moved.tables for arr in ts} == {offset}
        rows = sample_batch(DENSE, 16, 85)
        want = flow._rk4_chunk(rows, kernels, dt, 8, 0.0, 0).copy()
        got = flow._rk4_chunk(rows, moved, dt, 8, 0.0, 0)
        assert got.tobytes() == want.tobytes()
        f = wn(DENSE, 86)
        want = step(f, dt).coeffs
        monkeypatch.setattr(flow, "_stage_kernels", lambda N, h: moved)
        assert step(f, dt).coeffs.tobytes() == want.tobytes()

    def test_cache_shared_by_concurrent_runs(self):
        # six threads on two cores run evolve_batch at two steps through the
        # one table cache, with a short switch interval; each result equals
        # its serial run bit for bit
        dt = 2.0**-12
        rows = sample_batch(16, 40, 26)
        cfgs = [FlowConfig(dt=h, T=4 * h) for h in (dt, dt / 2)] * 3
        want = [evolve_batch(rows, cfg, workers=1) for cfg in cfgs]
        flow._stage_kernels.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(cfgs)) as pool:
                futures = [pool.submit(evolve_batch, rows, cfg, 1) for cfg in cfgs]
                got = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_no_tables_without_a_step(self, builds):
        # a run that takes no step, by T=0 or with every checkpoint at t=0,
        # returns its input bytes and builds no stage tables
        dt = 2.0**-18
        f = wn(DENSE, 22)
        rows = sample_batch(DENSE, 600, 23)
        assert evolve(f, FlowConfig(dt=dt, T=0.0))[0][1].coeffs.tobytes() == f.coeffs.tobytes()
        assert evolve_batch(rows, FlowConfig(dt=dt, T=0.0)).tobytes() == rows.tobytes()
        states = list(evolve_checkpoints(rows, FlowConfig(dt=dt, T=8 * dt), [0.0, 0.0]))
        assert [t for t, _ in states] == [0.0, 0.0]
        assert all(out.tobytes() == rows.tobytes() for _, out in states)
        assert builds == []

    @pytest.mark.parametrize("T", [0.05, 0.0])
    def test_non_finite_checkpoints_rejected(self, T):
        # inf raised OverflowError from rounding t / dt, and at T = 0 a NaN
        # checkpoint was accepted
        cfg = FlowConfig(dt=1e-3, T=T)
        for t in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="not a step multiple"):
                evolve_checkpoints(wn(8, 13).coeffs[None, :], cfg, [t])

    @pytest.mark.parametrize("T", [2e-12, 0.0])
    def test_checkpoint_off_a_small_step_rejected(self, T):
        # 0.4 steps of 1e-12: the tolerance 1e-9 max(1, |T|) read it as step 0
        cfg = FlowConfig(dt=1e-12, T=T)
        with pytest.raises(ValueError, match="not a step multiple"):
            evolve_checkpoints(wn(8, 13).coeffs[None, :], cfg, [0.4e-12, T])

    def test_empty_times_rejected(self):
        f = wn(8, 13)
        cfg = FlowConfig(dt=1e-3, T=0.05)
        with pytest.raises(ValueError, match="times"):
            evolve_checkpoints(f.coeffs[None, :], cfg, [])
        with pytest.raises(ValueError, match="times"):
            evolve(f, cfg, checkpoints=[])

    def test_batch_worker_independence(self):
        coeffs = np.stack([wn(8, 11, k).coeffs for k in range(7)])
        cfg = FlowConfig(dt=1e-3, T=0.05)
        a = evolve_batch(coeffs, cfg, workers=1)
        b = evolve_batch(coeffs, cfg, workers=3)
        assert np.array_equal(a, b)


def line_offsets(monkeypatch, N):
    """The 64-byte offsets of every array a step at cutoff N reads.

    The weight vectors, both kernel caches' phases and tables, their bound
    grid buffers, and each buffer _rk4_chunk takes from _line_empty.
    """
    made = []
    line_empty = flow._line_empty

    def recorded(*args):
        made.append(line_empty(*args))
        return made[-1]

    arrays = [flow._W_K1, flow._W_K2, flow._W_K3, flow._W_STEP]
    kernels = [flow._stage_kernels(N, 2.0**-18), flow._plain_kernel(N)]
    for ks in kernels:
        arrays += [*ks.phases, *(t for ts in ks.tables for t in ts)]
        arrays += [G.keywords["buf"] for count in (1, 3) for G in ks.bind(count)]
    with monkeypatch.context() as m:
        m.setattr(flow, "_line_empty", recorded)
        for count in (1, 3):
            flow._rk4_chunk(sample_batch(N, count, 87), kernels[0], 2.0**-18, 1, 0.0, 0)
    assert len(made) == 2 * 3  # per chunk: grid buffer, stage stack, stage input
    return {arr.ctypes.data % 64 for arr in arrays + made}


def off_line(arr, offset):
    """A copy of arr whose data starts offset bytes past a 64-byte line."""
    raw = np.empty(arr.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start : start + arr.nbytes].view(arr.dtype).reshape(arr.shape)
    out[...] = arr
    return out


# line_offsets at N = 8, 16, 64 and 65, printed as JSON by a fresh
# interpreter that allocates odd-sized arrays before it imports kdvnoise
_LINE_OFFSETS = """
import json
import numpy as np
held = [np.empty(n) for n in (3, 17, 1001)] + [np.empty(n, dtype=np.uint8) for n in (5, 77)]
import pytest
import test_flow
with pytest.MonkeyPatch.context() as m:
    print(json.dumps([sorted(test_flow.line_offsets(m, N)) for N in (8, 16, 64, 65)]))
"""


def worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


class TestWorkerPool:
    CFG = FlowConfig(dt=2.0**-12, T=4 * 2.0**-12)

    def test_runs_share_one_pool(self, fresh_pool, split):
        # a worker for each process a run takes past the caller, forked by the
        # first run that needs it and kept: no fork per run, and a smaller
        # request after a larger one keeps the larger pool and its bytes; the
        # rows are drawn in the caller alone, so the first run finds no pool
        split(1)
        rows = sample_batch(16, 1100, 36)
        want = evolve_batch(rows, self.CFG, workers=1)
        assert worker_pids() == []
        assert np.array_equal(evolve_batch(rows, self.CFG, workers=2), want)
        first = worker_pids()
        assert len(first) == 1
        assert np.array_equal(evolve_batch(rows, self.CFG, workers=2), want)
        assert worker_pids() == first
        assert np.array_equal(evolve_batch(rows, self.CFG, workers=3), want)
        larger = worker_pids()
        assert len(larger) == 2
        assert np.array_equal(evolve_batch(rows, self.CFG, workers=2), want)
        assert np.array_equal(evolve_batch(rows, self.CFG, workers=8), want)
        assert worker_pids() == larger

    def test_concurrent_runs_share_the_pool(self, fresh_pool):
        # six threads on two cores run evolve_batch with 2 and 3 workers at
        # once, with a short switch interval, so a run can grow the pool
        # while others have chunks in it; each result equals its serial run
        rows = [sample_batch(16, 1100, 50 + k) for k in range(6)]
        want = [evolve_batch(r, self.CFG, workers=1) for r in rows]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(rows)) as pool:
                futures = [pool.submit(evolve_batch, r, self.CFG, 2 + k % 2)
                           for k, r in enumerate(rows)]
                got = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert len(worker_pids()) == 2

    def test_run_bounded_by_its_workers(self, run_threads, monkeypatch, split):
        # a 2-worker run of five chunks sends chunks 1 and 3 to one worker
        # as one task, so it takes 2 processes even from the 2-worker pool
        # that a 3-worker run left behind; the rows are drawn in the caller
        # alone, so every worker is forked after the patch below
        split(1)
        rows = sample_batch(16, 2100, 41)
        # a free worker takes any queued task, so a worker that ends its
        # first task before the other starts can take both of the 3-worker
        # run's tasks; each worker's first chunk waits for the other's, so
        # that run's tasks land on both workers
        caller, chunk = os.getpid(), flow._rk4_chunk
        meet, met = multiprocessing.Barrier(2), []

        def gated(*args):
            if os.getpid() != caller and not met:
                met.append(True)
                meet.wait(timeout=60)
            return chunk(*args)

        monkeypatch.setattr(flow, "_rk4_chunk", gated)
        want = evolve_batch(rows, self.CFG, workers=1)
        assert np.array_equal(evolve_batch(rows, self.CFG, workers=3), want)
        assert len(worker_pids()) == 2
        assert len({pid for _, pid, _ in run_threads()}) == 3
        for _ in range(5):
            assert np.array_equal(evolve_batch(rows, self.CFG, workers=2), want)
            chunks = run_threads()
            assert [first for first, _, _ in chunks] == list(range(0, 2100, 512))
            assert len({pid for _, pid, _ in chunks}) == 2

    def test_dead_worker_reported_then_replaced(self, fresh_pool):
        rows = sample_batch(16, 600, 37)
        want = evolve_batch(rows, self.CFG, workers=2)
        (pid,) = worker_pids()
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(BrokenExecutor):
            evolve_batch(rows, self.CFG, workers=2)
        assert np.array_equal(evolve_batch(rows, self.CFG, workers=2), want)
        (new,) = worker_pids()
        assert new != pid

    def test_worker_exits_with_a_killed_caller(self):
        # a caller killed before it can shut its pool down leaves no worker
        script = (
            "import json, multiprocessing, time\n"
            "from kdvnoise.flow import FlowConfig, evolve_batch\n"
            "from kdvnoise import pool\n"
            "from kdvnoise.noise import sample_batch\n"
            "rows = sample_batch(16, 1100, 39)\n"
            "pool._close_pool()  # the draw's workers: the run forks its own\n"
            "evolve_batch(rows, FlowConfig(dt=2.0**-12, T=2.0**-12), workers=2)\n"
            "print(json.dumps([p.pid for p in multiprocessing.active_children()]), flush=True)\n"
            "time.sleep(120)\n"
        )
        src = os.path.dirname(os.path.dirname(kdvnoise.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            (pid,) = json.loads(proc.stdout.readline())
        finally:
            proc.kill()
            proc.communicate(timeout=60)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_no_process_left_after_exit(self):
        script = (
            "import json, multiprocessing\n"
            "from kdvnoise.flow import FlowConfig, evolve_batch\n"
            "from kdvnoise import pool\n"
            "from kdvnoise.noise import sample_batch\n"
            "rows = sample_batch(16, 1100, 38)\n"
            "pool._close_pool()  # the draw's workers: the run forks its own\n"
            "evolve_batch(rows, FlowConfig(dt=2.0**-12, T=2.0**-10), workers=2)\n"
            "print(json.dumps([p.pid for p in multiprocessing.active_children()]))\n"
        )
        src = os.path.dirname(os.path.dirname(kdvnoise.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        pids = json.loads(proc.stdout)
        assert len(pids) == 1
        with pytest.raises(ProcessLookupError):
            os.kill(pids[0], 0)

    def test_workers_exit_with_a_killed_caller_of_three(self):
        # each worker sees EOF once the caller is gone only if the later
        # worker closed its copy of the earlier one's caller end
        script = (
            "import json, multiprocessing, time\n"
            "from kdvnoise.flow import FlowConfig, evolve_batch\n"
            "from kdvnoise import pool\n"
            "from kdvnoise.noise import sample_batch\n"
            "rows = sample_batch(16, 1100, 39)\n"
            "pool._close_pool()  # the draw's workers: the run forks its own\n"
            "evolve_batch(rows, FlowConfig(dt=2.0**-12, T=2.0**-12), workers=3)\n"
            "print(json.dumps([p.pid for p in multiprocessing.active_children()]), flush=True)\n"
            "time.sleep(120)\n"
        )
        src = os.path.dirname(os.path.dirname(kdvnoise.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            pids = json.loads(proc.stdout.readline())
        finally:
            proc.kill()
            proc.communicate(timeout=60)
        assert len(pids) == 2

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        deadline = time.monotonic() + 30
        while any(map(alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(alive, pids))

    def test_runs_start_no_thread(self):
        # the caller writes and reads its workers' pipes itself: a run leaves
        # the thread count as it was and never loads concurrent.futures.process
        script = (
            "import json, multiprocessing, sys, threading\n"
            "from kdvnoise.flow import FlowConfig, evolve_batch\n"
            "from kdvnoise import pool\n"
            "from kdvnoise.noise import sample_batch\n"
            "before = threading.active_count()\n"
            "rows = sample_batch(16, 1100, 43)\n"
            "pool._close_pool()  # the draw's workers: the run forks its own\n"
            "evolve_batch(rows, FlowConfig(dt=2.0**-12, T=2.0**-12), workers=2)\n"
            "print(json.dumps([before, threading.active_count(), len(multiprocessing.active_children()),\n"
            "                  'concurrent.futures.process' in sys.modules]))\n"
        )
        src = os.path.dirname(os.path.dirname(kdvnoise.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after, workers, loaded = json.loads(proc.stdout)
        assert workers == 1
        assert after == before
        assert not loaded


# SHA-256 of evolve_batch on 1100 rows (three chunks) for workers 1 and 2,
# printed as JSON by a fresh interpreter whose BLAS thread count is set
# before numpy loads
_BLAS_DIGESTS = """
import hashlib, json
from kdvnoise.flow import FlowConfig, evolve_batch
from kdvnoise.noise import sample_batch
out = {}
for N in (16, 48, 64, 65):
    dt = 2.0**-12 if N <= 16 else 2.0**-18
    rows = sample_batch(N, 1100, 31)
    for w in (1, 2):
        final = evolve_batch(rows, FlowConfig(dt=dt, T=20 * dt), workers=w)
        out[f"{N}/{w}"] = hashlib.sha256(final.tobytes()).hexdigest()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def blas_digests():
    src = os.path.dirname(os.path.dirname(kdvnoise.__file__))
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _BLAS_DIGESTS], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = json.loads(proc.stdout)
    return runs


@pytest.fixture
def caller_threads():
    """The caller's OpenBLAS thread count, set to 3 for the test and put back after."""
    calls = flow._openblas_threads()
    if calls is None:
        pytest.skip("numpy's bundled OpenBLAS thread control is not available")
    get, put = calls
    saved = get()
    put(3)
    try:
        yield get
    finally:
        put(saved)


@pytest.fixture
def run_threads(monkeypatch, tmp_path, caller_threads, fresh_pool):
    """Take the (first member, pid, OpenBLAS threads) of each chunk run so far.

    Each chunk appends its line to a file as it starts, in the caller or in
    a worker process alike; a take returns the lines since the last take in
    member order.
    """
    path = tmp_path / "chunks"
    chunk = flow._rk4_chunk

    def counted(rows, kernels, dt, nsteps, t0, first):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{first} {os.getpid()} {caller_threads()}\n")
        return chunk(rows, kernels, dt, nsteps, t0, first)

    def take():
        lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        path.unlink(missing_ok=True)
        return sorted(tuple(int(v) for v in line.split()) for line in lines)

    monkeypatch.setattr(flow, "_rk4_chunk", counted)
    return take


class TestBlasThreads:
    @pytest.mark.parametrize("N", [16, 48, 64, 65])
    def test_digest_independent_of_blas_threads(self, blas_digests, N):
        digests = {runs[f"{N}/{w}"] for runs in blas_digests.values() for w in (1, 2)}
        assert len(digests) == 1

    @pytest.mark.parametrize("count", [1100, 2100])
    def test_one_thread_inside_a_run(self, caller_threads, run_threads, count):
        rows = sample_batch(16, count, 32)
        evolve_batch(rows, FlowConfig(dt=2.0**-12, T=4 * 2.0**-12), workers=2)
        chunks = run_threads()
        firsts = range(0, count, 512)
        assert [(first, threads) for first, _, threads in chunks] == [(lo, 1) for lo in firsts]
        # the caller runs the even chunks, 0, 2, ..., and a worker the odd ones
        pids = [pid for _, pid, _ in chunks]
        assert set(pids[0::2]) == {os.getpid()}
        assert os.getpid() not in pids[1::2]
        assert caller_threads() == 3

    def test_restored_after_a_blowup(self, caller_threads):
        coeffs = np.zeros((600, 8), dtype=complex)
        coeffs[550] = 100.0 * wn(8, 6).coeffs
        with pytest.raises(IntegratorBlowupError):
            evolve_batch(coeffs, FlowConfig(dt=0.01, T=1.0), workers=2)
        assert caller_threads() == 3

    def test_restored_when_a_chunk_raises(self, caller_threads, monkeypatch, fresh_pool):
        # an error other than a blowup leaves the run from inside the hold
        def fail(*args):
            raise MemoryError("chunk buffer")

        monkeypatch.setattr(flow, "_rk4_chunk", fail)
        with pytest.raises(MemoryError):
            evolve_batch(sample_batch(8, 600, 34), FlowConfig(dt=0.01, T=0.02), workers=2)
        assert caller_threads() == 3

    def test_restored_after_concurrent_runs(self, caller_threads, run_threads):
        # six overlapping runs; whichever ends last puts the count back
        cfg = FlowConfig(dt=2.0**-12, T=8 * 2.0**-12)
        rows = [sample_batch(16, 600, 40 + k) for k in range(6)]
        want = [evolve_batch(r, cfg, workers=1) for r in rows]
        assert caller_threads() == 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(rows)) as pool:
                futures = [pool.submit(evolve_batch, r, cfg, 1) for r in rows]
                got = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert {threads for _, _, threads in run_threads()} == {1}
        assert caller_threads() == 3

    def test_nested_holds_restore_once(self, caller_threads):
        # the first hold saves the count; it comes back when the last ends,
        # not when the first does
        first, second = flow._one_blas_thread(), flow._one_blas_thread()
        assert first.__enter__() == 1 and caller_threads() == 1
        assert second.__enter__() == 1
        first.__exit__(None, None, None)
        assert caller_threads() == 1
        second.__exit__(None, None, None)
        assert caller_threads() == 3

    def test_without_thread_control(self, monkeypatch, caller_threads, run_threads):
        # the lookup finds nothing: the hold leaves the caller's count alone
        # and says so, and the run's bytes do not change
        rows = sample_batch(16, 600, 33)
        cfg = FlowConfig(dt=2.0**-12, T=4 * 2.0**-12)
        want = evolve_batch(rows, cfg, workers=2)
        held = run_threads()
        assert flow._run_blas_threads() == 1
        monkeypatch.setattr(flow, "_openblas_threads", lambda: None)
        # the next run forks its worker from the patched module
        _close_pool()
        assert flow._run_blas_threads() is None
        with flow._one_blas_thread() as held_none:
            assert held_none is None
        assert evolve_batch(rows, cfg, workers=2).tobytes() == want.tobytes()
        free = run_threads()
        # the caller runs chunk 0 and a worker chunk 1 in both runs
        for chunks, threads in ((held, 1), (free, 3)):
            assert [(first, t) for first, _, t in chunks] == [(0, threads), (512, threads)]
            assert chunks[0][1] == os.getpid() != chunks[1][1]
        assert caller_threads() == 3


class TestConservation:
    def test_airy_only_exact_l2(self):
        # the linear group is unitary mode-by-mode (it does not fix the cubic
        # energy term, so only mass is checked here)
        f = wn(16, 12)
        traj = [(0.0, f)]
        t = 0.0
        g = f
        for _ in range(20):
            g = airy_propagate(g, 0.05)
            t += 0.05
            traj.append((t, g))
        rep = conservation_report(traj)
        assert rep["mean_drift"] == 0.0
        assert rep["l2_drift_rel"] < 1e-14

    def test_full_flow_stable_config(self):
        f = wn(16, 13)
        traj = evolve(f, FlowConfig(dt=2.5e-5, T=0.25), checkpoints=[0.0, 0.125, 0.25])
        rep = conservation_report(traj)
        assert rep["mean_drift"] == 0.0
        assert rep["l2_drift_rel"] < 1e-8
        assert rep["hamiltonian_drift_rel"] < 1e-6

    @pytest.mark.parametrize("N, count", [(3, 1), (16, 1100), (DENSE, 513)])
    def test_rows_match_per_member_report(self, N, count):
        # bit for bit, so conservation.csv keeps its bytes; more than 512
        # rows take the row-wise Hamiltonian through more than one block
        c0 = sample_batch(N, count, 16)
        c1 = c0 * (1.0 + 1e-9 * sample_batch(N, count, 17))
        want = []
        for a, b in zip(c0, c1):
            fa, fb = FourierField(N, a), FourierField(N, b)
            l2_0, l2_1, h0, h1 = l2_mass(fa), l2_mass(fb), hamiltonian(fa), hamiltonian(fb)
            want.append({
                "mean_drift": 0.0,
                "l2_drift_abs": abs(l2_1 - l2_0),
                "l2_drift_rel": abs(l2_1 - l2_0) / l2_0,
                "hamiltonian_drift_abs": abs(h1 - h0),
                "hamiltonian_drift_rel": abs(h1 - h0) / abs(h0),
            })
        assert conservation_rows(c0, c1) == want
        assert [conservation_report([(0.0, FourierField(N, a)), (1.0, FourierField(N, b))])
                for a, b in zip(c0, c1)] == want

    def test_drift_shrinks_high_order_when_dt_halves(self):
        # the invariant's drift contracts at least 4th order under step halving
        f = wn(16, 14)
        drifts = []
        for dt in (2.5e-4, 1.25e-4):
            traj = evolve(f, FlowConfig(dt=dt, T=0.0625))
            drifts.append(conservation_report(traj)["l2_drift_rel"])
        ratio = drifts[0] / drifts[1]
        assert 12.0 < ratio < 48.0


class TestDivergenceFree:
    def test_fd_trace_vanishes(self):
        # the quadratic term's n-th output never depends on the n-th input
        # (that pairing would need the absent zero mode), so the trace of the
        # real-coordinate Jacobian is 0; FD on a quadratic map is exact
        f = wn(8, 15)
        N = f.N
        h = 1e-4
        x0 = np.concatenate([f.coeffs.real, f.coeffs.imag])

        def field(x):
            g = nonlinear_term(FourierField(N, x[:N] + 1j * x[N:]))
            return np.concatenate([g.coeffs.real, g.coeffs.imag])

        trace = 0.0
        for i in range(2 * N):
            xp = x0.copy()
            xm = x0.copy()
            xp[i] += h
            xm[i] -= h
            trace += (field(xp)[i] - field(xm)[i]) / (2 * h)
        assert abs(trace) < 1e-6


class TestLiouville:
    def test_time_zero_exact(self):
        f = wn(8, 16)
        assert liouville_logdet(f, FlowConfig(dt=1e-3, T=0.0)) == 0.0

    def test_airy_only(self):
        f = wn(8, 17)
        ld = liouville_logdet(f, FlowConfig(dt=5e-4, T=0.5), linear_only=True)
        assert abs(ld) < 1e-10

    def test_full_flow_small_logdet(self):
        f = wn(8, 18)
        cfg = FlowConfig(dt=5e-4, T=0.5)
        assert abs(liouville_logdet(f, cfg)) < 1e-5

    def test_large_N_rejected(self):
        f = wn(13, 19)
        with pytest.raises(ValueError):
            liouville_logdet(f, FlowConfig(dt=1e-3, T=0.1))

    def test_degenerate_probe_refused(self, monkeypatch):
        # every probe ends on the same row, so the Jacobian is zero
        def same_rows(rows, cfg):
            return np.repeat(rows[:1], len(rows), axis=0)

        monkeypatch.setattr(flow, "evolve_batch", same_rows)
        with pytest.raises(FDProbeError, match="sign=0.0, cond~inf"):
            liouville_logdet(wn(8, 18), FlowConfig(dt=5e-4, T=0.5))
