"""Truncated dispersive evolution: integrating-factor RK4 in coefficient space.

The stiff linear part (phase speed n^3) is handled exactly by the unimodular
phase factors E(t) = e^{i n^3 t}; the quadratic transport term F is
evaluated pseudospectrally on a padded grid of M > 3N points (the 3/2
rule), which keeps the aliases of the product off the retained modes. The
integrating factor removes the linear phase but not the resonant one: the
quadratic term carries phases e^{i 3 n n1 n2 t} with |3 n n1 n2| up to
3N^3/4, and the explicit stages resolve them only while the step resonance
number dt * 3N^3/4 is of order 1 or below. That, not the advective bound
2.8 / (N * max|u|), is the binding limit: for white noise at N=64 the
advective bound is ~8.7e-4, yet the steps 5e-4 and 2.5e-4 (resonance
numbers 98 and 49) blow up near t=0.12 and t=0.33.

Each RK4 stage calls one kernel, G_c(x) = E(-c dt) F(E(c dt) x) with c = 0,
1/2 or 1, and only the step's end multiplies by a phase. The kernels' output
tables carry the RK4 weights, dt/6 for G_0 and G_1 and dt/3 for G_1/2, so
the stages return k1 = dt/6 G_0(a), k2 = dt/3 G_1/2(a + 3 k1),
k3 = dt/3 G_1/2(a + 1.5 k2) and k4 = dt/6 G_1(a + 3 k3), and the step is
a = E(dt) (a + k1 + k2 + k3 + k4). The state and the stages are the rows of
one float stack, [k3, k1, a, k2, k4], so each stage input and the step's sum
is one BLAS product of a weight vector with adjacent rows. The kernels and
these sums read the rows as interleaved floats; only the closing phase reads
them as complex. The tables are built once per (N, dt) per process, kept
read-only in a small cache and shared by every chunk of every run with that
step. After each step one dot product screens the whole block against the
blowup limit; only a block that fails it (or holds a NaN or inf) is checked
member by member. On the dense route a step is 18 array calls.

Each batch run (_run_batch) cuts its rows into fixed 512-row chunks, the
flow's one unit of work, and deals them, costed by their rows, over the
package's shared worker pool as kdvnoise.pool describes: the caller runs one
part and writes each other part down a forked worker's pipe. The workers
are processes, not threads: a step is 18 numpy calls, and two threads hand
the GIL back and forth at each (CHANGES.md and BENCH_23.json's
workers_table hold the measurement). Every chunk, in the caller or in a
worker, holds the OpenBLAS that numpy bundles at one thread and gives its
process's thread count back when it ends: the pool's processes are the
package's only parallelism, so BLAS threads would only oversubscribe the
cores, and one thread fixes the products' summation order, so results are
bit-exact across BLAS settings and worker counts. Without that library's
thread control the runs leave BLAS as they find it, and _run_blas_threads
says so.

Two kernels evaluate G_c, picked by N alone. Up to _DENSE_MAX_N = 64 they
are two dense real DFT products with the phases folded into the tables, on
the smallest grid their quadrant reduction allows, M = 4 floor(3N/4) + 4
(52 at N=16, 196 at N=64). Above it an irfft/rfft pair on the power of two
above 3N takes the phases into the padded spectrum and the output factor;
_DENSE_MAX_N is where the FFT overtook the dense products (the CHANGES.md
entries "One stage kernel per IF-RK4 phase..." and "Small flow chunks call
BLAS through np.dot..." have the timings).

Every product goes through np.dot, which gives np.matmul's bytes, for one
code path: it is faster on one-row steps and slower on 512-row chunks
(BENCH_22.json's single_entry_point has the pairs).

Every array the flow makes for a step starts on a 64-byte line: the cached
tables and phases, the weight vectors and each chunk's grid buffer, stage
stack and stage input all come from _line_empty (only the FFT pair's own
outputs are numpy's). The layout moves no byte of any result; it keeps a
step's speed from following the heap's history.
"""
from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import os
import threading

import numpy as np

from .pool import _spread
from .spectral import FourierField, _dealias_length, _hamiltonian_rows, _integer, _l2_rows, \
    _step_multiple
# hamiltonian stays importable from here: bench/workloads.py traces
# flow.hamiltonian
from .spectral import hamiltonian  # noqa: F401

__all__ = [
    "FDProbeError",
    "FlowConfig",
    "IntegratorBlowupError",
    "airy_propagate",
    "conservation_report",
    "conservation_rows",
    "evolve",
    "evolve_batch",
    "evolve_checkpoints",
    "liouville_logdet",
    "nonlinear_term",
    "step",
]

_BLOWUP_LIMIT = 1e8
# sum of squares below which no coefficient can exceed _BLOWUP_LIMIT: each
# real part is then at most _BLOWUP_LIMIT/2, so |coeff| <= _BLOWUP_LIMIT/sqrt(2)
_BLOWUP_SCREEN = (_BLOWUP_LIMIT / 2) ** 2
_CHUNK_ROWS = 512  # fixed so worker count never changes the arithmetic
_DENSE_MAX_N = 64  # largest cutoff whose quadratic term uses the dense route
_FD_EPS = 1e-4  # central-difference step of the Liouville probes
# a run's length and its checkpoints are step multiples to within this
# fraction of the step
_STEP_TOL = 1e-6
# most steps in a run: past 2^53, round(T / dt) and the segment starts
# pos * dt are no longer exact
_MAX_STEPS = 2**53
_TABLE_SETS = 8  # (N, dt) table sets kept per cache: at most 1.2 MB each


def _line_empty(shape, dtype=np.float64):
    """np.empty(shape, dtype) whose data starts on a 64-byte line.

    The flow's one layout rule: every table, phase, weight vector and buffer
    that a step reads is made here or by _line_copy. Otherwise they start
    wherever the heap's history puts them, and a one-row N=64 chunk ran
    1.2-1.5x slower with its tables 16, 32 or 48 bytes off a line (README
    has the table).
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def _line_copy(a):
    """A copy of the small array a on a 64-byte line."""
    out = _line_empty(a.shape, a.dtype)
    out[...] = a
    return out


# weights over the stage stack [k3, k1, a, k2, k4]: the inputs of stages 2, 3
# and 4 from rows 1:3, 2:4 and 0:3, and the step's sum from all five
_W_K1 = _line_copy(np.array([3.0, 1.0]))
_W_K2 = _line_copy(np.array([1.0, 1.5]))
_W_K3 = _line_copy(np.array([3.0, 0.0, 1.0]))
_W_STEP = _line_copy(np.ones(5))


class IntegratorBlowupError(RuntimeError):
    """Raised when a trajectory leaves the trusted numerical range.

    members lists the run's member indices that left it and t is the run
    time at which the first of them did.
    """

    def __init__(self, message, members, t):
        super().__init__(message)
        self.members = list(members)
        self.t = t

    def __reduce__(self):
        # the default rebuilds from args, the message alone; a blowup in a
        # worker process crosses back to the caller pickled
        return type(self), (self.args[0], self.members, self.t)


def _blowup(members, t, dt, N):
    return IntegratorBlowupError(
        f"members {members} exceeded |coeff| {_BLOWUP_LIMIT:g}, the first "
        f"at t~{t:.4g}; step resonance number |dt|*3N^3/4 = "
        f"{abs(dt) * 0.75 * N**3:.3g}; IF-RK4 resolves the resonant phases "
        f"only when it is of order 1 or below",
        members,
        t,
    )


class FDProbeError(RuntimeError):
    """Raised when a finite-difference Jacobian is too degenerate to trust."""


@dataclasses.dataclass(frozen=True)
class FlowConfig:
    """Evolution parameters; T < 0 runs the reversed flow.

    |T| must be a multiple of dt to within _STEP_TOL dt, of at most
    _MAX_STEPS steps.
    """

    dt: float
    T: float

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not np.isfinite(self.T):
            raise ValueError("T must be finite")
        if _step_multiple(abs(self.T), self.dt, _STEP_TOL * self.dt) is None:
            raise ValueError(f"T={self.T} is not an integer multiple of dt={self.dt}")
        if self.steps > _MAX_STEPS:
            raise ValueError(f"T={self.T} at dt={self.dt} is {self.steps} steps, more than 2**53")

    @property
    def steps(self):
        return round(abs(self.T) / self.dt)


def _dense_length(N):
    # the smallest multiple of 4 above 3N: the 3/2 rule's bound, with the
    # quarter-turn points _dense_tables needs on the grid
    return 4 * (3 * N // 4) + 4


def _dense_tables(N, M, ph, scale):
    """Tables (C, D) of the dense kernel x -> scale conj(ph) F(ph x) on the M-point grid.

    With a row's coefficients read as interleaved floats (Re x_1, Im x_1,
    ...), X @ C is the grid values of ph x, rows 2cos(n x_j + a_n) and
    -2sin(n x_j + a_n) for ph = e^{i a}; u^2 @ D is scale conj(ph) F
    interleaved, columns -n sin(n x_j + a_n)/(2M) and -n cos(n x_j + a_n)/(2M)
    times scale. Each grid angle 2pi k/M is reduced exactly to its quadrant
    and the distance to the nearest axis, so at ph = 1 the tables keep the
    grid's symmetries bit for bit (cos 0 = 1 and cos(pi/2) = 0 exactly) as
    the FFT's twiddles do; the phase then rotates each (cos, sin) pair.
    """
    Q = M // 4  # M is a multiple of 4
    quad, r = np.divmod(np.arange(M), Q)
    near = 2 * r <= Q
    t = 2.0 * np.pi * np.where(near, r, Q - r) / M
    c, s = np.cos(t), np.sin(t)
    c, s = np.where(near, c, s), np.where(near, s, c)
    n = np.arange(1, N + 1)
    k = np.outer(n, np.arange(M)) % M
    cos = np.choose(quad, [c, -s, -c, s])[k]
    sin = np.choose(quad, [s, c, -s, -c])[k]
    pc, ps = ph.real[:, None], ph.imag[:, None]
    cos, sin = pc * cos - ps * sin, ps * cos + pc * sin
    # both tables are written in place on their lines, not built and copied:
    # a copy would hold two of each at once
    C = _line_empty((2 * N, M))
    np.multiply(2.0, cos, out=C[0::2])
    np.multiply(-2.0, sin, out=C[1::2])
    w = n[:, None] / (2.0 * M)
    D = _line_empty((M, 2 * N))
    np.multiply(-w, sin, out=D[:, 0::2].T)
    np.multiply(-w, cos, out=D[:, 1::2].T)
    D *= scale
    return C, D


def _dense_rows(rows, out, tables, buf):
    """scale conj(ph) F(ph x) for each row x by two dense real products, into out.

    rows and out are (count, 2N) float arrays, each row's coefficients
    interleaved (Re x_1, Im x_1, ...). tables are _dense_tables(N, M, ph,
    scale); buf is a (count, M) float buffer for the grid values, rewritten
    whole.
    """
    C, D = tables
    np.dot(rows, C, out=buf)
    np.multiply(buf, buf, out=buf)
    return np.dot(buf, D, out=out)


def _fft_tables(N, M, ph, scale):
    """Tables of the padded-FFT kernel x -> scale conj(ph) F(ph x) on the M-point grid.

    ph itself and the output factor -(in/2) M conj(ph) scale: the factor M of
    the grid values and the 1/M of the forward transform, both exact powers
    of two, fold into it.
    """
    factor = _line_empty(N, np.complex128)
    np.multiply(-0.5j * M * np.arange(1, N + 1) * np.conj(ph), scale, out=factor)
    return ph, factor


def _fft_rows(rows, out, tables, buf):
    """scale conj(ph) F(ph x) for each row x by an irfft/rfft pair, into out.

    rows and out are interleaved float arrays, as for _dense_rows. tables are
    _fft_tables(N, M, ph, scale); buf is the (count, M/2 + 1) padded
    spectrum, zero outside columns 1..N; only those columns are rewritten.
    """
    ph, factor = tables
    N = len(ph)
    M = 2 * (buf.shape[1] - 1)
    np.multiply(ph, rows.view(np.complex128), out=buf[:, 1 : N + 1])
    u = np.fft.irfft(buf, M, axis=1)
    u *= u
    np.multiply(np.fft.rfft(u, axis=1)[:, 1 : N + 1], factor, out=out.view(np.complex128))
    return out


class _Kernels:
    """The kernels x -> scale conj(ph) F(ph x) at cutoff N, one per (ph, scale).

    F is the quadratic term -(in/2)(u^2)^(n). Up to _DENSE_MAX_N it is
    _dense_rows on the _dense_length(N) grid, above it _fft_rows on the
    _dealias_length(N) grid. The phases and tables are made here, once, on
    64-byte lines, and made read-only, so every chunk of every run that holds
    them shares them; bind gives a chunk its own grid buffer.
    """

    def __init__(self, N, phases, scales):
        self.phases = [_line_copy(ph) for ph in phases]
        self.dense = N <= _DENSE_MAX_N
        self.M = _dense_length(N) if self.dense else _dealias_length(N)
        make = _dense_tables if self.dense else _fft_tables
        self.tables = [make(N, self.M, ph, s) for ph, s in zip(self.phases, scales)]
        for arr in [*self.phases, *(t for ts in self.tables for t in ts)]:
            arr.flags.writeable = False

    def bind(self, count):
        """One (rows, out) -> out kernel per phase for count interleaved float rows.

        The kernels share one grid buffer, so they run one at a time.
        """
        if self.dense:
            kernel, buf = _dense_rows, _line_empty((count, self.M))
        else:
            kernel, buf = _fft_rows, _line_empty((count, self.M // 2 + 1), np.complex128)
            buf[...] = 0.0
        return [functools.partial(kernel, tables=t, buf=buf) for t in self.tables]


@functools.lru_cache(maxsize=_TABLE_SETS)
def _stage_kernels(N, dt):
    """The weighted IF-RK4 stage kernels w_c G_c, G_c = E(-c dt) F(E(c dt) .).

    c = 0, 1/2, 1 with weights w_c = dt/6, dt/3, dt/6. E is _airy_phase; the
    phase of the last, E(dt), also ends each step. Cached per (N, dt).
    """
    ph_h = _airy_phase(N, 0.5 * dt)
    phases = [np.ones(N, dtype=np.complex128), ph_h, ph_h * ph_h]
    return _Kernels(N, phases, [dt / 6.0, dt / 3.0, dt / 6.0])


@functools.lru_cache(maxsize=_TABLE_SETS)
def _plain_kernel(N):
    """F itself at cutoff N: one kernel, no phase, scale 1."""
    return _Kernels(N, [np.ones(N, dtype=np.complex128)], [1.0])


def nonlinear_term(f):
    """Quadratic transport term of the truncated system at a single state."""
    out = np.empty((1, f.N), dtype=np.complex128)
    (F,) = _plain_kernel(f.N).bind(1)
    F(np.ascontiguousarray(f.coeffs[None, :]).view(np.float64), out.view(np.float64))
    return FourierField(f.N, out[0])


def _airy_phase(N, t):
    """e^{i n^3 t} for n = 1..N: the exact linear propagator over time t."""
    n = np.arange(1, N + 1, dtype=float)
    return np.exp(1j * n**3 * t)


def airy_propagate(f, t):
    """Exact linear propagation: multiply mode n by e^{i n^3 t}."""
    if t == 0.0:
        return f
    return FourierField(f.N, f.coeffs * _airy_phase(f.N, t))


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles, or None.

    Looked up once through numpy's linalg extension, whose dependencies hold
    the OpenBLAS numpy loaded; None when its thread calls are not there.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


# the thread count is one per process, so the hold on it is too
_blas_lock = threading.Lock()
_blas_runs = 0  # flow runs now holding OpenBLAS at one thread
_blas_saved = None  # the caller's thread count, put back when the last run ends


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread for the body; yields 1, or None if it cannot.

    The shared pool's processes are the only parallelism, and one thread
    keeps the dense products' arithmetic fixed. Concurrent runs share the
    hold: the first to enter saves the caller's thread count and the last to
    leave, normally or by an exception, restores it. Without the thread
    control it does nothing and yields None.
    """
    global _blas_runs, _blas_saved
    calls = _openblas_threads()
    if calls is None:
        yield None
        return
    get, put = calls
    with _blas_lock:
        if _blas_runs == 0:
            _blas_saved = get()
            put(1)
        _blas_runs += 1
    try:
        yield 1
    finally:
        with _blas_lock:
            _blas_runs -= 1
            if _blas_runs == 0:
                put(_blas_saved)


def _run_blas_threads():
    """OpenBLAS threads a flow run holds: 1, or None without the thread control."""
    return None if _openblas_threads() is None else 1


def _rk4_chunk(rows, kernels, dt, nsteps, t0, first):
    """Integrating-factor RK4 on a (count, N) block; dt may be negative.

    kernels are _stage_kernels(N, dt), whose tables the chunk only reads.
    t0 and first are the block's start time and first member index within
    the run; they only place a blowup in the error message. The grid buffer,
    the stage stack, its row views and the stage input are made once per
    call, so concurrent chunks never share a buffer.
    """
    count, N = rows.shape
    G0, Gh, Gf = kernels.bind(count)
    ph_f = kernels.phases[2]
    # the stack's order puts each weighted sum's rows next to each other;
    # only the phase that ends a step reads the rows as complex
    stack = _line_empty((5, count * 2 * N))
    k3, k1, a, k2, k4 = stack.reshape(5, count, 2 * N)
    x = _line_empty((count * 2 * N,))
    xs, xc = x.reshape(count, 2 * N), x.view(np.complex128).reshape(count, N)
    ac, flat = a.view(np.complex128), stack[2]
    ac[...] = rows
    # the rows each stage input sums: [k1, a], [a, k2] and [k3, k1, a]
    in2, in3, in4 = stack[1:3], stack[2:4], stack[0:3]

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            # stage input a + c dt G = a + (c dt / w) k for the previous
            # stage's k = w G: factors 3, 1.5 and 3; the zero weight on k1
            # only turns an infinite k1 into a NaN, which the screen catches
            G0(a, k1)
            np.dot(_W_K1, in2, out=x)
            Gh(xs, k2)
            np.dot(_W_K2, in3, out=x)
            Gh(xs, k3)
            np.dot(_W_K3, in4, out=x)
            Gf(xs, k4)
            # a = ph_f * (a + k1 + k2 + k3 + k4)
            np.dot(_W_STEP, stack, out=x)
            np.multiply(ph_f, xc, out=ac)
            # _run_batch holds BLAS at one thread, so this dot and the sums
            # above start no BLAS threads (step's one row is too small to);
            # NaN fails the comparison, so it always reaches the exact check
            if not np.dot(flat, flat) <= _BLOWUP_SCREEN:
                peaks = np.abs(ac).max(axis=1)
                bad = np.flatnonzero(~(peaks <= _BLOWUP_LIMIT))
                if bad.size:
                    raise _blowup((first + bad).tolist(), t0 + (k + 1) * dt, dt, N)
    return ac


def _forget_parent():
    """Run in a forked child: no run holds its BLAS."""
    global _blas_lock, _blas_runs, _blas_saved
    _blas_lock, _blas_runs, _blas_saved = threading.Lock(), 0, None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent)


def _run_chunk(first, rows, dt, nsteps, t0):
    """Run the chunk of members first, first + 1, ... in this process.

    Returns its final rows, or the IntegratorBlowupError that stopped it.
    The caller and the workers run their chunks alike: through their own
    process's stage kernel cache, under their own one-thread hold.
    """
    with _one_blas_thread():
        try:
            final = _rk4_chunk(rows, _stage_kernels(rows.shape[1], dt), dt, nsteps, t0, first)
        except IntegratorBlowupError as exc:
            return exc
    # a copy lets the stage stack, five times the chunk's rows, go with this
    # call; the view would keep every chunk's stack alive until the run ends
    return final.copy()


def _run_chunks(chunks, dt, nsteps, t0):
    """The final rows, or the IntegratorBlowupError, of each (first member, rows) of chunks."""
    return [_run_chunk(first, rows, dt, nsteps, t0) for first, rows in chunks]


def _run_batch(rows, dt, nsteps, workers, t0):
    count, N = rows.shape
    if count == 0 or nsteps == 0:
        return rows.copy()
    chunks = [(lo, rows[lo : lo + _CHUNK_ROWS]) for lo in range(0, count, _CHUNK_ROWS)]
    finals = _spread(_run_chunks, chunks, [len(c) for _, c in chunks], (dt, nsteps, t0), workers)
    out = np.empty_like(rows)
    failures = []
    for (first, _), final in zip(chunks, finals):
        if isinstance(final, IntegratorBlowupError):
            failures.append(final)
        else:
            out[first : first + len(final)] = final
    # every chunk runs to its end or its own blowup; report them all at once
    if failures:
        members = sorted(m for exc in failures for m in exc.members)
        raise _blowup(members, min((exc.t for exc in failures), key=abs), dt, N)
    return out


def step(f, dt):
    """One integrator step of size dt; zero and negative dt are allowed."""
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    out = _rk4_chunk(f.coeffs[None, :], _stage_kernels(f.N, dt), dt, 1, 0.0, 0)
    return FourierField(f.N, out[0])


def evolve_checkpoints(coeffs, cfg, times, workers=None):
    """Iterator of (t, rows): the member rows of coeffs at each requested time.

    Times must be at least one, integer multiples of dt between 0 and T
    inclusive, and increasing; they are checked before the iterator is
    returned. States are yielded as they are reached, so a checkpointed run
    does the arithmetic of an uninterrupted one, and fixed 512-row chunks keep
    it independent of the worker count. Each segment that takes a step takes
    the stage kernels' tables from the per-(N, dt) cache of every process
    that runs one of its chunks, or builds them there once, and every chunk
    reads them; a run with no step asks for none. workers is None or an
    integer >= 1, also checked up front; None runs on every CPU the process
    may use, the caller and a worker process per further CPU.
    """
    if workers is not None:
        workers = _integer(workers, "workers", 1)
    times = [float(t) for t in times]
    if not times:
        raise ValueError("times must name at least one checkpoint")
    dt = cfg.dt if cfg.T >= 0 else -cfg.dt
    tol = _STEP_TOL * cfg.dt
    idx = []
    for t in times:
        k = _step_multiple(t, dt, tol) if cfg.steps > 0 else (0 if abs(t) <= tol else None)
        if k is None or not 0 <= k <= cfg.steps:
            raise ValueError(f"checkpoint {t} is not a step multiple within the run")
        idx.append(k)
    if idx != sorted(idx):
        raise ValueError("checkpoints must be increasing")

    def run(rows):
        pos = 0
        for t, k in zip(times, idx):
            rows = _run_batch(rows, dt, k - pos, workers, pos * dt)
            pos = k
            yield t, rows

    return run(np.ascontiguousarray(coeffs, dtype=np.complex128))


def evolve(f, cfg, checkpoints=None):
    """Trajectory of f under cfg; returns [(t, field)] at requested times.

    With checkpoints=None the list holds the endpoints only (just the initial
    state when T=0); checkpoints follow the rules of evolve_checkpoints.
    """
    if checkpoints is None:
        checkpoints = [0.0, cfg.T] if cfg.steps > 0 else [0.0]
    states = evolve_checkpoints(f.coeffs[None, :], cfg, checkpoints)
    return [(t, FourierField(f.N, rows[0])) for t, rows in states]


def evolve_batch(coeffs, cfg, workers=None):
    """Final coefficients for each member row; row-chunked, worker-invariant."""
    ((_, final),) = evolve_checkpoints(coeffs, cfg, [cfg.T], workers)
    return final


def _drifts(l2_0, l2_1, h0, h1):
    l2_abs = abs(l2_1 - l2_0)
    h_abs = abs(h1 - h0)
    return {
        "mean_drift": 0.0,
        "l2_drift_abs": l2_abs,
        "l2_drift_rel": l2_abs / l2_0 if l2_0 > 0 else 0.0,
        "hamiltonian_drift_abs": h_abs,
        "hamiltonian_drift_rel": h_abs / abs(h0) if h0 != 0 else 0.0,
    }


def conservation_report(traj):
    """Drift of the tracked invariants between the first and last states.

    The mean is absent from the representation, so its drift is identically
    zero; it is reported for completeness of the contract.
    """
    return conservation_rows(traj[0][1].coeffs[None], traj[-1][1].coeffs[None])[0]


def conservation_rows(coeffs0, coeffs1):
    """conservation_report of each member, from row i of coeffs0 to row i of coeffs1.

    The invariants are computed row-wise, in the same arithmetic as l2_mass
    and hamiltonian, so each drift equals theirs bit for bit.
    """
    values = (_l2_rows(coeffs0), _l2_rows(coeffs1),
              _hamiltonian_rows(coeffs0), _hamiltonian_rows(coeffs1))
    return [_drifts(*v) for v in zip(*(a.tolist() for a in values))]


def liouville_logdet(f, cfg, linear_only=False):
    """log|det| of the time-T flow map Jacobian in real coordinates.

    Central differences with step _FD_EPS, all 4N probe trajectories run
    as one batch. Restricted to N <= 12: the probe count grows linearly but
    the subtraction noise in the determinant grows with dimension.
    """
    N = f.N
    if N > 12:
        raise ValueError(f"cutoff {N} too large for the dense Jacobian probe (max 12)")
    if cfg.steps == 0:
        return 0.0
    eps = _FD_EPS
    dim = 2 * N
    # real coordinates (Re c, Im c); probes 2i and 2i+1 move coordinate i by +eps and -eps
    shift = eps * np.eye(dim)
    x = np.concatenate([f.coeffs.real, f.coeffs.imag])
    x = x + np.stack([shift, -shift], axis=1).reshape(2 * dim, dim)
    rows = x[:, :N] + 1j * x[:, N:]
    finals = rows * _airy_phase(N, cfg.T) if linear_only else evolve_batch(rows, cfg)
    x = np.concatenate([finals.real, finals.imag], axis=1)
    jac = ((x[0::2] - x[1::2]) / (2.0 * eps)).T
    sign, logdet = np.linalg.slogdet(jac)
    if sign <= 0 or not np.isfinite(logdet):
        cond = np.linalg.cond(jac)
        raise FDProbeError(
            f"finite-difference Jacobian degenerate (sign={sign}, cond~{cond:.2e}); "
            f"the probe step {eps:g} is likely outside the usable window"
        )
    return float(logdet)
