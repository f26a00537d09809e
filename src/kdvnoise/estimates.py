"""Space-time (modulation) analysis tools: resonance algebra, weighted norms,
the bilinear form, and desk-scale numerical oracles for the supporting lemmas.

Conventions shared across this module: lattice rows are ordered
n = -N..-1, 1..N (no zero mode), the tau grid is uniform with step dtau over
[-tau_max, tau_max], and all tau integrals are Riemann sums on that grid.
Products whose output tau falls outside the window are dropped; this boundary
loss is part of the discrete contract and applies identically on the dense
and sparse evaluation routes. The two routes share only the lattice map (row
order, grid length, default lattice, modulation bracket), one helper each;
their arithmetic stays separate, so each is an oracle for the other.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .spectral import _block_index, _block_reduce, bracket

__all__ = [
    "SpaceTimeCoeffs",
    "WeightParams",
    "bilinear_form",
    "bilinear_ratio_sweep",
    "bourgain_l1tau_norm",
    "bourgain_norm",
    "bracket_product_integral",
    "bump",
    "bump_transform",
    "family_points",
    "modulation_max_holds",
    "quadratic_bracket_sum",
    "resonance_residual",
    "resonance_residual_max",
    "resonance_set_integral",
    "resonance_weight",
    "sweep_trial_rng",
    "time_localization_check",
    "weight_terms",
    "weighted_bourgain_norm",
]


# ---------------------------------------------------------------- resonance

def _residual(n1, n2):
    n = n1 + n2
    return n**3 - n1**3 - n2**3 - 3 * n * n1 * n2


def resonance_residual(n1, n2):
    """(n1+n2)^3 - n1^3 - n2^3 - 3(n1+n2)n1n2, exactly, in integers."""
    return _residual(int(n1), int(n2))


def resonance_residual_max(bound):
    """Max |residual| over the full integer square |n1|,|n2| <= bound."""
    k = np.arange(-bound, bound + 1, dtype=np.int64)
    return int(np.abs(_residual(k[:, None], k[None, :])).max())


def modulation_max_holds(n1, n2, tau1, tau2):
    """Check max of the three modulations against the resonance size.

    The three quantities tau-n^3, tau1-n1^3, tau2-n2^3 sum (with signs) to
    -3*n*n1*n2, so the largest bracket is at least a third of <3 n n1 n2>.
    """
    if n1 == 0 or n2 == 0 or n1 + n2 == 0:
        raise ValueError("all three modes must be nonzero")
    n = n1 + n2
    tau = tau1 + tau2
    biggest = max(_modulation(n, tau), _modulation(n1, tau1), _modulation(n2, tau2))
    return bool(biggest >= bracket(3 * n * n1 * n2) / 3.0)


# ------------------------------------------------------------------- weight

@dataclasses.dataclass(frozen=True)
class WeightParams:
    """Resonance-curve weight parameters.

    C: |n| threshold below which the weight is identically 1.
    c0: proximity constant scaling the <n>^(1/100) window width.
    delta: exponent on the min-bracket gain.
    """

    C: float = 10.0
    c0: float = 1.0
    delta: float = 0.01

    def __post_init__(self):
        if not self.C >= 1:
            raise ValueError("C must be >= 1")
        if not self.c0 >= 0:
            raise ValueError("c0 must be nonnegative")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0,1)")


_OFFSETS = np.arange(-2, 3)


def _weight_candidates(n, d, r):
    """Integer k candidates near the roots of 3nk(n-k) = -d (+-r) and the vertex.

    n: (m,) int array; d = tau - n^3, r: (m,) floats. Returns (m, 25) int64,
    sorted per row.
    """
    nf = n.astype(float)
    base = np.empty((n.size, 5))
    for col, v in enumerate((-d - r, -d + r)):
        disc = 9.0 * nf**4 - 12.0 * nf * v
        sq = np.sqrt(np.clip(disc, 0.0, None))
        base[:, 2 * col] = (3.0 * nf**2 - sq) / (6.0 * nf)
        base[:, 2 * col + 1] = (3.0 * nf**2 + sq) / (6.0 * nf)
    base[:, 4] = nf / 2.0
    cands = np.rint(base)[:, :, None] + _OFFSETS[None, None, :]
    return np.sort(cands.reshape(n.size, 25).astype(np.int64), axis=1)


def _weight_hits(n, tau, params):
    """Candidates k, the mask of the distinct nonzero k in the resonance window,
    and each candidate's gain min(<k>, <n-k>)^delta.

    One row per flat point; the caller keeps only |n| >= C and needs c0 > 0.
    """
    d = tau - n.astype(float) ** 3
    r = params.c0 * bracket(n) ** 0.01
    k = _weight_candidates(n, d, r)
    first = np.concatenate(
        [np.ones((k.shape[0], 1), dtype=bool), k[:, 1:] != k[:, :-1]], axis=1
    )
    kf = k.astype(float)
    value = 3.0 * n[:, None] * kf * (n[:, None] - kf)
    hit = (k != 0) & first & (np.abs(d[:, None] + value) <= r[:, None])
    return k, hit, np.minimum(bracket(k), bracket(n[:, None] - k)) ** params.delta


def _weight_eval(n, tau, params):
    """Vectorized weight on flat int/float arrays; solves the quadratic."""
    n = np.asarray(n, dtype=np.int64)
    tau = np.asarray(tau, dtype=float)
    out = np.ones(n.shape, dtype=float)
    live = np.abs(n) >= params.C
    if params.c0 == 0 or not live.any():
        return out
    _k, hit, gain = _weight_hits(n[live], tau[live], params)
    out[live] = 1.0 + np.sum(np.where(hit, gain, 0.0), axis=1)
    return out


def resonance_weight(n, tau, params):
    """w(n, tau) >= 1; scalar in, scalar out; arrays broadcast elementwise."""
    scalar = np.isscalar(n) or (isinstance(n, np.ndarray) and n.ndim == 0)
    n_arr = np.atleast_1d(np.asarray(n))
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    n_arr, tau_arr = np.broadcast_arrays(n_arr, tau_arr)
    w = _weight_eval(n_arr.ravel(), tau_arr.ravel(), params).reshape(n_arr.shape)
    return float(w[0]) if scalar else w


def weight_terms(n, tau, params):
    """The contributing (k, gain) pairs behind resonance_weight at one point."""
    if abs(n) < params.C or params.c0 == 0:
        return []
    k, hit, gain = _weight_hits(np.array([n], dtype=np.int64), np.array([float(tau)]), params)
    return list(zip(k[hit].tolist(), gain[hit].tolist()))


# --------------------------------------------------------- space-time grids

_DTAU = 0.5  # step of the default lattice; the sweep families and the sparse route use it


def _default_tau_max(N):
    return 4.0 * N**3


def _grid_length(tau_max, dtau):
    """Number of tau columns: dtau must divide tau_max, and L = 2 tau_max/dtau + 1."""
    half = tau_max / dtau
    if abs(round(half) - half) > 1e-9:
        raise ValueError("dtau must divide tau_max")
    return 2 * round(half) + 1


def _signed_modes(N):
    return np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])


def _row(n, N):
    """Row of mode n in _signed_modes order; n may be an int or an int array."""
    return n + N - (n > 0)


def _modulation(n, tau):
    """The modulation bracket <tau - n^3>, broadcast over n and tau."""
    return bracket(tau - np.asarray(n, dtype=float) ** 3)


class SpaceTimeCoeffs:
    """Dense coefficient table f(n, tau) on the shared lattice.

    Rows follow _signed_modes order (n = -N..-1 then 1..N); columns are the
    uniform tau grid. values stays writable so tests and profiles can be
    built in place; finiteness is checked at construction.
    """

    __slots__ = ("N", "tau_max", "dtau", "values")

    def __init__(self, N, tau_max, dtau, values):
        if N < 1:
            raise ValueError("cutoff must be positive")
        if not (tau_max > 0 and dtau > 0):
            raise ValueError("grid parameters must be positive")
        L = _grid_length(tau_max, dtau)
        arr = np.asarray(values, dtype=np.complex128)
        if arr.shape != (2 * N, L):
            raise ValueError(f"values must have shape {(2 * N, L)}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite")
        self.N = int(N)
        self.tau_max = float(tau_max)
        self.dtau = float(dtau)
        self.values = arr

    @property
    def L(self):
        return self.values.shape[1]

    @property
    def tau_grid(self):
        return -self.tau_max + self.dtau * np.arange(self.L)

    def row(self, n):
        if n == 0 or abs(n) > self.N:
            raise ValueError(f"mode {n} not on the lattice (cutoff {self.N})")
        return _row(n, self.N)

    def col(self, tau):
        idx = (tau + self.tau_max) / self.dtau
        k = round(idx)
        if abs(k - idx) > 1e-9 or not 0 <= k < self.L:
            raise ValueError(f"tau={tau} is off the grid")
        return k

    @classmethod
    def zeros(cls, N, tau_max=None, dtau=_DTAU):
        if tau_max is None:
            tau_max = _default_tau_max(N)
        L = _grid_length(tau_max, dtau)
        return cls(N, tau_max, dtau, np.zeros((2 * N, L), dtype=np.complex128))

    @classmethod
    def from_points(cls, N, pts, tau_max=None, dtau=_DTAU):
        out = cls.zeros(N, tau_max=tau_max, dtau=dtau)
        for (n, tau), v in pts.items():
            out.values[out.row(n), out.col(tau)] += v
        return out


def _sup_block_lp(row_stats, p):
    """sup over dyadic blocks of the l^p combination of per-row statistics.

    row_stats follows _signed_modes order. For finite p it holds per-row
    p-th-power sums, and the rows of n and -n add; for p = inf it holds
    per-row maxima, and the rows of n and -n combine by maximum.
    """
    N = row_stats.size // 2
    neg, pos = row_stats[N - 1 :: -1], row_stats[N:]
    per_mode = np.maximum(neg, pos) if math.isinf(p) else neg + pos
    return float(_block_reduce(per_mode, p).max())


def _xsb_weights(f, s, b):
    modes = _signed_modes(f.N)[:, None]
    return bracket(modes.astype(float)) ** s * _modulation(modes, f.tau_grid) ** b


def _in_block_lp(A, dtau, p):
    """sup over blocks of the in-block L^p (in n and tau) of a table A >= 0."""
    if math.isinf(p):
        return _sup_block_lp(A.max(axis=1), p)
    return _sup_block_lp(np.sum(A**p, axis=1) * dtau, p)


def bourgain_norm(f, s, b, p):
    """sup over blocks of the in-block L^p (in n and tau) of <n>^s<tau-n^3>^b f."""
    return _in_block_lp(_xsb_weights(f, s, b) * np.abs(f.values), f.dtau, p)


def bourgain_l1tau_norm(f, s, b, p):
    """Variant with inner L^1 in tau, then block l^p in n, then sup."""
    rows = np.sum(_xsb_weights(f, s, b) * np.abs(f.values), axis=1) * f.dtau
    return _sup_block_lp(rows if math.isinf(p) else rows**p, p)


def _weight_matrix(f, params):
    nn, tt = np.broadcast_arrays(_signed_modes(f.N)[:, None], f.tau_grid)
    return _weight_eval(nn, tt, params)


def weighted_bourgain_norm(f, s, b, p, params):
    """Weighted norm: X-part of w*f at (s, b) plus the L^1-in-tau part at b-1/2."""
    A = _xsb_weights(f, s, b) * _weight_matrix(f, params) * np.abs(f.values)
    return _in_block_lp(A, f.dtau, p) + bourgain_l1tau_norm(f, s, b - 0.5, p)


# ------------------------------------------------------------ bilinear form

def _input_denominators(f, params, weighted):
    den = _modulation(_signed_modes(f.N)[:, None], f.tau_grid) ** 0.5
    if weighted:
        den = den * _weight_matrix(f, params)
    return den


def bilinear_form(f, g, s, params, weighted=True):
    """The two-input resonant interaction with its outer modulation factor.

    Output at (n, tau) sums over n1+n2=n, tau1+tau2=tau of
    |n|<n>^s/(<n1>^s<n2>^s) * f(n1,tau1)g(n2,tau2) / (den1*den2), times the
    tau-convolution measure dtau, times <tau-n^3>^(-1/2); den_j is
    <tau_j-n_j^3>^(1/2), weighted additionally by w(n_j,tau_j).
    """
    from scipy.fft import next_fast_len

    if (f.N, f.tau_max, f.dtau) != (g.N, g.tau_max, g.dtau):
        raise ValueError("inputs must share one lattice")
    N, L, dtau = f.N, f.L, f.dtau
    F = f.values / _input_denominators(f, params, weighted)
    G = g.values / _input_denominators(g, params, weighted)
    nfft = next_fast_len(2 * L - 1)
    Fh = np.fft.fft(F, nfft, axis=1)
    Gh = np.fft.fft(G, nfft, axis=1)
    modes = _signed_modes(N)
    K = L // 2
    out = np.empty((2 * N, L), dtype=np.complex128)
    sb = bracket(modes.astype(float)) ** s
    for i, n in enumerate(modes):
        # a row with no pair keeps a zero accumulator, whose transform is zero
        acc = np.zeros(nfft, dtype=np.complex128)
        pref_n = abs(int(n)) * sb[i]
        for j, n1 in enumerate(modes):
            n2 = int(n) - int(n1)
            if n2 == 0 or abs(n2) > N:
                continue
            jj = _row(n2, N)
            acc += (pref_n / (sb[j] * sb[jj])) * (Fh[j] * Gh[jj])
        out[i] = np.fft.ifft(acc)[K : K + L] * dtau
    outer = _modulation(modes[:, None], f.tau_grid) ** -0.5
    return SpaceTimeCoeffs(N, f.tau_max, dtau, out * outer)


# -------------------------------------------------------------- ratio sweep

_FAMILIES = ("out_curve_lo", "out_curve_hi", "free_curve", "random")


def sweep_trial_rng(seed, N, trial):
    return np.random.default_rng(np.random.SeedSequence([seed, N, trial]))


def _block_amp(n, p):
    return 2.0 ** (-_block_index(n) / p) * _DTAU ** (-1.0 / p)


def family_points(family, N, p, rng):
    """Sparse (f, g) inputs for one sweep trial, on the default grid.

    Families: free_curve puts unit-per-block mass on tau = n^3; the out_curve
    pair concentrates products onto the output curve at a low/high mode;
    random mixes curve-adjacent, resonance-translated, and uniform points.
    """
    tau_max = _default_tau_max(N)

    def snap(t):
        return min(tau_max, max(-tau_max, round(t / _DTAU) * _DTAU))

    def free_curve():
        return {(int(n), float(n**3)): _block_amp(n, p) for n in _signed_modes(N)}

    if family == "free_curve":
        return free_curve(), free_curve()
    if family in ("out_curve_lo", "out_curve_hi"):
        n0 = 1 if family == "out_curve_lo" else max(1, N // 2)
        fpts = free_curve()
        gpts = {}
        for n1 in _signed_modes(N):
            n2 = n0 - int(n1)
            if n2 == 0 or abs(n2) > N:
                continue
            key = (n2, float(n0**3 - int(n1) ** 3))
            gpts[key] = gpts.get(key, 0.0) + _block_amp(n2, p)
        return fpts, gpts
    if family == "random":
        def draw():
            pts = {}
            for _ in range(40):
                n = 0
                while n == 0:
                    n = int(rng.integers(-N, N + 1))
                kind = rng.integers(0, 3)
                if kind == 0:
                    t = n**3 + int(rng.integers(-6, 7)) * _DTAU
                elif kind == 1:
                    k0 = 0
                    while k0 in (0, n):
                        k0 = int(rng.integers(-2 * N, 2 * N + 1))
                    t = n**3 - 3 * n * (n - k0) * k0
                else:
                    t = rng.uniform(-tau_max, tau_max)
                key = (n, float(snap(t)))
                amp = (rng.standard_normal() + 1j * rng.standard_normal()) * _block_amp(n, p)
                pts[key] = pts.get(key, 0.0) + amp
            return pts

        return draw(), draw()
    raise ValueError(f"unknown family {family!r}")


def _pts_arrays(pts):
    ns = np.array([k[0] for k in pts], dtype=np.int64)
    ts = np.array([k[1] for k in pts], dtype=float)
    vs = np.array([pts[k] for k in pts], dtype=np.complex128)
    return ns, ts, vs


def _sparse_block_sup(ns, vals, N, p):
    """sup over blocks of the l^p, with the dtau measure, of values at modes ns."""
    per_row = np.bincount(_row(ns, N), weights=vals**p * _DTAU, minlength=2 * N)
    return _sup_block_lp(per_row, p)


def _sparse_ratio(fpts, gpts, N, s, p, params, weighted):
    n1, t1, v1 = _pts_arrays(fpts)
    n2, t2, v2 = _pts_arrays(gpts)
    tau_max = _default_tau_max(N)
    w1 = resonance_weight(n1, t1, params) if weighted else np.ones(n1.size)
    w2 = resonance_weight(n2, t2, params) if weighted else np.ones(n2.size)
    a1 = v1 / (w1 * _modulation(n1, t1) ** 0.5)
    a2 = v2 / (w2 * _modulation(n2, t2) ** 0.5)

    # all cross pairs
    n_out = n1[:, None] + n2[None, :]
    t_out = t1[:, None] + t2[None, :]
    prod = a1[:, None] * a2[None, :]
    keep = (n_out != 0) & (np.abs(n_out) <= N) & (np.abs(t_out) <= tau_max)
    n_out, t_out, prod = n_out[keep], t_out[keep], prod[keep]
    nn1 = np.broadcast_to(n1[:, None], keep.shape)[keep]
    mult = (
        np.abs(n_out)
        * bracket(n_out) ** s
        / (bracket(nn1) ** s * bracket(n_out - nn1) ** s)
    )
    prod = prod * mult
    if n_out.size == 0:
        return 0.0

    # aggregate coincident output points before any norm is taken
    Lcols = _grid_length(tau_max, _DTAU)
    rows = _row(n_out, N)
    cols = np.rint((t_out + tau_max) / _DTAU).astype(np.int64)
    key = rows * Lcols + cols
    uniq, inv = np.unique(key, return_inverse=True)
    agg = np.zeros(uniq.size, dtype=np.complex128)
    np.add.at(agg, inv, prod)
    agg *= _DTAU  # tau-convolution measure
    u_rows = uniq // Lcols
    u_cols = uniq % Lcols
    u_n = _signed_modes(N)[u_rows]
    u_t = -tau_max + u_cols * _DTAU
    mod = _modulation(u_n, u_t)

    # weighted norm of the composition without its outer factor: X-part uses
    # w(n,tau)<tau-n^3>^{-1/2}, the companion part uses <tau-n^3>^{-1} with L^1
    w_out = resonance_weight(u_n, u_t, params)
    x_vals = np.abs(agg) * w_out * mod**-0.5
    y_vals = np.abs(agg) * mod**-1.0
    x_part = _sparse_block_sup(u_n, x_vals, N, p)
    # inner L^1 over tau per signed mode, then l^p across the block
    per_row = np.bincount(u_rows, weights=y_vals * _DTAU, minlength=2 * N)
    y_part = _sup_block_lp(per_row**p, p)
    num = x_part + y_part
    den = _sparse_block_sup(n1, np.abs(v1), N, p) * _sparse_block_sup(n2, np.abs(v2), N, p)
    return num / den


def bilinear_ratio_sweep(s, p, params, N_list, trials, seed, weighted=True):
    """Max-ratio table over seeded trial families, one row per (N, trial).

    Needs finite p >= 1, every N >= 2 and trials >= 0. Only the random family
    draws from the trial's rng: at a given N the out_curve_lo, out_curve_hi and
    free_curve rows carry the same ratio at every trial, and each is computed
    once per call.
    """
    if not (math.isfinite(p) and p >= 1):  # the sparse route raises values to the power p
        raise ValueError(f"bilinear_ratio_sweep needs a finite p >= 1, got {p}")
    if any(N < 2 for N in N_list):
        raise ValueError(f"bilinear_ratio_sweep needs every N >= 2, got {list(N_list)}")
    if trials < 0:
        raise ValueError(f"bilinear_ratio_sweep needs trials >= 0, got {trials}")
    rows = []
    for N in N_list:
        fixed = {}  # ratio of each trial-independent family at this N
        for trial in range(trials):
            family = _FAMILIES[trial % len(_FAMILIES)]
            ratio = fixed.get(family)
            if ratio is None:
                rng = sweep_trial_rng(seed, N, trial) if family == "random" else None
                fpts, gpts = family_points(family, N, p, rng)
                ratio = float(_sparse_ratio(fpts, gpts, N, s, p, params, weighted))
                if family != "random":
                    fixed[family] = ratio
            rows.append({"N": int(N), "trial": int(trial), "family": family, "ratio": ratio})
    return rows


# ------------------------------------------------------------ lemma oracles

_ZERO_PLUS = 0.01  # the exponent loss that stands for "0+"


def bracket_product_integral(alpha, beta, a):
    """Quadrature of integral <tau>^-2a <tau-a>^-2b dtau and its decay ratio.

    The comparison exponent is gamma = 2*alpha - [1-2*beta]_+, where the
    bracket [x]_+ means x when positive, 0.01 when exactly 0 (the "0+" case),
    and 0 when negative. Returns (value, value * <a>^gamma).
    """
    from scipy.integrate import quad

    if not 0 <= alpha <= beta:
        raise ValueError("need 0 <= alpha <= beta")
    if not alpha + beta > 0.5:
        raise ValueError("need alpha + beta > 1/2")
    ta, tb = 2.0 * alpha, 2.0 * beta
    nu = ta + tb - 1.0
    aa = abs(float(a))  # symmetric in the sign of the offset

    def fn(t):
        return bracket(t) ** -ta * bracket(t - aa) ** -tb

    def tail_from(T, c):
        # integral_T^inf <t>^-ta <t-c>^-tb dt with T > c, substituted
        # u = t^-nu; the new integrand is bounded and smooth near u = 0,
        # which plain infinite-interval quadrature is not when nu is small
        def g(u):
            lt = -math.log(u) / nu
            if lt > 300.0:
                return 1.0 / nu
            t = math.exp(lt)
            return (t / (1.0 + t)) ** ta * (t / (1.0 + t - c)) ** tb / nu

        part, _ = quad(g, 0.0, T**-nu, limit=400, epsabs=1e-13, epsrel=1e-11)
        return part

    L = max(4.0 * aa, 16.0)
    R0 = aa + L
    segs = [(-L, 0.0), (0.0, aa), (aa, R0)] if aa > 0 else [(-L, R0)]
    value = 0.0
    for lo, hi in segs:
        part, _ = quad(fn, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-11)
        value += part
    value += tail_from(R0, aa) + tail_from(L, -aa)
    x = 1.0 - 2.0 * beta
    if x > 1e-12:
        loss = x
    elif x >= -1e-12:
        loss = _ZERO_PLUS
    else:
        loss = 0.0
    gamma = 2.0 * alpha - loss
    return value, value * bracket(a) ** gamma


def quadratic_bracket_sum(n, lam, l1, l2, cutoff):
    """Sum over n1 of <n1>^-l1 <lam + n1(n-n1)>^-l2, with a tail bound.

    The tail bound covers everything beyond the cutoff and is rigorous once
    cutoff >= 2(|n| + sqrt|lam| + 2); below that it is reported as inf.
    """
    if not (l1 > 0 and l2 > 0):
        raise ValueError("exponents must be positive")
    if not l1 + 2 * l2 > 1:
        raise ValueError("need l1 + 2*l2 > 1")
    cutoff = int(cutoff)
    total = 0.0
    chunk = 10**6
    for lo in range(-cutoff, cutoff + 1, chunk):
        n1 = np.arange(lo, min(lo + chunk, cutoff + 1), dtype=float)
        mask = (n1 != 0) & (n1 != n)
        n1 = n1[mask]
        total += float(
            np.sum(
                bracket(n1) ** (-l1) * bracket(lam + n1 * (n - n1)) ** (-l2)
            )
        )
    decay = l1 + 2 * l2
    if cutoff >= 2 * (abs(n) + math.sqrt(abs(lam)) + 2):
        tail = 2.0 * 4.0**l2 * cutoff ** (1.0 - decay) / (decay - 1.0)
    else:
        tail = math.inf
    return total, tail


def _bracket_antideriv(eta, e):
    """Signed antiderivative of <eta>^-e."""
    eta = np.asarray(eta, dtype=float)
    if e == 1.0:
        return np.sign(eta) * np.log1p(np.abs(eta))
    return np.sign(eta) * ((1.0 + np.abs(eta)) ** (1.0 - e) - 1.0) / (1.0 - e)


_N1_MAX = 10**4  # truncation of the union over n1


def resonance_set_integral(n, exponent, c0=1.0):
    """integral of <eta>^-exponent over the union of resonance windows.

    The set unions, over n1 not in {0, n} with |n1| <= 10^4, the intervals
    of half-width c0*<n*n1*(n-n1)>^(1/100) centered at -3*n*n1*(n-n1).
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    if c0 == 0.0:
        return 0.0
    n1 = np.arange(-_N1_MAX, _N1_MAX + 1, dtype=float)
    n1 = n1[(n1 != 0) & (n1 != n)]
    prod = n * n1 * (n - n1)
    centers = -3.0 * prod
    half = c0 * bracket(prod) ** 0.01
    lefts = centers - half
    rights = centers + half
    order = np.argsort(lefts)
    lefts, rights = lefts[order], rights[order]
    run_max = np.maximum.accumulate(rights)
    new_group = np.empty(lefts.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = lefts[1:] > run_max[:-1]
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], lefts.size) - 1
    merged_l = lefts[starts]
    merged_r = run_max[ends]
    return float(
        np.sum(_bracket_antideriv(merged_r, exponent) - _bracket_antideriv(merged_l, exponent))
    )


# -------------------------------------------------------- time localization

_BUMP_NODES = 4097
_TIME_LOC_CHUNK = 1 << 18  # complex entries per chunk of transformed rows (4 MiB)


def _smoothstep(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        lo = np.where(x > 0, np.exp(-1.0 / np.where(x > 0, x, 1.0)), 0.0)
        hi = np.where(x < 1, np.exp(-1.0 / np.where(x < 1, 1.0 - x, 1.0)), 0.0)
    return np.where(x <= 0, 0.0, np.where(x >= 1, 1.0, lo / (lo + hi)))


def bump(t):
    """Smooth even cutoff: 1 on |t| <= 1/2, 0 outside |t| < 1."""
    out = _smoothstep(2.0 * (1.0 - np.abs(np.asarray(t, dtype=float))))
    return float(out) if np.isscalar(t) else out


@functools.cache
def _bump_quadrature():
    t = np.linspace(0.0, 1.0, _BUMP_NODES)
    w = np.full(_BUMP_NODES, t[1] - t[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, bump(t) * w


def bump_transform(xi):
    """Real, even frequency profile of the cutoff: 2 * int_0^1 bump(t) cos(xi t) dt."""
    t, bw = _bump_quadrature()
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.empty(xi_arr.size)
    chunk = 2048
    buf = np.empty((min(chunk, xi_arr.size), t.size))  # one chunk's phases, then cosines
    for lo in range(0, xi_arr.size, chunk):
        seg = xi_arr[lo : lo + chunk]
        phase = np.outer(seg, t, out=buf[: seg.size])
        out[lo : lo + chunk] = 2.0 * (np.cos(phase, out=phase) @ bw)
    return float(out[0]) if np.isscalar(xi) else out.reshape(np.shape(xi))


def _bump_transform_grid(step, L):
    """bump_transform(step * k) for k = 0..L-1 by one chirp-z transform.

    The same quadrature sum as bump_transform, with node t_j = j/(J-1): by
    k*j = (k^2 + j^2 - (k-j)^2)/2 it is a chirp times one linear convolution
    of bw_j e^{iwj^2/2} against e^{-iwm^2/2}, m = -(J-1)..L-1, w = step/(J-1).
    The period covers the whole linear convolution, so nothing wraps.
    """
    _t, bw = _bump_quadrature()
    J = bw.size
    w = step / (J - 1)
    j = np.arange(J, dtype=float)
    m = np.arange(-(J - 1), L, dtype=float)
    n = 1 << (2 * J + L - 3).bit_length()  # a power of two >= 2J+L-2
    chirped = np.fft.fft(bw * np.exp(0.5j * w * j**2), n)
    conv = np.fft.ifft(chirped * np.fft.fft(np.exp(-0.5j * w * m**2), n))
    k = np.arange(L, dtype=float)
    return 2.0 * (np.exp(0.5j * w * k**2) * conv[J - 1 : J - 1 + L]).real


def time_localization_check(f, T, s, p):
    """Ratio of the time-localized flat-modulation norm to its predicted size.

    Multiplication by the dilated cutoff acts as tau-convolution against its
    transform; the result's X^{s,0}_p norm is compared against
    T^{1/p} * X^{s,1/2}_p of the input. Returns 0 for zero input.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"time_localization_check needs a finite T > 0, got {T}")
    if not p >= 1:
        raise ValueError(f"time_localization_check needs p >= 1, got {p}")
    den = T ** (1.0 / p) * bourgain_norm(f, s, 0.5, p)
    if den == 0.0:
        return 0.0
    L = f.L
    # the kernel is even: evaluate offsets 0..L-1 and mirror them to -(L-1)..L-1
    half = _bump_transform_grid(2.0 * T * f.dtau, L)
    ker = (2.0 * T / (2.0 * np.pi)) * np.concatenate([half[:0:-1], half])
    # full linear outputs L-1..2L-2 only: at a period >= 2L-1 no wrap reaches them
    n = 1 << (2 * L - 2).bit_length()
    ker_hat = np.fft.fft(ker, n)
    # a chunk of rows at a time bounds the transformed copy; numpy.fft transforms
    # each row alike however many rows a call holds, so the bits do not change
    step = max(1, _TIME_LOC_CHUNK // n)
    conv = np.empty_like(f.values)
    for r0 in range(0, conv.shape[0], step):
        seg = np.fft.fft(f.values[r0 : r0 + step], n, axis=1)
        seg *= ker_hat
        seg = np.fft.ifft(seg, axis=1)
        np.multiply(seg[:, L - 1 : 2 * L - 1], f.dtau, out=conv[r0 : r0 + step])
    loc = SpaceTimeCoeffs(f.N, f.tau_max, f.dtau, conv)
    return bourgain_norm(loc, s, 0.0, p) / den
