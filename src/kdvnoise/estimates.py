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

from .pool import _spread
from .spectral import _block_index, _block_reduce, _integer, bracket

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
    bound = _integer(bound, "bound", 0)
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


_WEIGHT_PASS = 1 << 16  # candidates tested per pass: memory is bounded for any c0
_K_LIMIT = 2.0**52  # window ends are clipped here: k stays exact as a float, its cast safe


def _weight_windows(n, d, r):
    """The two integer ranges per point that hold every k with |d + q(k)| <= r.

    q(k) = 3nk(n-k) = 3n^3/4 - 3n(k - n/2)^2 is monotone on each side of n/2
    and equals v where (k - n/2)^2 = n^2/4 - v/(3n). So the k in the window
    have (k - n/2)^2 between its values at v = -d - r and v = -d + r: one range
    below n/2 and one from ceil(n/2) up, each end widened by one to absorb
    float error. A non-finite d has no window. Returns (lo, count), int64 of
    shape (2m,): point i's lower range at 2i, its upper range at 2i + 1, so
    each point's k ascend.
    """
    nf = n.astype(float)
    c = nf / 2.0
    u1 = c * c + (d + r) / (3.0 * nf)
    u2 = c * c + (d - r) / (3.0 * nf)
    u_lo, u_hi = np.minimum(u1, u2), np.maximum(u1, u2)
    live = u_hi >= 0.0  # false for NaN
    a = np.sqrt(np.where(live, np.clip(u_lo, 0.0, None), 0.0))
    b = np.sqrt(np.where(live, u_hi, 0.0))
    mid = np.ceil(c)
    lo = np.stack([np.ceil(c - b) - 1.0, np.maximum(mid, np.ceil(c + a) - 1.0)], axis=1)
    hi = np.stack([np.minimum(mid - 1.0, np.floor(c - a) + 1.0), np.floor(c + b) + 1.0], axis=1)
    lo, hi = np.clip(lo, -_K_LIMIT, _K_LIMIT), np.clip(hi, -_K_LIMIT, _K_LIMIT)
    count = np.where(live[:, None], np.maximum(hi - lo + 1.0, 0.0), 0.0)
    return lo.astype(np.int64).ravel(), count.astype(np.int64).ravel()


def _weight_hits(n, tau, params):
    """Every resonant (point, k) and its gain min(<k>, <n-k>)^delta, by passes.

    n, tau: flat arrays of points with |n| >= C. Enumerates the k of
    _weight_windows, at most _WEIGHT_PASS per pass, and keeps the nonzero k
    with |tau - n^3 + 3nk(n-k)| <= c0 <n>^(1/100). Yields (point, k, gain)
    arrays per pass; point indexes n, and within a point k ascends.
    """
    d = tau - n.astype(float) ** 3
    r = params.c0 * bracket(n) ** 0.01
    lo, count = _weight_windows(n, d, r)
    ends = np.cumsum(count)
    shift = lo - (ends - count)  # k = (flat candidate index) + shift of its range
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, _WEIGHT_PASS):
        flat = np.arange(start, min(start + _WEIGHT_PASS, total))
        rid = np.searchsorted(ends, flat, side="right")
        k = flat + shift[rid]
        point = rid >> 1
        nn, kf = n[point], k.astype(float)
        hit = (k != 0) & (np.abs(d[point] + 3.0 * nn * kf * (nn - kf)) <= r[point])
        point, k, nn = point[hit], k[hit], nn[hit]
        yield point, k, np.minimum(bracket(k), bracket(nn - k)) ** params.delta


def _weight_eval(n, tau, params):
    """Vectorized weight on same-shape int/float arrays: 1 + the gains of all hits."""
    n = np.asarray(n, dtype=np.int64)
    tau = np.asarray(tau, dtype=float)
    out = np.ones(n.shape, dtype=float)
    live = np.abs(n) >= params.C
    m = int(np.count_nonzero(live))
    if not m:
        return out
    gains = np.zeros(m)
    for point, _k, gain in _weight_hits(n[live], tau[live], params):
        np.add.at(gains, point, gain)  # in k order, so passes never regroup a sum
    out[live] = 1.0 + gains
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
    if abs(n) < params.C:
        return []
    hits = _weight_hits(np.array([n], dtype=np.int64), np.array([float(tau)]), params)
    return [term for _p, k, gain in hits for term in zip(k.tolist(), gain.tolist())]


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
        N = _integer(N, "N", 1)
        if not (tau_max > 0 and dtau > 0):
            raise ValueError("grid parameters must be positive")
        L = _grid_length(tau_max, dtau)
        arr = np.asarray(values, dtype=np.complex128)
        if arr.shape != (2 * N, L):
            raise ValueError(f"values must have shape {(2 * N, L)}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite")
        self.N = N
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
        N = _integer(N, "N", 1)
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
    N = _integer(N, "N", 1)
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sparse_ratio(fpts, gpts, N, s, p, params, weighted):
    """Ratio of the stripped composition's weighted norm to |f| |g|, on points.

    Steps: all cross pairs of f and g points, kept where the output mode is
    on the lattice and its tau in the window; the output lattice, one point
    per distinct (row, column), that sums its pairs; one resonance_weight
    pass over the output points, with the f and g points ahead of them when
    weighted; one block reduction of the x part, the y part, |f| and |g| as
    a (4, N) per-mode stack. The X part weights the output by
    w(n,tau)<tau-n^3>^{-1/2} and the companion part by <tau-n^3>^{-1}, with
    an inner L^1 over tau per signed mode. Returns 0 when no pair lands, and
    raises ValueError when float64 overflows and the ratio is not finite.
    """
    n1, t1, v1 = _pts_arrays(fpts)
    n2, t2, v2 = _pts_arrays(gpts)
    tau_max = _default_tau_max(N)
    n_out = n1[:, None] + n2[None, :]
    t_out = t1[:, None] + t2[None, :]
    i1, i2 = np.nonzero((n_out != 0) & (np.abs(n_out) <= N) & (np.abs(t_out) <= tau_max))
    if i1.size == 0:
        return 0.0
    n_out, t_out = n_out[i1, i2], t_out[i1, i2]

    Lcols = _grid_length(tau_max, _DTAU)
    key = _row(n_out, N) * Lcols + np.rint((t_out + tau_max) / _DTAU).astype(np.int64)
    uniq, inv = np.unique(key, return_inverse=True)
    u_rows, u_cols = np.divmod(uniq, Lcols)
    u_n = _signed_modes(N)[u_rows]
    u_t = -tau_max + u_cols * _DTAU
    if weighted:
        w = resonance_weight(np.concatenate([n1, n2, u_n]), np.concatenate([t1, t2, u_t]), params)
        w1, w2, w_out = np.split(w, [n1.size, n1.size + n2.size])
    else:
        w1 = w2 = 1.0
        w_out = resonance_weight(u_n, u_t, params)

    a1 = v1 / (w1 * _modulation(n1, t1) ** 0.5)
    a2 = v2 / (w2 * _modulation(n2, t2) ** 0.5)
    sb = bracket(np.arange(-N, N + 1)) ** s  # <n>^s at n + N
    mult = np.abs(n_out) * sb[n_out + N] / (sb[n1[i1] + N] * sb[n2[i2] + N])
    agg = np.zeros(uniq.size, dtype=np.complex128)
    np.add.at(agg, inv, a1[i1] * a2[i2] * mult)
    agg *= _DTAU  # tau-convolution measure
    mod = _modulation(u_n, u_t)

    rows = np.concatenate([u_rows, u_rows + 2 * N, _row(n1, N) + 4 * N, _row(n2, N) + 6 * N])
    vals = np.concatenate([
        (np.abs(agg) * w_out * mod**-0.5) ** p,
        np.abs(agg) * mod**-1.0,
        np.abs(v1) ** p,
        np.abs(v2) ** p,
    ])
    per_row = np.bincount(rows, weights=vals * _DTAU, minlength=8 * N).reshape(4, 2 * N)
    per_row[1] **= p  # the y part's L^1 in tau per row, to the power p
    per_mode = per_row[:, N - 1 :: -1] + per_row[:, N:]  # the rows of n and -n add
    x_part, y_part, f_norm, g_norm = _block_reduce(per_mode, p).max(axis=1)
    ratio = (x_part + y_part) / (f_norm * g_norm)
    if not math.isfinite(ratio):
        raise ValueError(f"the bilinear ratio at s={s:g}, p={p:g} is not finite in float64")
    return ratio


def _cell_ratios(cells, s, p, params, seed, weighted):
    """The ratio of each sweep cell (N, family, trial); trial is None for a fixed family."""
    ratios = []
    for N, family, trial in cells:
        rng = None if trial is None else sweep_trial_rng(seed, N, trial)
        fpts, gpts = family_points(family, N, p, rng)
        ratios.append(float(_sparse_ratio(fpts, gpts, N, s, p, params, weighted)))
    return ratios


# the dealing's cost proxy, in _sparse_ratio cross pairs (about 0.3 us each on a
# 2-core x86 host): (2N)^2 for a fixed family, and for a random trial its
# 40 * 40 pairs plus the Python draw of its points, which takes as long as
# about 2400 pairs
_RANDOM_CELL_PAIRS = 40 * 40 + 2400


def bilinear_ratio_sweep(s, p, params, N_list, trials, seed, weighted=True):
    """Max-ratio table over seeded trial families, one row per (N, trial).

    Needs finite p >= 1, every N an integer >= 2 and integers trials and seed >= 0.
    Only the random family draws from the trial's rng: at a given N the
    out_curve_lo, out_curve_hi and free_curve rows carry the same ratio at
    every trial, and each is computed once per call.

    The call's distinct cells, (N, family) for a fixed family and (N, trial)
    for a random trial, costed at (2N)^2 cross pairs and _RANDOM_CELL_PAIRS,
    are dealt over the shared worker pool as kdvnoise.pool describes.
    """
    if not (math.isfinite(p) and p >= 1):  # the sparse route raises values to the power p
        raise ValueError(f"bilinear_ratio_sweep needs a finite p >= 1, got {p}")
    N_list = [_integer(N, "N", 2) for N in N_list]
    trials, seed = _integer(trials, "trials", 0), _integer(seed, "seed", 0)
    rows = []  # (N, trial, family, cell) of each row
    for N in N_list:
        for trial in range(trials):
            family = _FAMILIES[trial % len(_FAMILIES)]
            rows.append((N, trial, family, (N, family, trial if family == "random" else None)))
    cells = list(dict.fromkeys(row[3] for row in rows))
    costs = [(2 * N) ** 2 if trial is None else _RANDOM_CELL_PAIRS for N, _f, trial in cells]
    ratios = dict(zip(cells, _spread(_cell_ratios, cells, costs, (s, p, params, seed, weighted))))
    return [
        {"N": N, "trial": trial, "family": family, "ratio": ratios[cell]}
        for N, trial, family, cell in rows
    ]


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
    cutoff = _integer(cutoff, "cutoff", 0)
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
