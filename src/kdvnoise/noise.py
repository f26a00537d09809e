"""Sampling of the mean-zero Gaussian coefficient measure and its statistics.

Each retained mode gets an independent standard complex Gaussian (real and
imaginary parts i.i.d. N(0,1)), matching the density proportional to
exp(-l2_mass/4) on the truncated lattice. Streams are split with
SeedSequence([seed, stream]) so any member of any ensemble can be regenerated
independently of batch layout.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectral import FourierField, besov_norm_batch, l2_mass

__all__ = [
    "GaussianSampleSpec",
    "decay_median_curve",
    "decay_ratio",
    "fit_log_tail",
    "log_density_unnormalized",
    "sample",
    "sample_batch",
    "tail_probability",
    "tail_sweep",
]


@dataclasses.dataclass(frozen=True)
class GaussianSampleSpec:
    """Which draw to make: cutoff, base seed, and stream index within the seed."""

    N: int
    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("cutoff must be positive")
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be nonnegative")


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _draw(rng, N):
    re = rng.standard_normal(N)
    im = rng.standard_normal(N)
    return re + 1j * im


def sample(spec):
    """One field drawn from the coefficient measure."""
    return FourierField(spec.N, _draw(_rng(spec.seed, spec.stream), spec.N))


def sample_batch(N, count, seed, stream_start=0):
    """(count, N) coefficient rows; row i is exactly the stream_start+i stream."""
    out = np.empty((count, N), dtype=np.complex128)
    for i in range(count):
        out[i] = _draw(_rng(seed, stream_start + i), N)
    return out


def log_density_unnormalized(f):
    """log of the sampling density up to its normalization: -l2_mass/4."""
    return -l2_mass(f) / 4.0


def tail_probability(norm_spec, N, K, samples, seed):
    """Monte Carlo estimate of P(norm > K) with its binomial standard error."""
    row = tail_sweep(norm_spec, N, [K], samples, seed)[0]
    return row["estimate"], row["stderr"]


def _wilson(count, n, z=2.576):
    """Wilson score interval for a binomial proportion (99% by default)."""
    if n == 0:
        return 0.0, 1.0
    p = count / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def tail_sweep(norm_spec, N, Ks, samples, seed):
    """Tail estimates over a K grid from one shared batch of norms."""
    batch = sample_batch(N, samples, seed)
    norms = besov_norm_batch(batch, norm_spec)
    rows = []
    for K in Ks:
        count = int(np.sum(norms > K))
        est = count / samples
        lo, hi = _wilson(count, samples)
        rows.append(
            {
                "K": float(K),
                "count": count,
                "samples": samples,
                "estimate": est,
                "stderr": math.sqrt(est * (1.0 - est) / samples),
                "wilson_low": lo,
                "wilson_high": hi,
                "censored": count == 0,
            }
        )
    return rows


def fit_log_tail(rows):
    """Weighted least squares of log(estimate) against K^2.

    Zero-count rows carry no usable log estimate and are dropped (censoring);
    weights are the exceedance counts, approximating inverse variance of the
    log proportion.
    """
    usable = [r for r in rows if not r["censored"]]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 uncensored rows, have {len(usable)}")
    x = np.array([r["K"] ** 2 for r in usable])
    y = np.log(np.array([r["estimate"] for r in usable]))
    w = np.array([r["count"] for r in usable], dtype=float)
    W = w.sum()
    xb = np.sum(w * x) / W
    yb = np.sum(w * y) / W
    sxx = np.sum(w * (x - xb) ** 2)
    slope = np.sum(w * (x - xb) * (y - yb)) / sxx
    intercept = yb - slope * xb
    resid = y - (intercept + slope * x)
    dof = len(usable) - 2
    s2 = np.sum(w * resid**2) / dof if dof > 0 else np.nan
    slope_se = math.sqrt(s2 / sxx)
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "slope_se": float(slope_se),
        "ci99": (float(slope - 2.576 * slope_se), float(slope + 2.576 * slope_se)),
        "n_points": len(usable),
    }


def decay_ratio(M, delta, seed):
    """Block concentration statistic M^(1-delta) * max|g|^2 / sum|g|^2.

    g runs over one dyadic block {M..2M-1} of independent standard complex
    Gaussians; M must be a power of two.
    """
    if M < 1 or (M & (M - 1)) != 0:
        raise ValueError(f"M must be a power of two, got {M}")
    g = _draw(_rng(seed, M), M)
    mags = np.abs(g) ** 2
    return float(M ** (1.0 - delta) * mags.max() / mags.sum())


def decay_median_curve(Ms, delta, n_seeds, seed0=0):
    """Median of decay_ratio over seeds seed0..seed0+n_seeds-1, per block size."""
    out = []
    for M in Ms:
        vals = [decay_ratio(M, delta, seed0 + k) for k in range(n_seeds)]
        out.append(float(np.median(vals)))
    return out
