"""Ensembles, two-sample statistics, and distribution-comparison reports."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .flow import evolve_batch
from .noise import sample_batch
from .spectral import NormSpec, _l2_rows, besov_norm_batch

__all__ = [
    "Ensemble",
    "KsResult",
    "ObservableSpec",
    "generate",
    "generate_control",
    "invariance_report",
    "ks_two_sample",
    "push_forward",
]


@dataclasses.dataclass(frozen=True)
class Ensemble:
    """A population of fields sharing one cutoff, tagged with its origin."""

    N: int
    coeffs: np.ndarray  # (count, N) complex
    time: float
    provenance: dict

    @property
    def count(self):
        return self.coeffs.shape[0]


def generate(N, count, seed):
    """count independent draws of the coefficient measure at time 0."""
    return Ensemble(
        N=N,
        coeffs=sample_batch(N, count, seed),
        time=0.0,
        provenance={"seed": seed, "streams": [0, count], "flow": "initial"},
    )


def generate_control(N, count, seed, variance_factor=1.0, skew=0.0):
    """Deliberately wrong ensembles for falsifying the pass verdict.

    variance_factor scales the coefficient variance; skew != 0 applies
    x -> x + skew*(x^2 - 1) to each Gaussian component, which keeps the mean
    at zero but skews the marginals.
    """
    if not (math.isfinite(variance_factor) and variance_factor >= 0):
        raise ValueError(f"variance_factor must be finite and >= 0, got {variance_factor}")
    if not math.isfinite(skew):
        raise ValueError(f"skew must be finite, got {skew}")
    z = sample_batch(N, count, seed)
    re, im = z.real, z.imag
    if skew != 0.0:
        re = re + skew * (re**2 - 1.0)
        im = im + skew * (im**2 - 1.0)
    return Ensemble(
        N=N,
        coeffs=math.sqrt(variance_factor) * (re + 1j * im),
        time=0.0,
        provenance={
            "seed": seed,
            "streams": [0, count],
            "flow": "initial",
            "control": {"variance_factor": variance_factor, "skew": skew},
        },
    )


def _evolved(e, cfg, coeffs, t):
    """e's members moved to coeffs, time t into a run under cfg.

    Provenance is extended, not replaced; its flow entry records the time
    from the start of the run.
    """
    prov = dict(e.provenance)
    prov["flow"] = {"dt": cfg.dt, "T": t, "integrator": "IF-RK4"}
    return Ensemble(N=e.N, coeffs=coeffs, time=e.time + t, provenance=prov)


def push_forward(e, cfg, workers=None):
    """Evolve every member by cfg; provenance is extended, not replaced."""
    return _evolved(e, cfg, evolve_batch(e.coeffs, cfg, workers=workers), cfg.T)


@dataclasses.dataclass(frozen=True)
class KsResult:
    """Two-sample Kolmogorov-Smirnov distance with asymptotic critical values."""

    D: float
    m: int
    n: int

    def threshold(self, alpha):
        c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
        return c * math.sqrt((self.m + self.n) / (self.m * self.n))

    def passes(self, alpha):
        return self.D <= self.threshold(alpha)


def ks_two_sample(a, b):
    """sup_x |F_a(x) - F_b(x)| over the pooled sample points.

    Both samples must be nonempty and finite: a NaN would sort last and
    quietly shift the empirical distribution.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("both samples must be finite")
    pool = np.concatenate([a, b])
    fa = np.searchsorted(a, pool, side="right") / a.size
    fb = np.searchsorted(b, pool, side="right") / b.size
    return KsResult(D=float(np.max(np.abs(fa - fb))), m=a.size, n=b.size)


def _column(n):
    """Index of mode n in a coefficient row; modes start at 1."""
    if n < 1:
        raise ValueError(f"modes start at 1, got {n}")
    return n - 1


class ObservableSpec:
    """A named scalar functional evaluated member-wise on an ensemble."""

    def __init__(self, name, fn, max_mode=0):
        self.name = name
        self._fn = fn
        self._max_mode = max_mode

    @classmethod
    def mode_re(cls, n):
        i = _column(n)
        return cls(f"re_mode_{n}", lambda e: e.coeffs[:, i].real.copy(), n)

    @classmethod
    def mode_im(cls, n):
        i = _column(n)
        return cls(f"im_mode_{n}", lambda e: e.coeffs[:, i].imag.copy(), n)

    @classmethod
    def mode_abs2(cls, n):
        i = _column(n)
        return cls(f"abs2_mode_{n}", lambda e: np.abs(e.coeffs[:, i]) ** 2, n)

    @classmethod
    def l2_mass(cls):
        return cls("l2_mass", lambda e: _l2_rows(e.coeffs))

    @classmethod
    def norm(cls, spec: NormSpec):
        name = f"besov({spec.s:g},{spec.p:g},{spec.q:g})"
        return cls(name, lambda e: besov_norm_batch(e.coeffs, spec))

    @classmethod
    def pair_corr(cls, n, m):
        i, j = _column(n), _column(m)
        return cls(
            f"pair_corr_{n}_{m}",
            lambda e: (e.coeffs[:, i] * np.conj(e.coeffs[:, j])).real,
            max(n, m),
        )

    def evaluate(self, ensemble):
        if self._max_mode > ensemble.N:
            raise ValueError(
                f"observable {self.name} needs mode {self._max_mode}, cutoff is {ensemble.N}"
            )
        return np.asarray(self._fn(ensemble), dtype=float)

    def __repr__(self):
        return f"ObservableSpec({self.name})"


def invariance_report(e0, eT, observables, alpha):
    """Per-observable KS comparison with Bonferroni-corrected verdicts.

    Each observable is tested at alpha/len(observables); the overall verdict
    is the conjunction. Mean/variance of both sides are attached with a
    combined Monte Carlo standard error for the mean difference.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if e0.N != eT.N:
        raise ValueError(f"cutoff mismatch: {e0.N} vs {eT.N}")
    if e0.count != eT.count:
        raise ValueError(f"member count mismatch: {e0.count} vs {eT.count}")
    if e0.count < 2:  # one member has no sample variance
        raise ValueError(f"need at least 2 members per ensemble, got {e0.count}")
    if not observables:
        raise ValueError("need at least one observable")
    alpha_per = alpha / len(observables)
    rows = []
    for obs in observables:
        va = obs.evaluate(e0)
        vb = obs.evaluate(eT)
        ks = ks_two_sample(va, vb)
        var_a, var_b = float(np.var(va, ddof=1)), float(np.var(vb, ddof=1))
        rows.append(
            {
                "name": obs.name,
                "D": ks.D,
                "threshold": ks.threshold(alpha_per),
                "passes": ks.passes(alpha_per),
                "mean_a": float(np.mean(va)),
                "mean_b": float(np.mean(vb)),
                "mean_se": math.sqrt(var_a / va.size + var_b / vb.size),
                "var_a": var_a,
                "var_b": var_b,
            }
        )
    return {
        "N": e0.N,
        "count": e0.count,
        "alpha": alpha,
        "alpha_per_test": alpha_per,
        "observables": rows,
        "overall_pass": all(r["passes"] for r in rows),
    }
