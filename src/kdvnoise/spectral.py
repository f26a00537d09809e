"""Mean-zero real trigonometric fields and their static norms.

A field u(x) = sum_{0<|n|<=N} c_n e^{inx} with c_{-n} = conj(c_n) is stored by
its positive-mode coefficients only, so realness and the absent zero mode are
structural rather than checked properties. All norms drop 2*pi factors: sums
run over the integer lattice with counting measure.
"""
from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np

__all__ = [
    "FourierField",
    "NormSpec",
    "bracket",
    "besov_norm",
    "besov_norm_batch",
    "convolve",
    "fl_norm",
    "grid_values",
    "hamiltonian",
    "l2_mass",
]


def _integer(x, name, low):
    """x as an int; a ValueError names the argument unless x is an integer >= low."""
    try:
        value = operator.index(x)
    except TypeError:
        value = None
    if value is None or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {x!r}")
    return value


def bracket(x):
    """Japanese bracket 1 + |x|, elementwise on arrays."""
    return 1.0 + np.abs(x)


class FourierField:
    """Immutable coefficient vector for modes 1..N; negative modes are implied."""

    __slots__ = ("_N", "_coeffs")

    def __init__(self, N, coeffs):
        N = _integer(N, "N", 1)
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.shape != (N,):
            raise ValueError(f"expected {N} coefficients, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self._N = N
        self._coeffs = arr

    @property
    def N(self):
        return self._N

    @property
    def coeffs(self):
        """Read-only array of coefficients for n = 1..N."""
        return self._coeffs

    @classmethod
    def zeros(cls, N):
        return cls.from_pairs(N, {})

    @classmethod
    def from_pairs(cls, N, pairs):
        """Build from a {positive mode: coefficient} mapping."""
        N = _integer(N, "N", 1)
        c = np.zeros(N, dtype=np.complex128)
        for n, v in pairs.items():
            if not 1 <= n <= N:
                raise ValueError(f"mode {n} outside 1..{N}")
            c[n - 1] = v
        return cls(N, c)

    def coeff(self, n):
        """Coefficient at any lattice point |n| <= N (0 at the mean mode)."""
        if n == 0:
            return 0.0
        if abs(n) > self._N:
            raise ValueError(f"mode {n} beyond cutoff {self._N}")
        if n > 0:
            return complex(self._coeffs[n - 1])
        return complex(np.conj(self._coeffs[-n - 1]))

    def __repr__(self):
        return f"FourierField(N={self._N})"


@dataclasses.dataclass(frozen=True)
class NormSpec:
    """Dyadic-block norm parameters: mode weight exponent s, inner p, outer q."""

    s: float
    p: float
    q: float

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError("p must be >= 1")
        if not self.q >= 1:
            raise ValueError("q must be >= 1")


def _dealias_length(N):
    # mode k of a product of two degree-N fields has |k| <= 2N; on an M-point
    # grid it aliases to k + M, which stays above the retained modes 1..N
    # when M > 3N (the 3/2 rule); this is the power of two above 3N
    return 1 << (3 * N).bit_length()


def convolve(f, g, method="transform"):
    """Coefficients of the product fg, truncated back to |n| <= N.

    Two independent routes: "transform" multiplies on a padded grid,
    "direct" sums over the lattice. They are cross-checked in tests and both
    kept on purpose; do not merge them.
    """
    if f.N != g.N:
        raise ValueError(f"cutoff mismatch: {f.N} vs {g.N}")
    N = f.N
    if method == "transform":
        return FourierField(N, _transform_product(f.coeffs, g.coeffs))
    if method == "direct":
        full_f = _two_sided(f.coeffs)
        full_g = _two_sided(g.coeffs)
        # full_f index i holds mode i - N; products land at (i + j) - 2N
        conv = np.convolve(full_f, full_g)
        return FourierField(N, conv[2 * N + 1 : 3 * N + 1])
    raise ValueError(f"unknown method {method!r}")


def _two_sided(coeffs):
    N = len(coeffs)
    out = np.zeros(2 * N + 1, dtype=np.complex128)
    out[N + 1 :] = coeffs
    out[:N] = np.conj(coeffs[::-1])
    return out


def _transform_product(fc, gc):
    """The transform route of convolve along the last axis, for one row or many."""
    N = fc.shape[-1]
    M = _dealias_length(N)
    wh = np.fft.rfft(_grid_from_coeffs(fc, M) * _grid_from_coeffs(gc, M), axis=-1) / M
    return wh[..., 1 : N + 1]


def _grid_from_coeffs(coeffs, M):
    N = coeffs.shape[-1]
    buf = np.zeros(coeffs.shape[:-1] + (M // 2 + 1,), dtype=np.complex128)
    buf[..., 1 : N + 1] = coeffs
    return np.fft.irfft(buf, M, axis=-1) * M


def grid_values(f, M):
    """Real-space samples at x_j = 2*pi*j/M for j = 0..M-1; M is even and >= 2N + 2."""
    if _integer(M, "M", 2 * f.N + 2) % 2 != 0:
        raise ValueError(f"grid length {M} must be even")
    return _grid_from_coeffs(f.coeffs, M)


def _block_index(n):
    """Dyadic block j of a nonzero mode: 2^j <= |n| < 2^(j+1)."""
    return abs(int(n)).bit_length() - 1


def _block_reduce(stats, p):
    """Per-block l^p values from per-|n| statistics over |n| = 1..N (last axis).

    For finite p, stats holds p-th-power sums and each block takes the p-th
    root of their total; for p = inf it holds maxima and each block keeps the
    largest. Blocks [2^j, 2^(j+1)) are clipped to 1..N and read as contiguous
    slices. Returns (..., number of blocks).
    """
    N = stats.shape[-1]
    blocks = []
    for j in range(_block_index(N) + 1):
        seg = stats[..., 2**j - 1 : min(2 ** (j + 1) - 1, N)]
        if math.isinf(p):
            blocks.append(seg.max(axis=-1))
        else:
            blocks.append(np.sum(seg, axis=-1) ** (1.0 / p))
    return np.stack(blocks, axis=-1)


def besov_norm(f, spec):
    """sup/l^q over dyadic blocks of the in-block l^p of <n>^s |c_n|."""
    return float(besov_norm_batch(f.coeffs[None, :], spec)[0])


def besov_norm_batch(coeffs, spec):
    """Vectorized besov_norm over rows of a (count, N) coefficient array."""
    coeffs = np.asarray(coeffs)
    count, N = coeffs.shape
    if count == 0:
        return np.zeros(0)
    return _besov_norm_rows(coeffs, spec, np.empty((count, N)))


@np.errstate(over="ignore", invalid="ignore")
def _besov_norm_rows(coeffs, spec, weighted):
    """besov_norm_batch of nonempty rows, with weighted a float scratch of their shape."""
    n = np.arange(1, coeffs.shape[1] + 1, dtype=float)
    # |c_n| * <n>^s in place: the same products as <n>^s * |c_n|
    np.abs(coeffs, out=weighted)
    weighted *= bracket(n) ** spec.s
    if not math.isinf(spec.p):
        # factor 2: every positive mode has a mirror of equal magnitude
        weighted **= spec.p
        weighted *= 2.0
    stack = _block_reduce(weighted, spec.p)
    if math.isinf(spec.q):
        norms = stack.max(axis=1)
    else:
        norms = np.sum(stack**spec.q, axis=1) ** (1.0 / spec.q)
    if not np.isfinite(norms).all():
        raise ValueError(f"the Besov norm at s={spec.s:g}, p={spec.p:g} is not finite in float64")
    return norms


def fl_norm(f, s, p):
    """Unblocked lattice norm: l^p over all modes of <n>^s |c_n|."""
    n = np.arange(1, f.N + 1, dtype=float)
    weighted = bracket(n) ** s * np.abs(f.coeffs)
    if math.isinf(p):
        return float(weighted.max(initial=0.0))
    return float((2.0 * np.sum(weighted**p)) ** (1.0 / p))


def l2_mass(f):
    """Two-sided sum of |c_n|^2 (the conserved quadratic mass)."""
    return float(_l2_rows(f.coeffs[None, :])[0])


def _l2_rows(coeffs):
    """l2_mass of each row of a (count, N) coefficient array."""
    return 2.0 * np.sum(np.abs(coeffs) ** 2, axis=1)


def hamiltonian(f):
    """Energy (1/2pi) * integral of u_x^2/2 - u^3/6.

    The cubic term uses the product truncated at the cutoff: modes beyond N
    would pair with coefficients that are identically zero, so truncation
    loses nothing here.
    """
    return float(_hamiltonian_rows(f.coeffs[None, :])[0])


def _hamiltonian_rows(coeffs):
    """hamiltonian of each row of a (count, N) coefficient array.

    Rows go through the padded grid 512 at a time, so its buffers stay
    small whatever the count.
    """
    count, N = coeffs.shape
    n = np.arange(1, N + 1, dtype=float)
    out = np.empty(count)
    for lo in range(0, count, 512):
        c = coeffs[lo : lo + 512]
        kinetic = np.sum(n**2 * np.abs(c) ** 2, axis=1)
        cubic_mean = 2.0 * np.real(np.sum(_transform_product(c, c) * np.conj(c), axis=1))
        out[lo : lo + 512] = kinetic - cubic_mean / 6.0
    return out
