"""Independent reference implementations used to derive expected values.

Everything here is deliberately naive: plain loops, real-space quadrature,
brute-force scans. These are the oracles the fast library paths are tested
against, so they must not share code with src/.
"""
import numpy as np


def bracket(x):
    return 1.0 + np.abs(x)


def two_sided(coeffs):
    """Map positive-mode coefficients to a dict n -> value over the full lattice."""
    N = len(coeffs)
    out = {}
    for i in range(N):
        out[i + 1] = coeffs[i]
        out[-(i + 1)] = np.conj(coeffs[i])
    return out


def besov_brute(coeffs, s, p, q):
    """Term-by-term dyadic block norm, one block at a time."""
    full = two_sided(np.asarray(coeffs, dtype=complex))
    N = len(coeffs)
    if N == 0:
        return 0.0
    jmax = int(np.floor(np.log2(N)))
    block_norms = []
    for j in range(jmax + 1):
        terms = []
        for n, v in full.items():
            if 2**j <= abs(n) < 2 ** (j + 1):
                terms.append((bracket(n) ** s * abs(v)))
        if not terms:
            continue
        if np.isinf(p):
            block_norms.append(max(terms))
        else:
            block_norms.append(sum(t**p for t in terms) ** (1.0 / p))
    if np.isinf(q):
        return max(block_norms) if block_norms else 0.0
    return sum(b**q for b in block_norms) ** (1.0 / q)


def fl_brute(coeffs, s, p):
    full = two_sided(np.asarray(coeffs, dtype=complex))
    terms = [bracket(n) ** s * abs(v) for n, v in full.items()]
    if np.isinf(p):
        return max(terms) if terms else 0.0
    return sum(t**p for t in terms) ** (1.0 / p)


def convolve_direct(fc, gc):
    """Truncated product coefficients by direct double loop, zero mode dropped."""
    N = len(fc)
    f = two_sided(np.asarray(fc, dtype=complex))
    g = two_sided(np.asarray(gc, dtype=complex))
    out = np.zeros(N, dtype=complex)
    for n in range(1, N + 1):
        acc = 0.0 + 0.0j
        for n1, v in f.items():
            n2 = n - n1
            if n2 in g:
                acc += v * g[n2]
        out[n - 1] = acc
    return out


def grid_values(coeffs, M):
    """Real-space samples on M uniform points by direct summation."""
    N = len(coeffs)
    x = 2.0 * np.pi * np.arange(M) / M
    u = np.zeros(M)
    for i in range(N):
        n = i + 1
        u += 2.0 * (coeffs[i].real * np.cos(n * x) - coeffs[i].imag * np.sin(n * x))
    return u


def l2_mass_quadrature(coeffs):
    """Mean of u^2 on a 4N grid; exact for trig degree 2N < 4N."""
    N = len(coeffs)
    M = 4 * N
    u = grid_values(coeffs, M)
    return float(np.mean(u * u))


def hamiltonian_quadrature(coeffs):
    """Mean of (1/2)u_x^2 - (1/6)u^3 on a 4N grid; exact for degree 3N < 4N."""
    N = len(coeffs)
    M = 4 * N
    x = 2.0 * np.pi * np.arange(M) / M
    ux = np.zeros(M)
    for i in range(N):
        n = i + 1
        c = coeffs[i]
        # d/dx of 2(Re c cos(nx) - Im c sin(nx))
        ux += 2.0 * n * (-c.real * np.sin(n * x) - c.imag * np.cos(n * x))
    u = grid_values(coeffs, M)
    return float(np.mean(0.5 * ux * ux - u**3 / 6.0))


def nonlinear_pseudospectral(coeffs):
    """-P_N(u u_x) on a dealiased grid, computed in real space."""
    N = len(coeffs)
    M = 8 * N  # plenty of margin beyond the 2N+1 dealiasing need
    u = grid_values(coeffs, M)
    x = 2.0 * np.pi * np.arange(M) / M
    ux = np.zeros(M)
    for i in range(N):
        n = i + 1
        c = coeffs[i]
        ux += 2.0 * n * (-c.real * np.sin(n * x) - c.imag * np.cos(n * x))
    w = -u * ux
    wh = np.fft.rfft(w) / M
    return wh[1:N + 1]


def if_rk4_step(coeffs, h):
    """One integrating-factor RK4 step written from the formula.

    In the interaction picture v = E(-t) a, with E(t) = exp(i n^3 t), the
    truncated system reads v' = E(-t) F(E(t) v), F the pseudospectral
    quadratic term. Classical RK4 on v from v(0) = a, then a(h) = E(h) v(h).
    """
    a = np.asarray(coeffs, dtype=complex)
    n = np.arange(1, len(a) + 1)

    def E(t):
        return np.exp(1j * n**3 * t)

    def G(t, v):
        return E(-t) * nonlinear_pseudospectral(E(t) * v)

    k1 = G(0.0, a)
    k2 = G(h / 2, a + h / 2 * k1)
    k3 = G(h / 2, a + h / 2 * k2)
    k4 = G(h, a + h * k3)
    return E(h) * (a + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))


def weight_scan(n, tau, C, c0, delta, kmax):
    """Brute-force scan over |k| <= kmax for the resonance weight."""
    if abs(n) < C:
        return 1.0
    r = c0 * bracket(n) ** (1.0 / 100.0)
    total = 1.0
    for k in range(-kmax, kmax + 1):
        if k == 0:
            continue
        if abs(tau - n**3 + 3 * n * (n - k) * k) <= r:
            total += min(bracket(k), bracket(n - k)) ** delta
    return total


def bracket_integral_quad(alpha, beta, a):
    """Adaptive quadrature of the two-bracket product on the real line."""
    from scipy.integrate import quad
    fn = lambda t: bracket(t) ** (-2.0 * alpha) * bracket(t - a) ** (-2.0 * beta)
    pieces = sorted({-np.inf, 0.0, a, np.inf})
    total = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        val, _ = quad(fn, lo, hi, limit=400)
        total += val
    return total


def ks_statistic_brute(a, b):
    """sup |F_a - F_b| over the pooled sample, by direct counting."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pool = np.concatenate([a, b])
    d = 0.0
    for x in pool:
        fa = np.sum(a <= x) / len(a)
        fb = np.sum(b <= x) / len(b)
        d = max(d, abs(fa - fb))
    return float(d)


def gaussian_rows(N, count, seed, stream_start):
    """Coefficient rows built one stream at a time, one Generator per row.

    Row i is default_rng(SeedSequence([seed, stream_start + i])): N real
    parts, then N imaginary parts.
    """
    out = np.empty((count, N), dtype=complex)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, stream_start + i]))
        re = rng.standard_normal(N)
        im = rng.standard_normal(N)
        out[i] = re + 1j * im
    return out
