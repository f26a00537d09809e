"""Sampling of the mean-zero Gaussian coefficient measure and its statistics.

Each retained mode gets an independent standard complex Gaussian (real and
imaginary parts i.i.d. N(0,1)), matching the density proportional to
exp(-l2_mass/4) on the truncated lattice. Row i of a batch is stream
stream_start+i: the N real parts, then the N imaginary parts, drawn by
default_rng(SeedSequence([seed, stream])). Any member of any ensemble can
therefore be regenerated from (seed, stream), independently of batch layout.

The sampling loop behind sample_batch and tail_sweep builds none of those
per-row objects. It hashes the SeedSequence pools and generate_state words
of 512 streams at once in uint32 arithmetic, turns each row's four words
into the PCG64 (state, inc) by the 128-bit set-seed step, assigns that state
to one PCG64 and draws the row's 2N normals with one call (the ziggurat
keeps no cache between calls, so this equals the two N-draws). NumPy's
random policy (NEP 19) keeps the SeedSequence hash, PCG64 seeding and the
normal stream fixed across releases, and the tests compare every row byte
for byte with the per-row construction.
"""
from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np

# besov_norm_batch stays importable from here: bench/workloads.py traces
# noise.besov_norm_batch
from .spectral import FourierField, _besov_norm_rows, besov_norm_batch, l2_mass  # noqa: F401

__all__ = [
    "GaussianSampleSpec",
    "decay_median_curve",
    "decay_ratio",
    "fit_log_tail",
    "log_density_unnormalized",
    "sample",
    "sample_batch",
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


# SeedSequence hash constants (numpy/random/bit_generator.pyx) and the 128-bit
# PCG multiplier (numpy/random/src/pcg64/pcg64.h)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M128 = (1 << 128) - 1
_BLOCK = 512  # rows per hash pass and per draw buffer
_Z99 = 2.576  # two-sided 99% standard normal quantile: Wilson intervals and the fit's ci99


def _hash_consts(init, mult, count):
    """(xor, multiply) columns of count successive hash steps from init."""
    hc = [init]
    for _ in range(count):
        hc.append(hc[-1] * mult & _M32)
    hc = np.array(hc, dtype=np.uint32)[:, None]
    return hc[:-1], hc[1:]


_STATE_XOR, _STATE_MUL = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
# the entropy hash's first 4 steps fill the pool; steps 4..15 take pool word
# src into word dst, src-major over dst != src (the src entry is a placeholder)
_POOL_XOR, _POOL_MUL = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_MIX_ROWS = np.zeros((_POOL, _POOL), dtype=np.intp)
_MIX_ROWS[~np.eye(_POOL, dtype=bool)] = np.arange(_POOL, _POOL * _POOL)
_MIX_XOR, _MIX_MUL = _POOL_XOR[_MIX_ROWS], _POOL_MUL[_MIX_ROWS]


def _int_words(n):
    """The uint32 words SeedSequence reads from a nonnegative int (0 -> [0])."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hash(v, xor, mul):
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x, y):
    v = _MIX_L * x - _MIX_R * y
    return v ^ (v >> 16)


def _generate_state(entropy):
    """SeedSequence(words).generate_state(4, uint64) for each column of words.

    entropy is a (words, columns) uint32 array, zero-padded to at least the
    pool size as SeedSequence pads it. The hash constants do not depend on
    the data. While one pool word is hashed into the three others it does not
    change, so those three hashes are one vectorized step; the step runs on
    all four rows and the source row is put back.
    """
    pool = _hash(entropy[:_POOL], _POOL_XOR[:_POOL], _POOL_MUL[:_POOL])
    for src in range(_POOL):
        h = _hash(pool[src], _MIX_XOR[src], _MIX_MUL[src])
        kept = pool[src].copy()
        pool = _mix(pool, h)
        pool[src] = kept
    # entropy beyond the pool: each word is hashed into all four
    xor, mul = _hash_consts(int(_POOL_MUL[-1, 0]), _MULT_A, _POOL * (len(entropy) - _POOL))
    for k, word in enumerate(entropy[_POOL:]):
        rows = slice(_POOL * k, _POOL * (k + 1))
        pool = _mix(pool, _hash(word, xor[rows], mul[rows]))
    state = _hash(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MUL).astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)


def _pcg_states(seed, start, stop):
    """PCG64 (state, inc) of SeedSequence([seed, s]) for s in range(start, stop).

    The range is cut where the high words of s change, so within a piece only
    the low word varies and every other entropy word is a constant.
    """
    seed_words = _int_words(seed)
    out = []
    while start < stop:
        hi = min(stop, (start | _M32) + 1)
        high = _int_words(start >> 32) if start >> 32 else []
        words = seed_words + [start & _M32] + high
        words += [0] * (_POOL - len(words))
        entropy = np.repeat(np.array(words, dtype=np.uint32)[:, None], hi - start, axis=1)
        entropy[len(seed_words)] += np.arange(hi - start, dtype=np.uint32)
        s0, s1, i0, i1 = _generate_state(entropy).tolist()
        # pcg64_set_seed: inc = 2*seq+1, state = (inc + initstate)*mult + inc
        for a, b, c, d in zip(s0, s1, i0, i1):
            inc = ((c << 64 | d) << 1 | 1) & _M128
            out.append(((((a << 64 | b) + inc) * _PCG_MULT + inc) & _M128, inc))
        start = hi
    return out


def _sample_blocks(N, count, seed, stream_start, out=None):
    """The sampling loop: rows stream_start..stream_start+count of seed.

    Each pass hashes the PCG states of up to _BLOCK streams and draws their
    rows into one parts buffer. The rows go into out[b0:b1] when out is
    given, else into one reused (<= _BLOCK, N) block, which the next pass
    overwrites. Yields (b0, block) for each filled block.
    """
    block = None if out is not None else np.empty((min(count, _BLOCK), N), dtype=np.complex128)
    # each row's N real then N imaginary parts
    parts = np.empty((min(count, _BLOCK), 2 * N))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for b0 in range(0, count, _BLOCK):
        b1 = min(count, b0 + _BLOCK)
        states = _pcg_states(seed, stream_start + b0, stream_start + b1)
        for row, (state, inc) in zip(parts, states):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen.standard_normal(out=row)
        rows = parts[: b1 - b0].reshape(b1 - b0, 2, N)
        dest = out[b0:b1] if out is not None else block[: b1 - b0]
        dest.real = rows[:, 0]
        dest.imag = rows[:, 1]
        yield b0, dest


def _check_rows(N, count, seed, stream_start):
    """seed and stream_start as ints, after checking every argument's range."""
    seed, stream_start = operator.index(seed), operator.index(stream_start)
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if seed < 0 or stream_start < 0:
        raise ValueError("seed and stream must be nonnegative")
    return seed, stream_start


def sample_batch(N, count, seed, stream_start=0):
    """(count, N) coefficient rows; row i is exactly the stream_start+i stream."""
    seed, stream_start = _check_rows(N, count, seed, stream_start)
    out = np.empty((count, N), dtype=np.complex128)
    for _ in _sample_blocks(N, count, seed, stream_start, out):
        pass
    return out


def sample(spec):
    """One field drawn from the coefficient measure."""
    return FourierField(spec.N, sample_batch(spec.N, 1, spec.seed, spec.stream)[0])


def log_density_unnormalized(f):
    """log of the sampling density up to its normalization: -l2_mass/4."""
    return -l2_mass(f) / 4.0


def _wilson(count, n):
    """99% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = count / n
    denom = 1.0 + _Z99 * _Z99 / n
    center = (p + _Z99 * _Z99 / (2 * n)) / denom
    half = (_Z99 / denom) * math.sqrt(p * (1 - p) / n + _Z99 * _Z99 / (4 * n * n))
    # center -/+ half is exactly 0 at count 0 and exactly 1 at count n, but
    # not in floating point
    lo = 0.0 if count == 0 else max(0.0, center - half)
    hi = 1.0 if count == n else min(1.0, center + half)
    return lo, hi


def tail_sweep(norm_spec, N, Ks, samples, seed):
    """Tail estimates over a K grid from the norms of streams 0..samples-1.

    Each block of the sampling loop is normed as it is drawn, so memory holds
    one block and the samples norms however large samples is. A row's norm
    depends on that row only, so the counts equal those of the whole batch.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    seed, _ = _check_rows(N, samples, seed, 0)
    norms = np.empty(samples)
    weighted = np.empty((min(samples, _BLOCK), N))
    for b0, block in _sample_blocks(N, samples, seed, 0):
        norms[b0 : b0 + len(block)] = _besov_norm_rows(block, norm_spec, weighted[: len(block)])
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
    s2 = np.sum(w * resid**2) / dof
    slope_se = math.sqrt(s2 / sxx)
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "slope_se": float(slope_se),
        "ci99": (float(slope - _Z99 * slope_se), float(slope + _Z99 * slope_se)),
        "n_points": len(usable),
    }


def decay_ratio(M, delta, seed):
    """Block concentration statistic M^(1-delta) * max|g|^2 / sum|g|^2.

    g runs over one dyadic block {M..2M-1} of independent standard complex
    Gaussians; M must be a power of two.
    """
    if M < 1 or (M & (M - 1)) != 0:
        raise ValueError(f"M must be a power of two, got {M}")
    g = sample_batch(M, 1, seed, stream_start=M)[0]
    mags = np.abs(g) ** 2
    return float(M ** (1.0 - delta) * mags.max() / mags.sum())


def decay_median_curve(Ms, delta, n_seeds, seed0=0):
    """Median of decay_ratio over seeds seed0..seed0+n_seeds-1, per block size."""
    out = []
    for M in Ms:
        vals = [decay_ratio(M, delta, seed0 + k) for k in range(n_seeds)]
        out.append(float(np.median(vals)))
    return out
