"""Sampling of the mean-zero Gaussian coefficient measure and its statistics.

Each retained mode gets an independent standard complex Gaussian (real and
imaginary parts i.i.d. N(0,1)), matching the density proportional to
exp(-l2_mass/4) on the truncated lattice. Row i of a batch is stream
stream_start+i: the N real parts, then the N imaginary parts, drawn by
default_rng(SeedSequence([seed, stream])). Any member of any ensemble can
therefore be regenerated from (seed, stream), independently of batch layout.

One sampling loop draws every row: sample_batch, tail_sweep and
decay_median_curve (whose rows share one stream over a range of seeds) all
read its blocks. It builds no per-row SeedSequence. It hashes the
SeedSequence pools and generate_state words of a block of rows at once in
uint32 arithmetic, hands each row's four words to a PCG64 through a minimal
ISeedSequence, so numpy's own set-seed step makes the state, and draws the
row's 2N normals with one call (the ziggurat keeps no cache between calls,
so this equals the two N-draws). A block is at most 512 rows and at most
2^17 complex values, so its buffers stay near 2 MB at any N. NumPy's random
policy (NEP 19) keeps the SeedSequence hash, PCG64 seeding and the normal
stream fixed across releases, and the tests compare every row byte for byte
with the per-row construction.

tail_sweep deals the sampling loop's blocks over the worker pool the flow
shares, as kdvnoise.pool describes.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .pool import _spread
from .spectral import FourierField, _besov_norm_rows, _integer, l2_mass
# besov_norm_batch stays importable from here: bench/workloads.py traces
# noise.besov_norm_batch
from .spectral import besov_norm_batch  # noqa: F401

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
        _integer(self.N, "N", 1)
        _integer(self.seed, "seed", 0)
        _integer(self.stream, "stream", 0)


# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_BLOCK = 512  # most rows per block of the sampling loop
_BLOCK_VALUES = 2**17  # most complex values per block: 2 MB of complex128
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


class _Words(ISeedSequence):
    """A seed sequence that gives PCG64 one row's four hashed uint64 words.

    PCG64 asks it for generate_state(4, uint64) and reads the raw buffer,
    so words must be a C-contiguous uint64 array of 4; numpy's own set-seed
    step then makes the state.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _seed_words(seed, stream, count, step_seed=False):
    """generate_state(4, uint64) of SeedSequence([seed, stream]) for count rows.

    The stream, or with step_seed the seed, runs over count consecutive
    values. The range is cut where the high words of that value change, so
    within a piece only its low word varies and every other entropy word is
    a constant. Returns a C-contiguous (count, 4) uint64 array.
    """
    out = np.empty((count, 4), dtype=np.uint64)
    lo = start = seed if step_seed else stream
    stop = start + count
    while start < stop:
        hi = min(stop, (start | _M32) + 1)
        seed_words = _int_words(start if step_seed else seed)
        words = seed_words + _int_words(stream if step_seed else start)
        words += [0] * (_POOL - len(words))
        entropy = np.repeat(np.array(words, dtype=np.uint32)[:, None], hi - start, axis=1)
        entropy[0 if step_seed else len(seed_words)] += np.arange(hi - start, dtype=np.uint32)
        out[start - lo : hi - lo] = _generate_state(entropy).T
        start = hi
    return out


def _block_rows(N, count):
    """Rows per block of the sampling loop: at most _BLOCK and _BLOCK_VALUES / N."""
    return max(1, min(count, _BLOCK, _BLOCK_VALUES // N))


def _sample_blocks(N, count, seed, stream_start, out=None, step_seed=False, starts=None):
    """The sampling loop: count rows, row i stream stream_start+i of seed.

    With step_seed, row i is instead stream stream_start of seed seed+i.
    Each pass hashes the seed words of one block of _block_rows(N, count)
    rows and draws them into one parts buffer. The rows go into out[b0:b1]
    when out is given, else into one reused block, which the next pass
    overwrites. starts lists the first rows of the blocks to draw, in order,
    by default every block's. Yields (b0, block) for each filled block.
    """
    size = _block_rows(N, count)
    block = None if out is not None else np.empty((size, N), dtype=np.complex128)
    # each row's N real then N imaginary parts
    parts = np.empty((size, 2 * N))
    for b0 in range(0, count, size) if starts is None else starts:
        b1 = min(count, b0 + size)
        first = (seed + b0, stream_start) if step_seed else (seed, stream_start + b0)
        for row, w in zip(parts, _seed_words(*first, b1 - b0, step_seed)):
            np.random.Generator(np.random.PCG64(_Words(w))).standard_normal(out=row)
        rows = parts[: b1 - b0].reshape(b1 - b0, 2, N)
        dest = out[b0:b1] if out is not None else block[: b1 - b0]
        dest.real = rows[:, 0]
        dest.imag = rows[:, 1]
        yield b0, dest


def sample_batch(N, count, seed, stream_start=0):
    """(count, N) coefficient rows; row i is exactly the stream_start+i stream."""
    N, count = _integer(N, "N", 1), _integer(count, "count", 0)
    seed, stream_start = _integer(seed, "seed", 0), _integer(stream_start, "stream", 0)
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


def _block_norms(starts, norm_spec, N, samples, seed):
    """Norms of the streams of each of tail_sweep's blocks that starts at a row of starts.

    The blocks are the sampling loop's over samples rows, each normed as it is
    drawn into one reused block.
    """
    weighted = np.empty((_block_rows(N, samples), N))
    blocks = _sample_blocks(N, samples, seed, 0, starts=starts)
    return [_besov_norm_rows(block, norm_spec, weighted[: len(block)]) for _, block in blocks]


def tail_sweep(norm_spec, N, Ks, samples, seed):
    """Tail estimates over a K grid from the norms of streams 0..samples-1.

    The sampling loop's blocks, costed by their rows, are dealt over the
    shared worker pool as kdvnoise.pool describes, and each process norms
    its blocks as they are drawn, so it holds one block and its blocks'
    norms however large samples is.
    """
    N, samples = _integer(N, "N", 1), _integer(samples, "samples", 1)
    seed = _integer(seed, "seed", 0)
    Ks = [float(K) for K in Ks]
    if not all(map(math.isfinite, Ks)):
        raise ValueError(f"every K must be finite, got {Ks}")
    size = _block_rows(N, samples)
    starts = list(range(0, samples, size))
    costs = [min(size, samples - b0) for b0 in starts]
    norms = np.concatenate(_spread(_block_norms, starts, costs, (norm_spec, N, samples, seed)))
    rows = []
    for K in Ks:
        count = int(np.sum(norms > K))
        est = count / samples
        lo, hi = _wilson(count, samples)
        rows.append(
            {
                "K": K,
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
    if not np.isfinite(x).all() or len(set(x)) < 2:
        raise ValueError("the uncensored rows need finite K and at least 2 distinct K^2")
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
    Gaussians, the stream M row of seed; M must be a power of two.
    """
    return decay_median_curve([M], delta, 1, seed)[0]


def decay_median_curve(Ms, delta, n_seeds, seed0=0):
    """Median of decay_ratio over seeds seed0..seed0+n_seeds-1, per block size.

    Each block size M reads the stream M rows of the n_seeds seeds from the
    sampling loop, block by block.
    """
    n_seeds, seed0 = _integer(n_seeds, "n_seeds", 1), _integer(seed0, "seed", 0)
    out = []
    for M in Ms:
        if _integer(M, "M", 1) & (M - 1):
            raise ValueError(f"M must be a power of two, got {M}")
        vals = np.empty(n_seeds)
        for b0, g in _sample_blocks(M, n_seeds, seed0, M, step_seed=True):
            mags = np.abs(g) ** 2
            vals[b0 : b0 + len(g)] = M ** (1.0 - delta) * mags.max(axis=1) / mags.sum(axis=1)
        out.append(float(np.median(vals)))
    return out
