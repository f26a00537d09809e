"""How fast the host is running: CPU accounting and a calibration kernel.

On a shared VM the hypervisor takes time from busy vCPUs to run other guests
(steal). A window's stolen share is steal / (busy + steal) over that window,
read from /proc/stat; where /proc/stat is missing the share reads 0.

Even without steal the host's speed drifts: co-tenants on the same cores and
caches slowed the same job by up to 1.5x between runs on the host the
benchmark was built on. calibrate() times a fixed kernel that does not call
the program, so the ratio REFERENCE_KERNEL_S / calibrate() tells how fast the
host runs now against a reference state.
"""
from __future__ import annotations

import math
import time

# calibrate() on the host the benchmark was built on (2 vCPUs, Python 3.11,
# numpy 2.4) in its fast state. It sets only the scale of normalized times.
REFERENCE_KERNEL_S = 6.0e-4


def cpu_ticks():
    """(busy, steal, total) jiffies summed over all CPUs since boot."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            f = [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return 0, 0, 0
    user, nice, system, idle, iowait, irq, softirq, steal = f
    return user + nice + system + irq + softirq, steal, sum(f)


def stolen_share(start, end):
    """Share of busy vCPU time given to other guests between two readings."""
    busy = end[0] - start[0]
    steal = end[1] - start[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0


def _kernel(np):
    """The workloads' mix in miniature: generator set-up per stream, single-row
    and batched FFTs, sorting, and plain interpreter loops."""
    acc = 0.0
    for i in range(16):
        g = np.random.default_rng(np.random.SeedSequence([7, i]))
        acc += float(g.standard_normal(64).sum())
    row = np.ones((1, 257), dtype=complex)
    for _ in range(8):
        u = np.fft.irfft(row, 512, axis=1)
        acc += float(np.fft.rfft(u * u, axis=1)[0, 1].real)
    batch = np.fft.irfft(np.ones((32, 65), dtype=complex), 128, axis=1)
    acc += float(np.fft.rfft(batch * batch, axis=1)[0, 0].real)
    acc += float(np.unique(np.arange(2000) % 97).sum())
    s = 0
    for i in range(2000):
        s += i * i
    return acc + s


def calibrate(rounds=3):
    """Best of `rounds` timings of the kernel, in seconds."""
    import numpy as np

    best = math.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        _kernel(np)
        best = min(best, time.perf_counter() - t0)
    return best
