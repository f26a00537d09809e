import pytest

from kdvnoise import estimates, noise, pool


@pytest.fixture
def fresh_pool():
    """No worker pool when the test starts or ends: its runs fork their
    workers from the modules as the test patched them, and later tests never
    run on those workers."""
    pool._close_pool()
    yield
    pool._close_pool()


@pytest.fixture
def split(monkeypatch):
    """Fix the number of processes tail_sweep and bilinear_ratio_sweep take,
    as CPU affinity would: split(n) caps it at n, and split(None) counts
    every CPU again."""

    def processes(n):
        for module in (noise, estimates):
            monkeypatch.setattr(module, "_processes", lambda _, parts: pool._processes(n, parts))

    return processes
