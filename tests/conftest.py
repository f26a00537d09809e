import pytest

from kdvnoise import pool


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
    """Fix the number of processes a run with workers=None takes, as CPU
    affinity would: split(n) caps it at n, and split(None) counts every CPU
    again. A run that names its workers keeps them."""
    processes = pool._processes

    def cap(n):
        monkeypatch.setattr(pool, "_processes", lambda workers, parts: processes(workers or n, parts))

    return cap
