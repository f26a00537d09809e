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
