"""The shared worker pool's one dealing rule: pool._deal and pool._spread."""
import contextlib
import multiprocessing
import os
import signal
import time

import pytest

from kdvnoise import estimates, pool
from kdvnoise.estimates import WeightParams, bilinear_ratio_sweep


def tagged(part, tag):
    """Each item of part with the tag and the pid of the process that ran it.

    A part takes 0.1 s, so a worker holds its part while the other workers
    take theirs; an instant part let one worker take two parts.
    """
    time.sleep(0.1)
    return [(item, tag, os.getpid()) for item in part]


def doubled(part, caller, seconds):
    """Each item of part doubled; a worker first sleeps for seconds."""
    if os.getpid() != caller:
        time.sleep(seconds)
    return [2 * item for item in part]


def nested(part, caller, workers):
    """tagged(part, "outer") in a worker; in the caller, a run of tagged over
    part with the tag "inner" and workers nested in this one."""
    if os.getpid() != caller:
        return tagged(part, "outer")
    return pool._spread(tagged, part, [1] * len(part), ("inner",), workers)


@contextlib.contextmanager
def alarm(seconds, exc):
    """Raise exc in the main thread after seconds, unless the body ends first."""
    def ring(signum, frame):
        raise exc

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDeal:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("items", [1, 2, 5, 9])
    @pytest.mark.parametrize("last", [512, 52])
    def test_equal_costs_deal_round_robin(self, n, items, last):
        # the flow's chunks: every one 512 rows but maybe the last
        costs = [512] * (items - 1) + [last]
        n = min(n, items)
        assert pool._deal(costs, n) == [list(range(k, items, n)) for k in range(n)]

    def test_parts_keep_item_order(self):
        parts = pool._deal([1, 9, 4, 9, 2, 7], 3)
        assert sorted(i for part in parts for i in part) == list(range(6))
        assert all(part == sorted(part) for part in parts)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("N", [8, 16, 32, 64])
    def test_estimates_bench_cells_balanced(self, monkeypatch, N, n):
        # the costs one call of the estimates bench deals: 20 trials at one N,
        # three fixed families and five random trials
        dealt = []

        def record(fn, items, costs, args):
            dealt.append(costs)
            return [0.0] * len(items)

        monkeypatch.setattr(estimates, "_spread", record)
        bilinear_ratio_sweep(-0.49, 2.1, WeightParams(), [N], 20, 1)
        (costs,) = dealt
        assert len(costs) == 8
        loads = [sum(costs[i] for i in part) for part in pool._deal(costs, n)]
        # longest first to the least-loaded part: no part exceeds another by
        # more than one cell
        assert max(loads) - min(loads) <= max(costs)


class TestSpread:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_item_order(self, fresh_pool, workers):
        items = list(range(11))
        costs = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        got = pool._spread(tagged, items, costs, ("t",), workers)
        assert [(item, tag) for item, tag, _ in got] == [(i, "t") for i in items]
        pids = {pid for _, _, pid in got}
        assert len(pids) == workers
        # the caller runs part 0, which holds the longest item
        assert got[costs.index(max(costs))][2] == os.getpid()

    @pytest.mark.parametrize("items", [[], ["one"]])
    def test_zero_or_one_item_starts_no_process(self, fresh_pool, items):
        for workers in (None, 3):
            got = pool._spread(tagged, items, [1] * len(items), ("t",), workers)
            assert got == [(item, "t", os.getpid()) for item in items]
        assert multiprocessing.active_children() == []

    def test_interrupted_wait_closes_its_worker(self, fresh_pool):
        # an interrupt while the caller waits for a reply closes that worker,
        # so the next run never reads the reply the interrupted run left
        caller, items = os.getpid(), list(range(5))
        want = pool._spread(doubled, items, [1] * 5, (caller, 0), 1)
        assert pool._spread(doubled, items, [1] * 5, (caller, 0), 2) == want
        (pid,) = [p.pid for p in multiprocessing.active_children()]
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            with alarm(0.5, KeyboardInterrupt):
                pool._spread(doubled, [0, 1], [1, 1], (caller, 30), 2)
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == []
        assert pool._spread(doubled, items, [1] * 5, (caller, 0), 2) == want
        (new,) = [p.pid for p in multiprocessing.active_children()]
        assert new != pid

    @pytest.mark.parametrize("inner", [2, 3])
    def test_nested_run_in_item_order(self, fresh_pool, inner):
        # a run inside the caller's part takes only idle workers, forking
        # past the pool only for a larger request, so it never waits for
        # the workers of the run around it
        items = list(range(9))
        with alarm(60, TimeoutError):
            got = pool._spread(nested, items, [1] * 9, (os.getpid(), inner), 2)
        assert [item for item, _, _ in got] == items
        assert {tag for _, tag, _ in got} == {"inner", "outer"}
        assert len(multiprocessing.active_children()) == inner - 1
