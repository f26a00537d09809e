"""The package's one pool of worker processes, shared by the flow, the sampler
and the bilinear ratio sweep.

Every run that splits its work goes through _spread, with one rule: its
items, each with a cost, are dealt into n = min(workers, items) parts
(_processes; workers=None counts every CPU the process may use, so CPU
affinity bounds n), longest first, each to the part with the least cost so
far (_deal). The caller runs part 0 and sends each other part to the pool as
one task, so a run keeps at most n - 1 tasks in flight; zero items or one
item start no process. A result depends on its item alone, so the results,
returned in item order, do not depend on n. On equal costs item i goes to
part i mod n. evolve_batch's items are its 512-row chunks, tail_sweep's the
sampling loop's blocks and bilinear_ratio_sweep's its (N, family) and
(N, trial) cells.

The pool holds at least the n - 1 workers its largest run asked for: forked
where the platform can fork, made by the first run that needs it, and
replaced only by a run that asks for more workers. Only that first run
imports the process machinery, so a process whose runs all fit the caller
never loads it. A worker ignores SIGINT, which reaches the caller alone, and
exits once its parent is gone. A worker that dies fails its run with
BrokenExecutor and closes the pool; the next run that needs one forks anew.
"""
from __future__ import annotations

import atexit
import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor

__all__: list[str] = []

# (executor, size), or None until a run needs workers
_pool = None
_pool_lock = threading.Lock()


def _forget_parent():
    """Run in a forked child: the parent's pool is not its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent)


def _processes(workers, parts):
    """Processes a run of parts parts takes: min(workers, parts), at least one.

    workers=None means every CPU this process may run on.
    """
    if workers is None:
        affinity = hasattr(os, "sched_getaffinity")
        workers = len(os.sched_getaffinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(workers, parts))


def _worker_start(parent):
    """Set a worker process up: SIGINT reaches the caller alone, and the
    worker exits once its parent is gone, killed before it could end the pool."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _submit(fn, args):
    """Send fn(*a) for each tuple a of args to the pool as one task; returns the futures.

    The pool needs len(args) workers. A call that asks for more than the
    pool has replaces it with a larger one, after the old pool's tasks end;
    the lock keeps a replacement from coming between another run's lookup
    and its submit.
    """
    global _pool
    size = len(args)
    with _pool_lock:
        if _pool is None or _pool[1] < size:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if _pool is not None:
                _pool[0].shutdown()
            fork = "fork" in multiprocessing.get_all_start_methods()
            executor = ProcessPoolExecutor(
                size,
                mp_context=multiprocessing.get_context("fork" if fork else None),
                initializer=_worker_start,
                initargs=(os.getpid(),),
            )
            _pool = (executor, size)
        return [_pool[0].submit(fn, *a) for a in args]


def _close_pool():
    """Shut the pool down; the next run that needs workers makes a new one."""
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool[0].shutdown()


# before the interpreter tears its modules down, which would otherwise
# collect the pool after its process machinery is gone
atexit.register(_close_pool)


def _deal(costs, n):
    """Item indices of n parts: longest first, each to the least-loaded part;
    each part lists its items in their original order."""
    parts, loads = [[] for _ in range(n)], [0] * n
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        k = loads.index(min(loads))
        parts[k].append(i)
        loads[k] += costs[i]
    return [sorted(part) for part in parts]


def _spread(fn, items, costs, args=(), workers=None):
    """fn's result for each of items, in item order, from fn(part, *args) on each part.

    items are dealt by their costs into _processes(workers, len(items)) parts;
    fn(part, *args) returns one result per item of part. The caller runs
    part 0, and each other part is one pool task. A dead worker's
    BrokenExecutor closes the pool, and a run that raises cancels every task
    that has not started.
    """
    parts = _deal(costs, _processes(workers, len(items)))
    lists = [[items[i] for i in part] for part in parts]
    futures = []
    try:
        if len(lists) > 1:
            futures = _submit(fn, [(part, *args) for part in lists[1:]])
        results = [fn(lists[0], *args), *(fut.result() for fut in futures)]
    except BrokenExecutor:
        _close_pool()
        raise
    finally:
        for fut in futures:
            fut.cancel()
    out = [None] * len(items)
    for part, values in zip(parts, results):
        for i, value in zip(part, values):
            out[i] = value
    return out
