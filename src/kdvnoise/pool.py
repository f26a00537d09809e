"""The package's one pool of worker processes, shared by the flow, the sampler
and the bilinear ratio sweep.

Every run that splits its work goes through _spread, with one rule: it takes
up to n - 1 idle workers, n = min(workers, items) (_processes; workers=None
counts every CPU the process may use, so CPU affinity bounds n), and deals
its items, each with a cost, into one part more than it got, longest first,
each to the part with the least cost so far (_deal). The caller writes each
part but part 0 down its worker's pipe as one task, runs part 0 and reads
the replies in part order; zero items or one item start no process. A
result depends on its item alone, so the results, returned in item order,
do not depend on the number of parts. On equal costs item i goes to part
i mod n. evolve_batch's items are its 512-row chunks, tail_sweep's the
sampling loop's blocks and bilinear_ratio_sweep's its (N, family) and
(N, trial) cells.

A worker is a multiprocessing Process with one duplex Pipe that the caller
alone writes and reads, so no executor thread stands between a run and its
workers. A run forks workers, where the platform can fork, only while the
pool is smaller than its n - 1, so the pool grows to the largest n - 1 asked
for, and a run from another thread or inside a caller part never waits for
one. The first fork imports the process machinery, so a process whose runs
all fit the caller never loads it. A worker ignores SIGINT, which reaches
the caller alone, and exits on EOF from its pipe, so with its caller. A run
reads every reply it is owed before it puts its workers back, and raises
the first error in part order; a run stopped before that closes the workers
it has not heard from, and a broken pipe closes its worker and fails the
run with BrokenExecutor. The next run that needs a worker forks anew.
"""
from __future__ import annotations

import atexit
import os
import pickle
import signal
import threading
from concurrent.futures import BrokenExecutor

__all__: list[str] = []

# every live worker as (process, the caller's end of its pipe), and the idle ones
_workers = set()
_idle = []
_lock = threading.Lock()


def _forget_parent():
    """Run in a forked child: start with no pool, and close the child's
    copies of the pool's caller ends, a new worker's own among them; a copy
    left open would keep its worker from seeing EOF once the caller is gone."""
    global _workers, _idle, _lock
    for _, conn in _workers:
        conn.close()
    _workers, _idle, _lock = set(), [], threading.Lock()


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


def _serve(conn):
    """A worker's loop: reply (True, fn(*args)) or (False, its exception) to
    each pickled (fn, args) from the pipe, until EOF.

    A task that ran a pool of its own leaves workers of this process; they
    are closed before it exits, which would otherwise wait for them.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            try:
                task = conn.recv_bytes()
            except (EOFError, OSError):
                return
            try:
                fn, args = pickle.loads(task)
                reply = True, fn(*args)
            except Exception as exc:
                reply = False, exc
            try:
                conn.send(reply)
            except OSError:
                return
            except Exception as exc:  # the result or the exception would not pickle
                conn.send((False, exc))
    finally:
        _close_pool()


def _fork():
    """Start one worker and add it to the pool; call it holding _lock."""
    import multiprocessing

    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    ours, theirs = context.Pipe()
    worker = (context.Process(target=_serve, args=(theirs,)), ours)
    # in the pool before the fork, so the new worker closes its copy of ours
    _workers.add(worker)
    try:
        worker[0].start()
    except BaseException:
        _workers.discard(worker)
        ours.close()
        raise
    finally:
        theirs.close()
    # registered after multiprocessing's own exit hook, so it runs first:
    # that hook waits for every child, and a worker ends only on EOF
    atexit.unregister(_close_pool)
    atexit.register(_close_pool)
    return worker


def _take(count):
    """Up to count idle workers for one run, forking while the pool has fewer than count."""
    with _lock:
        got = _idle[:count]
        del _idle[:count]
        try:
            while len(got) < count and len(_workers) < count:
                got.append(_fork())
        except BaseException:
            _idle.extend(got)
            raise
    return got


def _close(worker):
    """Take a worker out of the pool and end its process."""
    process, conn = worker
    with _lock:
        _workers.discard(worker)
        if worker in _idle:
            _idle.remove(worker)
    conn.close()
    process.kill()
    process.join()


def _close_pool():
    """Close every worker; the next run that needs workers forks anew."""
    with _lock:
        workers = list(_workers)
    for worker in workers:
        _close(worker)


def _receive(worker):
    """A worker's (ok, value) reply; a broken pipe closes it and reads as BrokenExecutor."""
    try:
        reply = worker[1].recv_bytes()
    except (EOFError, OSError):
        _close(worker)
        return False, BrokenExecutor("a worker process died")
    try:
        return pickle.loads(reply)
    except Exception as exc:
        return False, exc


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

    items are dealt by their costs into one part more than the idle workers
    the run gets, up to _processes(workers, len(items)) parts; fn(part,
    *args) returns one result per item of part. The caller runs part 0 and
    sends each other part to its worker as one task, then reads the replies
    in part order; the first error among the parts, in part order, is raised
    once every reply is in.
    """
    n = _processes(workers, len(items))
    got = _take(n - 1) if n > 1 else []
    parts = _deal(costs, len(got) + 1)
    lists = [[items[i] for i in part] for part in parts]
    waiting = []  # the workers that hold this run's task and owe its reply
    try:
        tasks = [pickle.dumps((fn, (part, *args))) for part in lists[1:]]
        for worker, task in zip(got, tasks):
            waiting.append(worker)
            try:
                worker[1].send_bytes(task)
            except OSError:  # it died since its last run; its reply reads as broken
                _close(worker)
        try:
            replies = [(True, fn(lists[0], *args))]
        except Exception as exc:
            replies = [(False, exc)]
        while waiting:
            replies.append(_receive(waiting[0]))
            del waiting[0]
    finally:
        for worker in waiting:
            _close(worker)
        with _lock:
            _idle.extend(worker for worker in got if worker in _workers)
    for ok, value in replies:
        if not ok:
            raise value
    out = [None] * len(items)
    for part, (_, values) in zip(parts, replies):
        for i, value in zip(part, values):
            out[i] = value
    return out
