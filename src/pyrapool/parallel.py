"""How many threads the package may use, and the two ways it uses them.

`PYRAPOOL_THREADS` grants the threads: unset means 1, 0 means every CPU the
process may run on. `map_threads` runs a list of independent calls on the
calling thread plus up to that many minus one workers; `beside` starts calls
on the workers while the calling thread does other work. Threads change only
which core runs a call: each call is the same call on the same bytes, so
results do not depend on the count.

A call made from inside either one (from a worker, or from the calling
thread while it runs them) gets no workers of its own and runs serially. So
the busy threads never exceed the count, and no task ever waits on a task
queued behind it in the same pool.

The workers are started on first use and kept for the life of the process,
one pool per worker count. With a pool made and shut down per call, an
image's trunk passes at 2 threads took 6.5-6.7 ms against 5.6-5.9 ms
(interleaved in-process medians on the benchmark's detection images);
starting and joining one thread alone cost 0.17 ms.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from functools import partial

from .errors import ShapeError

_local = threading.local()  # .nested: this thread already holds a share
_pools: dict = {}  # worker count -> ThreadPoolExecutor
_pools_lock = threading.Lock()


def thread_count() -> int:
    """The threads PYRAPOOL_THREADS grants; a value that is not a
    non-negative integer raises ShapeError naming the variable."""
    raw = os.environ.get("PYRAPOOL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ShapeError(f"PYRAPOOL_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ShapeError(f"PYRAPOOL_THREADS must be >= 0, got {raw!r}")
    return n or _usable_cpus()


def _usable_cpus() -> int:
    """The CPUs this process may run on, not every CPU the machine has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mark_nested():
    _local.nested = True


@contextmanager
def _nested():
    """The calling thread counts as nested inside the block."""
    outer = getattr(_local, "nested", False)
    _local.nested = True
    try:
        yield
    finally:
        _local.nested = outer


def _spare() -> int:
    """Workers a call may start beside the calling thread."""
    return 0 if getattr(_local, "nested", False) else thread_count() - 1


def _forget_pools():
    """A forked child has none of its parent's worker threads."""
    global _pools_lock
    _pools.clear()
    _pools_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


def _pool(workers: int):
    # imported on first use: every workload imports this module through
    # `detection`, and loading concurrent.futures at import raised the peak
    # RSS of runs that start no thread by about 0.5 MB
    from concurrent.futures import ThreadPoolExecutor
    with _pools_lock:
        if workers not in _pools:
            _pools[workers] = ThreadPoolExecutor(
                workers, thread_name_prefix="pyrapool",
                initializer=_mark_nested)
        return _pools[workers]


def map_threads(fn, items) -> list:
    """`[fn(item) for item in items]`, in item order.

    With workers granted, the calling thread takes items from the front and
    each worker takes the next one from the back, so with items in rising
    cost the workers start on the largest. Serially the calling thread runs
    them in order. If a call raises, no further item starts, and the error
    is raised once every started call has returned."""
    items = list(items)
    spare = _spare()
    helpers = min(spare, len(items) - 1)
    if helpers < 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    lock = threading.Lock()
    bounds = [0, len(items)]  # items[bounds[0]:bounds[1]] are not taken

    def drain(front: bool):
        try:
            while True:
                with lock:
                    if bounds[0] == bounds[1]:
                        return
                    if front:
                        i = bounds[0]
                        bounds[0] += 1
                    else:
                        bounds[1] -= 1
                        i = bounds[1]
                results[i] = fn(items[i])
        except BaseException:
            with lock:
                bounds[0] = bounds[1]
            raise

    from concurrent.futures import wait
    pool = _pool(spare)
    with _nested():
        futures = [pool.submit(drain, False) for _ in range(helpers)]
        try:
            drain(True)
        finally:
            wait(futures)
    for future in futures:
        future.result()
    return results


@contextmanager
def beside():
    """Yields `start(fn, *args)`, which returns a no-argument callable that
    gives `fn(*args)`. With workers granted, `fn` starts at once on one of
    them; serially it runs on the calling thread when that callable is
    called. Call each one inside the block: on leaving it, calls not
    started yet are cancelled and started ones waited for."""
    spare = _spare()
    if spare < 1:
        yield partial
        return
    from concurrent.futures import wait
    pool = _pool(spare)
    futures = []

    def start(fn, *args):
        futures.append(pool.submit(fn, *args))
        return futures[-1].result

    with _nested():
        try:
            yield start
        finally:
            for future in futures:
                future.cancel()
            wait(futures)
