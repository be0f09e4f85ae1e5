"""A fixed calibration kernel that reads how fast the host runs right now.

The benchmark runs on a few cores of a shared host. Whole-core slowdowns
from the neighbours last from seconds to minutes and reach 1.5x; measured,
they slow a pyrapool op, a float32 matmul, a pure-Python loop and small
numpy allocations alike (within a few percent). So the benchmark times
this kernel, which is its own code and never the program's, every 0.25 s of
a run (`run.HostSpeed`), and reports times scaled to the kernel's reference
time:

    normalised = wall time * REF_S / kernel time measured around it

A faster program reads faster; a slower host does not. Raw wall times are
kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time at the reference speed: about its time on the 2-core
# Xeon VM this was tuned on when its neighbours were quiet (2.8-4.2 ms seen).
REF_S = 0.003

_rng = np.random.default_rng(0)
_A = _rng.random((128, 128), dtype=np.float32)
_M = _rng.random((32, 40, 40), dtype=np.float32)


def _work() -> float:
    # the three kinds of work a pyrapool op does: BLAS, small numpy
    # reductions over windows, and interpreter-bound Python
    a = _A
    for _ in range(14):
        a = (_A @ a) * np.float32(1.0 / 128)
    acc = 0.0
    for i in range(0, 32, 3):
        for j in range(0, 32, 3):
            acc += float(_M[:, i:i + 8, j:j + 8].max(axis=(1, 2)).sum())
    s = 0
    for i in range(30000):
        s += i & 7
    return acc + s + float(a[0, 0])


def measure() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
