"""A fixed piece of work that measures how fast the host runs right now.

On a shared 2-core VM, one process running a fixed N=20 sweep loop ran
between 55 and 87 trials/s in consecutive 35-second windows, so raw wall
times of separate runs differ by more than any bound worth setting. ``measure`` times a small numpy-and-Python
workload shaped like the library's hot paths (unit vectors, Kronecker
folds, an 18x18 SVD, a descent loop of small products, float formatting
and parsing). The workloads run it between rounds with their clock
stopped, and divide each measured time by the host slowdown, the
yardstick's time over ``REFERENCE_S``, averaged over the measurements
right before and right after it. Interleaved with the sweep loop
above, a prototype of this yardstick brought the spread (interquartile
range over median) of 35-second windows from 0.12 to 0.03.

The yardstick never imports poseamm, so no change to the library moves it.
Do not change it either: every normalized time in the benchmark's history
is relative to this exact work.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Normalized times are seconds on a host where one yardstick pass takes
# exactly this long.
REFERENCE_S = 0.005
PASSES = 5


def _work() -> float:
    rng = np.random.default_rng(7)
    eye = np.eye(3)
    m = np.zeros((18, 18))
    rows = []
    for _ in range(20):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v)
        p = rng.uniform(4.0, 8.0) * v + rng.uniform(-0.5, 0.5, size=3)
        q = eye - np.outer(v, v)
        a = np.concatenate([np.kron(p, q @ v), np.kron(v, p)])
        m += np.outer(a, a)
        rows.append(",".join("%.17g" % x for x in a[:6]))
    parsed = [float(t) for row in rows for t in row.split(",")]
    _, _, vt = np.linalg.svd(m)
    x = vt[-1]
    r = eye
    f = 0.0
    for _ in range(150):
        g = m @ x
        f = float(x @ g)
        w = g[:3] / (np.linalg.norm(g[:3]) + 1e-12)
        th = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        r = (eye + 0.01 * th + 0.00005 * th @ th) @ r
        x = x - 1e-4 * g
    return f + parsed[0] + float(r[0, 0])


def measure() -> float:
    """Host slowdown now: median yardstick pass time over ``REFERENCE_S``."""
    times = []
    collecting = gc.isenabled()
    gc.disable()     # the library's live objects must not slow the passes
    try:
        for _ in range(PASSES):
            start = time.perf_counter()
            _work()
            times.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times) / REFERENCE_S
