"""Fixed reference kernels that measure how fast the machine is right now.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds to minutes.  Timing a kernel around every
operation, and scaling a pass's time by REF_S / (median kernel time),
removes most of that drift.  The kernel matches the kind of work being
scaled: the exact workloads run a truncated series recurrence of small
``np.dot`` calls plus plain interpreter arithmetic in one process, and
the sampler runs large vector operations in as many processes as its
pool has.  The kernels never call gwreduced, so no change to the package
can move them.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# kernel seconds, by process count, on the 2-core machine the benchmark
# was defined on; only a scale, so that scaled times read as seconds
REF_S = {0: 0.1, 1: 0.08, 2: 0.09}


def _interpreter_kernel() -> float:
    K = 400
    g = np.linspace(0.0, 1.0, K + 1) / K
    grev = g[::-1]
    h = np.empty(K + 1)
    total = 0.0
    for _ in range(150):
        h[0] = 0.5
        for k in range(1, K + 1):
            h[k] = 0.5 * np.dot(grev[K - k : K], h[:k])
        total += h[K]
    for i in range(100_000):
        total += i * i % 7
    return total


def _vector_kernel(_=None) -> float:
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(30):
        draws = rng.integers(0, 3, size=1 << 17)
        owners = np.repeat(np.arange(len(draws)), draws)
        total += float(np.bincount(owners, minlength=len(draws)).sum())
    return total


def calibrate(processes: int) -> float:
    """Seconds one kernel run takes now.

    ``processes`` 0 runs the interpreter kernel here; 1 runs the vector
    kernel here; 2 or more run one copy of it in each process of a
    fresh pool, as the sampler does.
    """
    start = time.perf_counter()
    if processes == 0:
        _interpreter_kernel()
    elif processes == 1:
        _vector_kernel()
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            list(pool.map(_vector_kernel, range(processes)))
    return time.perf_counter() - start
