"""The host's speed, measured by a fixed reference kernel beside each timed call.

The benchmark runs on a share of a machine whose speed drifts: the same
operation takes 0.7 s for a minute and 1.3 s the next, with CPU time
tracking wall time.  A fixed piece of work that never touches divcurl
slows down with it.  So every timed interval is also given in reference
seconds: its wall time times ``REFERENCE_S`` over the kernel's time
measured just before and just after it.  On a host running at the
reference speed, a reference second is a wall second.

The kernel mixes the two kinds of work divcurl does: Python-level loops
and dict building (mesh validation, parsing, the CLI), and sparse
mat-vecs with vector updates (the CG and eigen solves).  It tracked the
operations of all three workloads about as well as any kernel tried; a
memory-streaming kernel tracked worst.
"""

import time

import numpy as np
import scipy.sparse as sp

# Median kernel time on the reference host (2 vCPU Xeon VM, Python 3.11,
# numpy 2.4, scipy 1.17, one BLAS thread) in a quiet stretch.
REFERENCE_S = 0.0225

_N = 20000
_L = sp.diags([-np.ones(_N - 1), 2.0 * np.ones(_N), -np.ones(_N - 1)],
              [-1, 0, 1], format="csr")
_X0 = np.full(_N, _N ** -0.5)


def kernel_s():
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(80000):
        total += i * i
    table = {}
    for i in range(15000):
        table[i] = str(i)
    x = _X0
    for _ in range(100):
        x = _L @ x + 0.1 * x
        x /= np.linalg.norm(x)
    return time.perf_counter() - start


def reference_s(wall_s, before_s, after_s):
    """``wall_s`` in reference seconds, given the kernel times around it."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
