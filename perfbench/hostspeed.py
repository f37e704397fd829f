"""Host-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the same op can take 1.5 to 2 times
longer while a neighbour is busy, and such spells last from seconds to
minutes.  The harness therefore runs a short fixed numpy kernel (small SVDs
in a Python loop, the same mix of interpreter and LAPACK-call overhead as
the skyframes hot paths) right before every timed op and once after the
last one.  Each op's wall time is divided by the mean of the two kernel
times around it and multiplied by `REFERENCE_S`.  The result is the op's
time in reference seconds: seconds on a host where the kernel takes
`REFERENCE_S`.  A change to skyframes moves the op time and not the
kernel, so it shows in full; a slower host moves both and cancels.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Kernel time on an idle 2-core Intel Xeon (2.1 GHz) VM, Python 3.11,
#: numpy 2.4 with OpenBLAS: the fastest of 2000 runs, rounded.
REFERENCE_S = 3.4e-3

_MATRICES = np.random.default_rng(0).random((600, 3, 2))


def kernel_seconds():
    """Wall time of one run of the calibration kernel."""
    t0 = perf_counter()
    for m in _MATRICES:
        np.linalg.svd(m, compute_uv=False)
    return perf_counter() - t0


def reference_times(walls, kernel_times):
    """Scale each wall time by the kernel times measured before and after it.

    `kernel_times` has one entry more than `walls`: entry i is taken just
    before wall i, and the last one after the last wall.
    """
    walls = np.asarray(walls, dtype=float)
    k = np.asarray(kernel_times, dtype=float)
    return walls * REFERENCE_S / (0.5 * (k[:-1] + k[1:]))
