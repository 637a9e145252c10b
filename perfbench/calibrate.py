"""A fixed reference kernel that measures how fast the host runs right now.

The host this benchmark was written on shares its cores with other
machines, and its speed changes by up to a factor of two within seconds and
for minutes at a time, while the program's work stays the same.  Each run
therefore times this kernel at a point just before and just after every
interval it measures (a round's set-up, each operation), and reports each
interval rescaled to the kernel's nominal speed:

    reported = measured * REFERENCE_S / mean(kernel times of both points)

The kernel is Gauss-Jordan elimination over F_p from `modp` on fixed
matrices: the same mix of interpreter work and small numpy calls as the
program's own `linalg`, but none of the program's code, so no change to
the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import modp

# Median time of one `sample()` on a 2-core Intel Xeon VM at 2.0 GHz in a
# fast phase; it only fixes the scale of the reported times.
REFERENCE_S = 0.0075
SAMPLES_PER_POINT = 2

_P = 32003
_rng = np.random.default_rng(20261018)
_MATRICES = [_rng.integers(0, _P, size=(8, 12), dtype=np.int64) for _ in range(12)] + [
    _rng.integers(0, _P, size=(48, 64), dtype=np.int64)
]


def sample() -> float:
    """Seconds for one pass of the kernel."""
    t0 = time.perf_counter()
    for m in _MATRICES:
        modp.echelon(m, _P)
    return time.perf_counter() - t0


def point() -> list:
    """The kernel times taken at one point of a run."""
    return [sample() for _ in range(SAMPLES_PER_POINT)]


def factor(samples: list) -> float:
    """The scale that turns a time measured while `samples` were taken into
    a time at the reference speed."""
    return REFERENCE_S / statistics.fmean(samples)
