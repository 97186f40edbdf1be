"""Machine-speed calibration of measured times.

On a shared host the speed of one core drifts by up to 1.5x over seconds
to minutes, as other tenants come and go; a run that lands in a fast spell
reads 30-50% better than one that does not, which is wider than any useful
regression bound.  A fixed kernel of small numpy calls and interpreter work,
like the library's inner loops, runs between ops, untimed.  Each op's
latency is divided by the local speed factor (kernel time near the op over
``REF_S``), so times read as on a machine where the kernel takes ``REF_S``.
The kernel uses no ``affval`` code, so a change to the library moves the
calibrated times as it moves the raw ones.
"""

from __future__ import annotations

import itertools
import statistics
from time import perf_counter

import numpy as np

# kernel time that defines the reference machine speed: about what the kernel
# takes on a 2-vCPU x86-64 VM while the other vCPU is busy
REF_S = 1.5e-3
WINDOW = 4          # kernel samples taken on each side of an op

_rng = np.random.default_rng(0)
_MATS = _rng.normal(size=(96, 3, 3)) + 3.0 * np.eye(3)
_RHS = _rng.normal(size=(96, 3))


def kernel_time() -> float:
    """Seconds taken by one run of the fixed kernel."""
    t = perf_counter()
    acc = 0.0
    for m, r in zip(_MATS, _RHS):
        acc += float(np.max(np.abs(np.linalg.solve(m, r))))
        for j, k in itertools.combinations(range(8), 2):
            acc += (j * k) % 7
    return perf_counter() - t


def factors(samples: list[float]) -> list[float]:
    """Speed factor at each sample: the median kernel time within WINDOW
    samples on either side, over REF_S (below 1 on a fast machine)."""
    return [statistics.median(samples[max(0, i - WINDOW): i + WINDOW + 1]) / REF_S
            for i in range(len(samples))]


def factor_now() -> float:
    """Speed factor from a burst of kernel runs, for set-up phases."""
    return statistics.median(kernel_time() for _ in range(2 * WINDOW + 1)) / REF_S
