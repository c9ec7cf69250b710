"""Statistics and the noise guard.  Imports nothing heavy: the parent
process (`run.py`) uses this without loading NumPy or the simulator."""

from __future__ import annotations

import time
from typing import Dict, Sequence

NOISY_THRESHOLD = 0.15  # calibration IQR/median above this flags the run


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation quantile (p in [0, 1]) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    rank = p * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def spread(values: Sequence[float]) -> float:
    """IQR / median (0.0 for a zero median)."""
    med = quantile(values, 0.5)
    return (quantile(values, 0.75) - quantile(values, 0.25)) / med if med else 0.0


# ----------------------------------------------------------------------
# noise guard
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Milliseconds one fixed interpreter-heavy loop takes right now.

    Run before and after every pass.  Its spread tells a slow commit from a
    slow neighbour; it is reported and never used to rescale a metric
    (normalising by it did not cancel the noise - README.md)."""
    t0 = time.perf_counter_ns()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(20000):
        acc += (i * i) % 7
        table[i & 255] = acc
    return (time.perf_counter_ns() - t0) / 1e6
