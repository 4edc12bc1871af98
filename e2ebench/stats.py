"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.  The median
#: is not among them: it is reported as itself.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A tail percentile should have at least this many samples above it.
TAIL_BEYOND = 10


def rank(percentile: float, n: int) -> int:
    """1-based nearest rank of ``percentile`` among ``n`` samples."""
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point
    return max(1, math.ceil(round(percentile * n / 100.0, 9)))


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of ``values``."""
    return sorted(values)[rank(percentile, len(values)) - 1]


def tail(values: Sequence[float]) -> Tuple[float, str, int]:
    """``(value, label, samples beyond)`` of the reported tail.

    That is the highest percentile in :data:`TAIL_PERCENTILES` whose
    nearest rank leaves at least :data:`TAIL_BEYOND` samples above it.
    Below 40 samples none does, and the tail is p75 with however many
    samples lie beyond it: a steadier figure than the maximum of a few
    samples, and the label and count say how thin it is.
    """
    n = len(values)
    for percentile in TAIL_PERCENTILES:
        beyond = n - rank(percentile, n)
        if beyond >= TAIL_BEYOND:
            break
    return nearest_rank(values, percentile), f"p{percentile:g}", beyond


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
