"""Order statistics with the benchmark's sample-count rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def min_samples(pct: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples that leave ``beyond`` of them above percentile ``pct``."""
    if not 0.0 <= pct < 100.0:
        raise ValueError(f"percentile must be in [0, 100), got {pct}")
    return math.ceil(beyond * 100.0 / (100.0 - pct) - 1e-9)


def tail_percentile(values: Sequence[float], pct: float) -> float:
    """``pct``-th percentile of ``values``; refuses too few samples."""
    need = min_samples(pct)
    if len(values) < need:
        raise ValueError(
            f"p{pct:g} needs at least {need} samples ({MIN_BEYOND} beyond "
            f"it), got {len(values)}"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")
