"""Order statistics for the benchmark's timings.

A timing is reported as its median plus a tail percentile.  A tail is
only worth reporting with at least ten samples beyond it (choosing-metrics
guide, section 1): with fewer, its value is one or two outliers, not a
property of the program.  Each workload pins its tail percentiles, and
:func:`windowed_tail` cuts the samples into the smallest windows that
still meet the rule.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def metric(value: float, unit: str, n: int | None = None, **notes: object) -> dict:
    """One reported metric: value, unit, the sample count behind it."""
    entry: dict[str, object] = {"value": value, "unit": unit}
    if n is not None:
        entry["n"] = n
    entry.update(notes)
    return entry


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def window_size(pct: float) -> int:
    """The fewest samples whose ``pct`` percentile has ten beyond it."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - pct) - 1e-9)


def windowed_tail(samples: Sequence[float], pct: float) -> tuple[float, int]:
    """The typical tail: the median, over consecutive windows of
    :func:`window_size` samples, of each window's ``pct`` percentile.

    Returns ``(value, windows)``.  One burst of outside noise lands in one
    window and moves the median of windows little, where it would move the
    percentile of the whole run a lot.  With less than one full window the
    plain percentile is returned and ``windows`` is 0: the rule of ten
    samples beyond is then not met.
    """
    size = window_size(pct)
    full = len(samples) // size
    if full == 0:
        return percentile(samples, pct), 0
    tails = [percentile(samples[i * size:(i + 1) * size], pct) for i in range(full)]
    return statistics.median(tails), full


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The same arithmetic the driver applies to ten runs of one metric:
    ``statistics.quantiles(values, n=4)``, third minus first, over the
    median.  Needs at least two values.
    """
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(middle)
