"""Order statistics used by every benchmark metric."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99, 90, 75, 50)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(n * q / 100.0))


def tail_percentile(n: int) -> int:
    """The highest candidate percentile with at least ten samples beyond it.

    With fewer than twenty samples no candidate qualifies and the median
    stands in; the result records which percentile was used.
    """
    for q in TAIL_PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return 50


def unit_tail(samples_by_unit) -> tuple[float, int]:
    """(tail value, tail percentile) of timing samples grouped by unit.

    The percentile is chosen from the sample count of one unit, the
    workload's fixed length, so it stays the same however many units a run
    fits in.  It is read from each unit's samples, and the value is the
    median over units: a unit that ran in a slow stretch of a shared machine
    moves it less than it would move the percentile of the pooled samples.
    """
    q = tail_percentile(min(len(s) for s in samples_by_unit))
    return statistics.median(percentile(s, q) for s in samples_by_unit), q


def geometric_mean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
