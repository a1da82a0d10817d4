"""Percentiles and the rule for which of them a sample can support."""

from __future__ import annotations

import math

# Percentiles considered for reporting, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9)
# A percentile is reported only with at least this many samples beyond it.
TAIL = 10


def samples_beyond(n: int, p: float) -> float:
    """How many of n samples lie beyond the p-th percentile."""
    return round(n * (100.0 - p) / 100.0, 9)


def highest_percentile(n: int, ladder: tuple[float, ...] = LADDER) -> float | None:
    """The highest percentile in ``ladder`` that has at least ``TAIL``
    samples beyond it, or None when even the lowest has fewer."""
    best = None
    for p in ladder:
        if samples_beyond(n, p) >= TAIL:
            best = p
    return best


def min_samples(p: float) -> int:
    """The fewest samples for which the p-th percentile may be reported."""
    return math.ceil(round(TAIL * 100.0 / (100.0 - p), 6))


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile, interpolating linearly between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
