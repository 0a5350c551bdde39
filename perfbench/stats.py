"""Sample statistics used by the benchmark: the geometric mean, the tail percentile,
failure fractions, and the between-run spread."""
from __future__ import annotations

import statistics

# the tail is the highest percentile that still has this many samples beyond it
TAIL_BEYOND = 10


def tail(samples, beyond=TAIL_BEYOND):
    """(percentile, value) of the highest percentile with at least ``beyond``
    samples strictly above it.

    With n sorted samples that is the order statistic at index n-1-beyond,
    i.e. percentile 100*(n-1-beyond)/(n-1) under linear interpolation.
    Below beyond+1 samples no such percentile exists and the maximum is
    returned with percentile 100, so a caller can tell that the tail is
    unresolved.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return 100.0, xs[-1]
    return 100.0 * (n - 1 - beyond) / (n - 1), xs[n - 1 - beyond]


def median(samples):
    return statistics.median(samples)


def gmean(samples):
    """Geometric mean: the summary of times over inputs of different sizes,
    where the mean follows the few longest and the median jumps between
    clusters of instances."""
    return statistics.geometric_mean(samples)


def fail_frac(failed, attempted):
    """Failed operations over attempted ones; nothing attempted is all failed."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
