"""Order statistics and the two-sided comparison used by ``run.py --compare``.

Everything here is pure and dependency-free so that ``test_bench.py`` can
check it without importing ``symcap``.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

IMPROVED = "improved"
NO_WORSE = "no worse"
UNRESOLVED = "unresolved"
REGRESSED = "regressed"


def percentile(values: Sequence[float], q: float) -> tuple[float, int]:
    """The ``q``-th percentile (0 <= q <= 100), interpolated linearly between
    the two nearest ranks, and the sample count.

    Per-query costs in a workload form clusters far apart (the spectral
    queries grow about 1.5x per rank); a nearest-rank percentile that falls
    at a cluster edge flips between clusters from run to run, while the
    interpolated one moves smoothly.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), len(ordered)


def highest_supported_percentile(n: int, candidates=(99, 95, 90, 75, 50)) -> int:
    """The highest candidate percentile with at least ten samples above it."""
    for q in candidates:
        if n - math.ceil(q / 100 * n) >= 10:
            return q
    return 50


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_wins(base: Sequence[float], change: Sequence[float], better: str):
    """Wins of the change over the base, pairing runs in recorded order.

    Returns ``(wins, losses, ties, pairs)``; ties count for neither side.
    """
    wins = losses = ties = 0
    pairs = min(len(base), len(change))
    for b, c in zip(base, change):
        if c == b:
            ties += 1
        elif (c < b) == (better == "lower"):
            wins += 1
        else:
            losses += 1
    return wins, losses, ties, pairs


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float | None,
) -> str:
    """Classify the change against the base.

    * improved: the change wins at least nine tenths of the pairs and the
      medians differ by more than the base's own interquartile distance;
    * regressed: the change's median is worse than the base's by more than
      ``bound`` (a share of the base median);
    * unresolved: the base spread is wider than the bound, so a slowdown of
      the bound's size could hide in it, unless every change run reads
      better than every base run;
    * no worse: otherwise.

    Metrics without a bound (counts) are compared exactly: a count that
    moved in the right direction is improved, in the wrong one regressed.
    """
    if not base or not change:
        raise ValueError("verdict needs runs on both sides")
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    gain = sign * (b_med - c_med)  # positive when the change is better
    spread = b_q3 - b_q1
    wins, _, _, pairs = pair_wins(base, change, better)
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if bound is None:
        if gain > 0:
            return IMPROVED
        return REGRESSED if gain < 0 else NO_WORSE
    if pairs and wins >= 0.9 * pairs and gain > spread:
        return IMPROVED
    limit = bound * abs(b_med)
    if -gain > limit:
        return REGRESSED
    if spread > limit and not all_better:
        return UNRESOLVED
    return NO_WORSE
