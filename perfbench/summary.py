"""Summarizing code of the benchmark: medians, tail percentiles, span self
times, the minimizer's quotient ratio and sweep row accounting.

Everything here is pure Python over plain numbers so that it can be tested
without running any workload (see ``test_summary.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# percentiles considered for the tail report, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples strictly beyond it.

    Returns ``(q, value)`` or None when the sample is too small for any of
    ``TAIL_PERCENTILES``.
    """
    for q in TAIL_PERCENTILES:
        value = percentile(values, q)
        if sum(1 for v in values if v > value) >= TAIL_MIN_BEYOND:
            return q, value
    return None


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    name: str
    start: float
    end: float
    parent: int
    op: int
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        inside = [
            (max(lo, span.start), min(hi, span.end))
            for lo, hi in children.get(idx, [])
            if hi > span.start and lo < span.end
        ]
        out.append(span.duration - _covered(inside))
    return out


def q_ratio(pairs) -> float:
    """Median of best quotient over effective bound, from ``(q, bound)`` pairs."""
    ratios = [q / bound for q, bound in pairs]
    return median(ratios)


@dataclass(frozen=True)
class Invocation:
    """One ``cknlab sweep`` process: its exit code and row tallies.

    ``bad_rows`` counts rows that came back but failed their check; a crashed
    invocation (non-zero exit) produced no trustworthy rows, so all of its
    ``expected_rows`` count as failed whatever it printed.
    """

    returncode: int
    expected_rows: int
    bad_rows: int = 0


def sweep_row_tally(invocations) -> tuple[int, int]:
    """Attempted and failed rows over a list of invocations."""
    attempted = failed = 0
    for inv in invocations:
        attempted += inv.expected_rows
        if inv.returncode != 0:
            failed += inv.expected_rows
        else:
            failed += min(inv.bad_rows, inv.expected_rows)
    return attempted, failed
