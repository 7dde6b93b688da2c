"""Aggregation rules shared by the timed and the traced runs.

Kept free of ``repro`` imports so the tests can check the rules on
hand-made numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

#: A reported percentile needs at least this many samples above it.
MIN_BEYOND = 10
#: Percentiles :func:`highest_percentile` chooses from, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``n``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def highest_percentile(n: int) -> float | None:
    """The highest of ``PERCENTILES`` with ``MIN_BEYOND`` samples above it."""
    for pct in PERCENTILES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses a tail thinner than ``MIN_BEYOND``."""
    n = len(values)
    if samples_beyond(n, pct) < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {n} samples has fewer than {MIN_BEYOND} samples beyond it"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * n)) - 1]


def adjacent_calibration(slices: Sequence[float]) -> list[float]:
    """Per-unit calibration: the mean of the slice before and the slice after.

    ``K`` units are interleaved with ``K + 1`` slices (each slice between
    two units serves both of them).
    """
    if len(slices) < 2:
        raise ValueError("need a slice before and after every unit")
    return [(a + b) / 2.0 for a, b in zip(slices, slices[1:])]


def normalized(units: Sequence[float], slices: Sequence[float]) -> float:
    """Σ unit wall divided by the mean adjacent-slice wall (calibration units)."""
    calib = adjacent_calibration(slices)
    if len(calib) != len(units):
        raise ValueError(f"{len(units)} units need {len(units) + 1} slices")
    return sum(units) / (sum(calib) / len(calib))


@dataclass
class Span:
    """One traced call: ``[start, end)`` on the perf-counter clock."""

    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    query: str = ""
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
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


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(lo, span.start), min(hi, span.end))
            for lo, hi in children.get(i, [])
            if hi > span.start and lo < span.end
        ]
        out.append(span.duration - _covered(clipped))
    return out


def outermost(spans: Sequence[Span], prefix: str) -> list[int]:
    """Indices of spans named ``prefix*`` with no ancestor named ``prefix*``.

    Nested calls into the same layer (a batched propagation that loops
    over the scalar engine, a session solve that enters the backend)
    count once, at the outer call.
    """
    out = []
    for i, span in enumerate(spans):
        if not span.name.startswith(prefix):
            continue
        parent = span.parent
        while parent >= 0 and not spans[parent].name.startswith(prefix):
            parent = spans[parent].parent
        if parent < 0:
            out.append(i)
    return out
