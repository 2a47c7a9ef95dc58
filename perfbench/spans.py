"""Span recording and the statistics the benchmark reports.

A span is (name, start, end, parent). Spans are kept in memory and written
out when the run ends. Recording one costs two ``perf_counter`` calls, which
is small against the millisecond-scale calls the benchmark wraps.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Tail percentiles tried from the highest down; see ``tail_quantile``.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans from one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def tail_quantile(n: int) -> float:
    """The highest percentile on the ladder with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it; the median when none has."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= MIN_BEYOND * 100.0:
            return q
    return 50.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
