"""Summary statistics and in-memory spans.

A timing is reported as its median plus the highest percentile that has at
least ten samples beyond it, together with the sample count.  Spans carry
a name, start, end, parent, session id and the session part they ran in;
a span's self time is its duration minus the part of its interval that
its children cover.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

TAIL_LADDER = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least ten of n samples beyond it.

    Falls back to the median (50) when there are too few samples for any
    higher percentile.
    """
    for p in TAIL_LADDER:
        # in thousandths, so that 99.9 is exact
        if n * (1000 - round(10 * p)) >= 1000 * MIN_BEYOND:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; p = 50 gives the median."""
    if p == 50.0:
        return statistics.median(values)
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values) -> dict:
    """{'median', 'p', 'p_value', 'n'} of a non-empty sample."""
    values = list(values)
    p = tail_percentile(len(values))
    return {"median": statistics.median(values), "p": p,
            "p_value": percentile(values, p), "n": len(values)}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    session: int
    part: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; `session` and `part` tag every new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.session = 0
        self.part = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(sid, name, time.perf_counter(), math.nan, parent, self.session, self.part)
        self.spans.append(s)
        self._stack.append(sid)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children.

    Children are clipped to their parent's interval, so a child that
    overruns its parent does not drive the self time negative.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = s.duration - _covered((a, b) for a, b in clipped if b > a)
    return out
