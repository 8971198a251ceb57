"""Arithmetic of the benchmark: percentiles, open-loop accounting, self time.

Kept free of I/O and of the ``repro`` package so that the tests in
``test_benchmath.py`` pin every number the benchmark reports.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

INF = float("inf")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last.

    Nearest rank never interpolates, so a percentile that lands on a failed
    request reads ``inf`` instead of a blend of a number and infinity.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def chunked_percentile(latencies: Sequence[float], q: float, per_chunk: int = 100) -> float:
    """Median over consecutive chunks of at least ``per_chunk`` samples of their ``q`` percentile.

    ``latencies`` are in send order.  A chunk of 100 leaves 10 samples
    beyond its p90, and the median over chunks lets a burst of load from
    outside the benchmark spoil one chunk without moving the figure.
    """
    chunks = max(1, len(latencies) // per_chunk)
    size = len(latencies) / chunks
    values = [
        percentile(latencies[round(i * size):round((i + 1) * size)], q) for i in range(chunks)
    ]
    return statistics.median(values)


def latencies_with_failures(latencies: Iterable[Optional[float]]) -> List[float]:
    """Map a failed or refused request (``None``) to ``+inf`` latency."""
    return [INF if value is None else float(value) for value in latencies]


def open_loop_schedule(start: float, gaps: Sequence[float]) -> List[float]:
    """Due times of an open loop: ``start`` plus the running sum of ``gaps``."""
    due, now = [], start
    for gap in gaps:
        now += gap
        due.append(now)
    return due


def open_loop_latency(due: float, arrived: Optional[float]) -> float:
    """Latency of an open-loop request, timed from when it was *due*.

    Timing from the due time rather than the send time charges a stall in
    the generator or the server to every request it delayed.
    """
    return INF if arrived is None else arrived - due


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator sent each request (never negative)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def stalled_responses(
    sends: Sequence[Tuple[float, int]],
    arrivals: Sequence[Tuple[float, int]],
    window_s: float = 1e-3,
) -> int:
    """Responses that arrived within ``window_s`` after a *later* send.

    ``sends`` and ``arrivals`` are ``(time, request_index)`` pairs of one
    connection.  A response is stalled when the most recent send on its
    connection before it arrived belongs to another, later request and lies
    at most ``window_s`` before the arrival: the response was held back
    until the generator's next send let it through (Nagle's algorithm
    waiting on a delayed ACK behaves this way).
    """
    ordered = sorted(sends)
    times = [t for t, _ in ordered]
    stalled = 0
    for arrived, index in arrivals:
        position = bisect.bisect_right(times, arrived) - 1
        if position < 0:
            continue
        sent_at, sent_index = ordered[position]
        if sent_index != index and arrived - sent_at <= window_s:
            stalled += 1
    return stalled


def path_stages(points: Sequence[Optional[float]]) -> List[float]:
    """Split a request's blocking path at its recorded points.

    ``points`` are the times the request passed each point, in path order,
    ``None`` where a point was not recorded; the first must be recorded.
    Stage ``i`` runs from the last recorded point before ``points[i + 1]``
    to ``points[i + 1]``; a missing point's stage is 0 and its time goes to
    the next stage.  The stages therefore add up to the last minus the
    first recorded point.
    """
    last = points[0]
    if last is None:
        raise ValueError("the first point of a path must be recorded")
    stages = []
    for point in points[1:]:
        stages.append(0.0 if point is None else point - last)
        last = last if point is None else point
    return stages


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Tuple[int, Optional[int], float, float]]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of its children.

    ``spans`` are ``(span_id, parent_id, start, end)``.  Children may overlap
    (two threads working for one parent), so their union is subtracted, not
    their sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - union_length(children.get(span_id, ()), start, end)
        for span_id, _, start, end in spans
    }
