"""Order statistics and span arithmetic shared by the benchmark and its tests."""

from __future__ import annotations

import math
from collections import defaultdict

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(samples: int) -> float | None:
    """Highest percentile that leaves at least ten of ``samples`` beyond it.

    The nearest-rank value at percentile 100 * (n - 10) / n is the
    (n - 10)-th smallest sample, with exactly ten samples above it.  With
    ten samples or fewer no percentile qualifies and None is returned.
    """
    if samples <= TAIL_BEYOND:
        return None
    return 100.0 * (samples - TAIL_BEYOND) / samples


def percentile_rank(samples: int, p: float) -> int:
    """1-based nearest rank of percentile p among ``samples`` sorted values."""
    return max(1, math.ceil(p / 100.0 * samples - 1e-9))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p % of values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[percentile_rank(len(ordered), p) - 1]


def span_totals(spans) -> dict[str, float]:
    """Total time per span name, counting a span nested in one of the same name once.

    ``spans`` holds dicts with ``op``, ``id``, ``name``, ``start``, ``end``
    and ``parent`` (0 for a root); ids are unique within an op.
    """
    by_id = {(s["op"], s["id"]): s for s in spans}
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get((s["op"], s["parent"]))
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get((s["op"], parent["parent"]))
        if parent is None:
            totals[s["name"]] += s["end"] - s["start"]
    return dict(totals)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus what its children cover.

    Children are clipped to their parent's interval before the union is
    taken, so overlapping or overhanging children are not counted twice.
    """
    children = defaultdict(list)
    for s in spans:
        children[(s["op"], s["parent"])].append(s)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        start, end = s["start"], s["end"]
        inner = [
            (max(c["start"], start), min(c["end"], end))
            for c in children[(s["op"], s["id"])]
            if c["end"] > start and c["start"] < end
        ]
        totals[s["name"]] += (end - start) - _covered(inner)
    return dict(totals)
