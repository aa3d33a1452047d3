"""Pure statistics and accounting helpers shared by the benchmark.

Standard library only, so the entry point and the tests can use them
without importing the system under test.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(values: Sequence[float]) -> Tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(p, value)``: ``value`` is the nearest-rank ``p``-th
    percentile, the sample of rank ``ceil(p * n / 100)``, so the
    ``n - rank >= 10`` samples ranked above it lie beyond it.  Needs
    ``n >= 11``.
    """
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(
            f"a tail percentile needs more than {TAIL_MIN_BEYOND} samples; got {n}"
        )
    p = (100 * (n - TAIL_MIN_BEYOND)) // n
    rank = math.ceil(p * n / 100)
    return p, float(sorted(values)[rank - 1])


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> List[float]:
    """Per-span self time: duration minus the time its children cover.

    *spans* are ``(name, start, end, parent)`` with ``parent`` the index
    of the enclosing span or ``-1``.  Spans come from one thread's call
    stack, so the children of a span are disjoint and lie inside it.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def self_time_by_name(spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, float]:
    """Summed self time per span name."""
    totals: Dict[str, float] = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals


def count_failed(records: Sequence[Dict[str, float]], reference: Sequence[Dict[str, float]]) -> int:
    """Trials that failed: a non-finite metric, or a record unlike the reference.

    *records* and *reference* are per-trial metric dicts in trial order;
    the reference may cover only the leading trials, and later trials
    are checked for finiteness alone.  A trial that is both non-finite
    and mismatched counts once.
    """
    failed = 0
    for index, got in enumerate(records):
        nonfinite = any(not math.isfinite(v) for v in got.values())
        mismatched = index < len(reference) and not metrics_equal(got, reference[index])
        failed += nonfinite or mismatched
    return failed


def metrics_equal(a: Dict[str, float], b: Dict[str, float]) -> bool:
    """Exact equality of two metric dicts, with NaN equal to NaN."""
    if a.keys() != b.keys():
        return False
    return all(
        a[k] == b[k] or (math.isnan(a[k]) and math.isnan(b[k])) for k in a
    )


def matches_pin(value: float, pinned: float, rel_tol: float = 1e-9) -> bool:
    """A pinned reference value, equal up to last-bit float drift."""
    if math.isnan(value) or math.isnan(pinned):
        return math.isnan(value) and math.isnan(pinned)
    return math.isclose(value, pinned, rel_tol=rel_tol, abs_tol=1e-12)
