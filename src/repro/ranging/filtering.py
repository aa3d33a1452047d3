"""Statistical filtering of repeated range measurements.

Section 3.5 ("Statistical Filtering"): assuming uncorrelated errors,
multiple measurements per node pair are collapsed with the median or the
mode.  The median is the one the paper's figures use: Figure 4 shows the
baseline service with median filtering of up to five measurements, and
:func:`confidence_weighted_edges` keeps each pair's median.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.measurements import EdgeList, MeasurementSet, _run_medians
from ..errors import ValidationError

__all__ = [
    "median_filter",
    "limit_rounds",
    "confidence_weighted_edges",
]


def limit_rounds(measurements: MeasurementSet, max_rounds: int) -> MeasurementSet:
    """Keep only the first *max_rounds* rounds of measurements.

    Figure 4 applies median filtering "of up to five measurements" —
    this helper reproduces the cap.
    """
    if max_rounds < 1:
        raise ValidationError("max_rounds must be >= 1")
    return measurements.filter(lambda m: m.round_index < max_rounds)


def median_filter(measurements: MeasurementSet, *, max_rounds: Optional[int] = None) -> MeasurementSet:
    """Collapse each directed pair's estimates to their median."""
    if max_rounds is not None:
        measurements = limit_rounds(measurements, max_rounds)
    return measurements.reduce()


def confidence_weighted_edges(
    measurements: MeasurementSet,
    *,
    bidirectional_weight: float = 1.0,
    repeated_weight: float = 0.5,
    single_weight: float = 0.15,
    agreement_tolerance_m: float = 1.0,
) -> EdgeList:
    """Export an edge list with per-measurement confidence weights.

    Section 4.2.1: "weighting distance measurements according to their
    confidence helps limit the effect of measurement errors on
    localization results.  Statistical entities (e.g., standard
    deviation) can make a good choice for such weights."  This helper
    grades each undirected pair by the strength of its evidence:

    * **bidirectional_weight** — both directions measured and their
      medians agree within *agreement_tolerance_m* (strongest evidence:
      two independent detectors concur);
    * **repeated_weight** — one direction only, but several rounds whose
      spread stays within the tolerance;
    * **single_weight** — a single uncorroborated estimate (exactly the
      population where noise-burst garbage hides).

    Bidirectional pairs whose directions *disagree* are dropped outright
    (same rule as :func:`repro.ranging.consistency.bidirectional_filter`).
    A kept pair's distance is the median of both directions' estimates
    pooled.  Pairs come out sorted by ``(min, max)`` node id, and the
    weights have the dtype ``np.asarray`` gives the weights the kept
    pairs use (integer weights stay integers).
    """
    if not 0 <= single_weight <= repeated_weight <= bidirectional_weight:
        raise ValidationError(
            "weights must satisfy 0 <= single <= repeated <= bidirectional"
        )
    if agreement_tolerance_m < 0:
        raise ValidationError("agreement_tolerance_m must be non-negative")
    sources, receivers, values = measurements.columns()
    if values.size == 0:
        return EdgeList(
            pairs=np.zeros((0, 2), dtype=np.int64),
            distances=np.zeros(0),
            weights=np.zeros(0),
        )
    lo = np.minimum(sources, receivers)
    hi = np.maximum(sources, receivers)
    # Both directions of each pair pooled, in value order.
    order = np.lexsort((values, hi, lo))
    pooled, lo, hi = values[order], lo[order], hi[order]
    starts = np.flatnonzero(
        np.concatenate(([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))
    )
    counts = np.diff(np.append(starts, values.size))
    medians = _run_medians(pooled, starts)
    spread = pooled[starts + counts - 1] - pooled[starts]
    # Each direction on its own: a stable sort by (pair, direction)
    # keeps the values in order, and a pair's forward run comes first.
    backward = (sources > receivers)[order]
    pair = np.repeat(np.arange(starts.size), counts)
    directed = np.argsort(2 * pair + backward, kind="stable")
    backward = backward[directed]
    run_start = np.zeros(values.size, dtype=bool)
    run_start[starts] = True
    run_start[1:] |= backward[1:] != backward[:-1]
    runs = np.flatnonzero(run_start)
    direction_medians = _run_medians(pooled[directed], runs)
    bidirectional = backward[starts] != backward[starts + counts - 1]
    first_run = np.searchsorted(runs, starts[bidirectional])
    disagree = np.zeros(starts.size, dtype=bool)
    disagree[bidirectional] = (
        np.abs(direction_medians[first_run] - direction_medians[first_run + 1])
        > agreement_tolerance_m
    )
    grade = np.where(
        bidirectional, 0, np.where((counts >= 2) & (spread <= agreement_tolerance_m), 1, 2)
    )
    keep = ~disagree
    grade = grade[keep]
    # The weights array has the dtype of the weights the kept pairs use,
    # as np.asarray of their list would give.
    table = (bidirectional_weight, repeated_weight, single_weight)
    used = np.unique(grade).tolist()
    weights = np.asarray([table[g] for g in used])[np.searchsorted(used, grade)]
    return EdgeList(
        pairs=np.stack([lo[starts[keep]], hi[starts[keep]]], axis=1),
        distances=medians[keep],
        weights=weights,
    )
