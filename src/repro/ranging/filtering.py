"""Statistical filtering of repeated range measurements.

Section 3.5 ("Statistical Filtering"): assuming uncorrelated errors,
multiple measurements per node pair are collapsed with the median or the
mode.  The median is the one the paper's figures use: Figure 4 shows the
baseline service with median filtering of up to five measurements, and
:func:`confidence_weighted_edges` keeps each pair's median.
:meth:`~repro.core.measurements.MeasurementSet.reduce` also offers the
binned mode.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.measurements import EdgeList, MeasurementSet
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
    return measurements.reduce("median")


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
    """
    if not 0 <= single_weight <= repeated_weight <= bidirectional_weight:
        raise ValidationError(
            "weights must satisfy 0 <= single <= repeated <= bidirectional"
        )
    if agreement_tolerance_m < 0:
        raise ValidationError("agreement_tolerance_m must be non-negative")
    pairs = []
    dists = []
    weights = []
    for (i, j) in measurements.undirected_pairs:
        forward = measurements.distances(i, j)
        backward = measurements.distances(j, i)
        both = np.concatenate([forward, backward])
        if forward.size and backward.size:
            if abs(np.median(forward) - np.median(backward)) > agreement_tolerance_m:
                continue  # inconsistent pair: discard
            weight = bidirectional_weight
        elif both.size >= 2 and np.ptp(both) <= agreement_tolerance_m:
            weight = repeated_weight
        else:
            weight = single_weight
        pairs.append((i, j))
        dists.append(float(np.median(both)))
        weights.append(weight)
    if not pairs:
        return EdgeList(
            pairs=np.zeros((0, 2), dtype=np.int64),
            distances=np.zeros(0),
            weights=np.zeros(0),
        )
    return EdgeList(
        pairs=np.asarray(pairs, dtype=np.int64),
        distances=np.asarray(dists),
        weights=np.asarray(weights),
    )
