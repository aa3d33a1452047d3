"""Synthetic range generation and measurement-set augmentation.

Two distinct generators, matching the two ways the paper produces
simulated distances:

* :func:`gaussian_ranges` — the evaluation sections' generator: "each
  pair of nodes ... was assigned a distance generated by adding a random
  noise term drawn from N(mu = 0, sigma = 0.33 m) to the actual
  distance", restricted to pairs separated by at most the service's
  22 m maximum range (Sections 4.1.3, 4.2.2, 4.3.2).
* :class:`StatisticalErrorModel` — a calibrated statistical abstraction
  of the *full* refined-service error behaviour (detection probability
  falloff, zero-mean core, right-skewed overestimates, rare large
  outliers), for large simulation sweeps where running the signal-level
  simulator per link would be wasteful.  A calibration test asserts its
  moments match the signal-level service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .._validation import as_positions, check_non_negative, check_positive, check_probability, ensure_rng
from ..core.geometry import pairwise_distances
from ..core.measurements import EdgeList, MeasurementSet
from ..errors import ValidationError

__all__ = [
    "eligible_pairs",
    "gaussian_edges",
    "gaussian_ranges",
    "augment_with_gaussian_ranges",
    "StatisticalErrorModel",
    "statistical_campaign",
]


def eligible_pairs(positions, max_range_m: float) -> np.ndarray:
    """All undirected pairs (i < j) separated by at most *max_range_m*."""
    pts = as_positions(positions, "positions")
    check_positive(max_range_m, "max_range_m")
    dist = pairwise_distances(pts)
    n = pts.shape[0]
    iu = np.triu_indices(n, k=1)
    mask = dist[iu] <= max_range_m
    return np.stack([iu[0][mask], iu[1][mask]], axis=1).astype(np.int64)


def _draw_gaussian(pts, max_range_m, sigma_m, pairs, rng):
    """``(pairs, truths, noisy)`` of one Gaussian draw, in pair order."""
    check_non_negative(sigma_m, "sigma_m")
    rng = ensure_rng(rng)
    if pairs is None:
        pairs = eligible_pairs(pts, max_range_m)
    else:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if np.any(pairs < 0) or np.any(pairs >= pts.shape[0]):
            raise ValidationError(f"pairs must index the {pts.shape[0]} positions")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValidationError("pairs must join two different nodes")
    offsets = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    truths = np.hypot(offsets[:, 0], offsets[:, 1])
    noisy = np.maximum(0.0, truths + rng.normal(0.0, sigma_m, size=truths.size))
    return pairs, truths, noisy


def gaussian_edges(
    positions,
    *,
    max_range_m: float = 22.0,
    sigma_m: float = 0.33,
    pairs: Optional[np.ndarray] = None,
    rng=None,
) -> EdgeList:
    """The paper's synthetic generator, drawn straight into an edge list.

    Each pair gets truth + N(0, sigma), clamped at zero, with weight 1.
    The pairs default to :func:`eligible_pairs`.  One normal draw is
    taken per pair, in pair order, so the generator advances exactly as
    in :func:`gaussian_ranges` and the edges are the bytes of
    ``gaussian_ranges(...).to_edge_list()``.
    """
    pts = as_positions(positions, "positions")
    pairs, _, noisy = _draw_gaussian(pts, max_range_m, sigma_m, pairs, rng)
    return EdgeList.from_directed(pairs[:, 0], pairs[:, 1], noisy)


def gaussian_ranges(
    positions,
    *,
    max_range_m: float = 22.0,
    sigma_m: float = 0.33,
    pairs: Optional[np.ndarray] = None,
    rng=None,
) -> MeasurementSet:
    """The paper's synthetic generator: truth + N(0, sigma), pairs <= max range.

    Negative draws are clamped at zero (a ranging service cannot report
    a negative distance).  Returns one directed measurement per pair,
    with its true distance.  The draw is the one of
    :func:`gaussian_edges`; use that when only the edge list is needed.
    """
    pts = as_positions(positions, "positions")
    pairs, truths, noisy = _draw_gaussian(pts, max_range_m, sigma_m, pairs, rng)
    return MeasurementSet.from_edge_arrays(pairs, noisy, true_distances=truths)


def augment_with_gaussian_ranges(
    measurements,
    positions,
    *,
    max_range_m: float = 22.0,
    sigma_m: float = 0.33,
    n_extra: Optional[int] = None,
    synthetic_weight: float = 1.0,
    rng=None,
):
    """Extend a measured set with synthetic ranges for unmeasured pairs.

    Reproduces the augmentation experiments (Figures 15/16 and 25):
    pairs within *max_range_m* that have no measured distance get a
    synthetic one (truth + N(0, sigma)).  When *n_extra* is given, a
    random subset of that size is used (the paper added exactly 370
    synthetic pairs for Figure 25); otherwise all eligible unmeasured
    pairs are added.

    Accepts and returns either a :class:`MeasurementSet` or an
    :class:`~repro.core.measurements.EdgeList`; the EdgeList form
    preserves per-pair confidence weights on the measured edges and
    assigns *synthetic_weight* to the added ones.
    """
    pts = as_positions(positions, "positions")
    rng = ensure_rng(rng)
    if isinstance(measurements, EdgeList):
        measured = {(min(int(i), int(j)), max(int(i), int(j))) for i, j in measurements.pairs}
    elif isinstance(measurements, MeasurementSet):
        measured = {tuple(p) for p in measurements.undirected_pairs}
    else:
        raise ValidationError(
            f"measurements must be a MeasurementSet or EdgeList; got {type(measurements)!r}"
        )
    candidates = [
        (int(i), int(j))
        for i, j in eligible_pairs(pts, max_range_m)
        if (int(i), int(j)) not in measured
    ]
    if n_extra is not None:
        if n_extra < 0:
            raise ValidationError("n_extra must be non-negative")
        n_extra = min(n_extra, len(candidates))
        chosen_idx = rng.choice(len(candidates), size=n_extra, replace=False)
        candidates = [candidates[k] for k in np.sort(chosen_idx)]
    draw = dict(
        max_range_m=max_range_m,
        sigma_m=sigma_m,
        pairs=np.asarray(candidates, dtype=np.int64).reshape(-1, 2),
        rng=rng,
    )
    if isinstance(measurements, MeasurementSet):
        return measurements.merge(gaussian_ranges(pts, **draw))
    extra_edges = gaussian_edges(pts, **draw)
    return EdgeList(
        pairs=np.vstack([measurements.pairs, extra_edges.pairs]),
        distances=np.concatenate([measurements.distances, extra_edges.distances]),
        weights=np.concatenate(
            [measurements.weights, np.full(len(extra_edges), float(synthetic_weight))]
        ),
    )


@dataclass(frozen=True)
class StatisticalErrorModel:
    """Calibrated statistical abstraction of the refined service.

    Samples (detection, distance estimate) for one directed attempt at a
    given true distance.  Parameters are calibrated against the
    signal-level simulator for the grass environment (see
    ``tests/test_calibration.py``).

    Attributes
    ----------
    core_std_m : float
        Std of the zero-mean Gaussian error core (timing effects,
        hardware delays, unit variation): the paper's +/-30 cm bell.
    overestimate_probability : float
        Chance an attempt misses the chirp's early samples and detects
        late (attenuation-driven, right-skew cluster of Figure 6).
    overestimate_scale_m : float
        Mean of the exponential late-detection overshoot, capped at one
        chirp length (~2.7 m).
    overestimate_cap_m : float
        Hard cap on late-detection overshoot (8 ms chirp = ~2.7 m; the
        paper reports a ~3 m maximum).
    outlier_probability : float
        Chance of a large-magnitude error (noise burst / faulty unit).
    detect_50_m, detect_width_m : float
        Logistic detection-probability curve: P(detect) = 0.5 at
        ``detect_50_m``, falling with width ``detect_width_m``.
    max_range_m : float
        Estimates are clamped into [0, max_range_m] like the real
        buffer.
    """

    core_std_m: float = 0.12
    overestimate_probability: float = 0.10
    overestimate_scale_m: float = 0.5
    overestimate_cap_m: float = 2.72
    outlier_probability: float = 0.03
    detect_50_m: float = 20.0
    detect_width_m: float = 1.5
    max_range_m: float = 22.0

    def __post_init__(self):
        check_non_negative(self.core_std_m, "core_std_m")
        check_probability(self.overestimate_probability, "overestimate_probability")
        check_positive(self.overestimate_scale_m, "overestimate_scale_m")
        check_positive(self.overestimate_cap_m, "overestimate_cap_m")
        check_probability(self.outlier_probability, "outlier_probability")
        check_positive(self.detect_50_m, "detect_50_m")
        check_positive(self.detect_width_m, "detect_width_m")
        check_positive(self.max_range_m, "max_range_m")

    def detection_probability(self, distance_m: float) -> float:
        """P(detect) for an attempt at *distance_m*."""
        check_non_negative(distance_m, "distance_m")
        return float(
            1.0 / (1.0 + np.exp((distance_m - self.detect_50_m) / self.detect_width_m))
        )

    def sample(self, distance_m: float, rng=None) -> Optional[float]:
        """One directed attempt; returns an estimate or None (no detect)."""
        rng = ensure_rng(rng)
        if rng.random() >= self.detection_probability(distance_m):
            return None
        estimate = distance_m + rng.normal(0.0, self.core_std_m)
        if rng.random() < self.outlier_probability:
            # Noise-burst underestimate (detection fires early, anywhere
            # in the buffer before the true arrival) or, less often, a
            # late garbage detection.
            if rng.random() < 0.75:
                estimate = rng.uniform(0.0, distance_m)
            else:
                estimate = rng.uniform(distance_m, self.max_range_m + distance_m) / 1.0
        elif rng.random() < self.overestimate_probability:
            overshoot = min(
                float(rng.exponential(self.overestimate_scale_m)), self.overestimate_cap_m
            )
            estimate = distance_m + overshoot
        return float(np.clip(estimate, 0.0, 2.0 * self.max_range_m))


def statistical_campaign(
    positions,
    *,
    model: Optional[StatisticalErrorModel] = None,
    rounds: int = 3,
    attempt_range_m: Optional[float] = None,
    rng=None,
) -> MeasurementSet:
    """Run a campaign through the statistical model (fast path).

    Same structure as :func:`repro.ranging.campaign.run_campaign` but
    sampling the statistical model instead of simulating detector
    buffers; used for large parameter sweeps.
    """
    pts = as_positions(positions, "positions")
    model = model if model is not None else StatisticalErrorModel()
    rng = ensure_rng(rng)
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    limit = attempt_range_m if attempt_range_m is not None else 1.3 * model.max_range_m
    dist = pairwise_distances(pts)
    n = pts.shape[0]
    out = MeasurementSet()
    for round_index in range(rounds):
        for i in range(n):
            for j in range(n):
                if i == j or dist[i, j] > limit:
                    continue
                est = model.sample(float(dist[i, j]), rng)
                if est is None:
                    continue
                out.add_distance(
                    i, j, est, true_distance=float(dist[i, j]), round_index=round_index
                )
    return out
