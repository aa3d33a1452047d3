"""Synthetic range generation and measurement-set augmentation.

The paper's evaluation sections simulate distances one way, and
:func:`gaussian_ranges` is that generator: "each pair of nodes ... was
assigned a distance generated by adding a random noise term drawn from
N(mu = 0, sigma = 0.33 m) to the actual distance", restricted to pairs
separated by at most the service's 22 m maximum range (Sections 4.1.3,
4.2.2, 4.3.2).  :func:`gaussian_edges` draws the same ranges straight
into an edge list, and :func:`augment_with_gaussian_ranges` adds them
for the pairs a measured set lacks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._validation import as_positions, check_non_negative, check_positive, ensure_rng
from ..core.geometry import pairwise_distances
from ..core.measurements import EdgeList, MeasurementSet
from ..errors import ValidationError

__all__ = [
    "eligible_pairs",
    "gaussian_edges",
    "gaussian_ranges",
    "augment_with_gaussian_ranges",
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
