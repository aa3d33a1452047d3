"""Anchor selection strategies.

Anchors are nodes that know their own position (Section 4.1).  The
paper's experiments pick anchors in two ways — a random subset
(Figure 14: "we randomly chose 13 nodes as anchors from a total of 46")
and a hand-placed well-spread subset (Figure 12's 5 loudspeaker-fitted
anchors).  Both strategies are provided, plus a corner/boundary-biased
strategy used in ablation studies of anchor placement.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_positions, ensure_rng
from ..errors import ValidationError

__all__ = ["random_anchors", "spread_anchors", "boundary_anchors"]


def _check_count(n_nodes: int, n_anchors: int) -> None:
    if not 0 < n_anchors <= n_nodes:
        raise ValidationError(
            f"n_anchors must be in (0, {n_nodes}]; got {n_anchors}"
        )


def random_anchors(n_nodes: int, n_anchors: int, rng=None) -> np.ndarray:
    """Uniformly random anchor indices (the paper's grid experiment)."""
    _check_count(n_nodes, n_anchors)
    rng = ensure_rng(rng)
    return np.sort(rng.choice(n_nodes, size=n_anchors, replace=False))


def spread_anchors(positions, n_anchors: int, *, start: int = 0) -> np.ndarray:
    """Well-spread anchors by farthest-point sampling.

    Deterministic: starts from index *start*, then greedily adds the
    node farthest from all chosen anchors.  Approximates the paper's
    hand-placed anchor sets and the "uniform anchor distribution" that
    multilateration needs (Section 4.1.4).
    """
    pts = as_positions(positions, "positions")
    n = pts.shape[0]
    _check_count(n, n_anchors)
    if not 0 <= start < n:
        raise ValidationError(f"start must be in [0, {n})")
    chosen = [start]
    min_dist = np.hypot(*(pts - pts[start]).T)
    while len(chosen) < n_anchors:
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.hypot(*(pts - pts[nxt]).T))
    return np.sort(np.asarray(chosen))


def boundary_anchors(positions, n_anchors: int) -> np.ndarray:
    """Anchors biased to the deployment boundary.

    The paper observes unlocalized nodes "appear on the periphery of the
    area ... attributed to the lack of anchors on the boundary of the
    grid" (Section 4.1.3).  This strategy picks the nodes farthest from
    the centroid, for studying exactly that effect.
    """
    pts = as_positions(positions, "positions")
    _check_count(pts.shape[0], n_anchors)
    center = pts.mean(axis=0)
    dist = np.hypot(*(pts - center).T)
    order = np.argsort(-dist, kind="stable")
    return np.sort(order[:n_anchors])
