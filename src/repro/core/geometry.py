"""Planar geometry primitives used throughout the localization suite.

The paper works exclusively in the plane (2-D localization), so all
routines here operate on ``(n, 2)`` coordinate arrays.  The rigid
transform convention follows the paper's homogeneous *row-vector* form::

    [x, y, 1] = [u, v, 1] @ T

with ``T`` a 3x3 matrix combining rotation, optional reflection, and
translation (Section 4.3.1 of the paper).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .._validation import as_positions, check_non_negative
from ..errors import ValidationError

__all__ = [
    "pairwise_distances",
    "circle_intersections",
    "all_pairs_circle_intersections",
    "rigid_transform_matrix",
    "apply_transform",
    "compose_transforms",
    "centroid",
    "is_collinear",
]


def pairwise_distances(points) -> np.ndarray:
    """Full symmetric ``(n, n)`` Euclidean distance matrix for *points*."""
    pts = as_positions(points, "points", allow_empty=True)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def circle_intersections(
    center_a, radius_a: float, center_b, radius_b: float
) -> np.ndarray:
    """Intersection points of two circles.

    Returns an array of shape ``(k, 2)`` with ``k`` in {0, 1, 2}.  The
    tangent case returns a single point.  Concentric or non-intersecting
    circles return an empty array.  This primitive underlies the paper's
    *intersection consistency check* (Section 4.1.2): range circles drawn
    around anchors should intersect in a tight cluster near the true node
    position.
    """
    radius_a = check_non_negative(radius_a, "radius_a")
    radius_b = check_non_negative(radius_b, "radius_b")
    a = np.asarray(center_a, dtype=float)
    b = np.asarray(center_b, dtype=float)
    d = float(np.hypot(*(b - a)))
    if d == 0.0 or radius_a == 0.0 or radius_b == 0.0:
        # Concentric circles never intersect cleanly; a zero radius
        # (e.g. a garbage 0 m range estimate) cannot vouch for anything.
        return np.zeros((0, 2))
    if d > radius_a + radius_b or d < abs(radius_a - radius_b):
        return np.zeros((0, 2))
    # Distance from center_a to the chord's midpoint along the center line.
    along = (radius_a**2 - radius_b**2 + d**2) / (2.0 * d)
    h_sq = radius_a**2 - along**2
    if h_sq < 0.0:
        # Numerical noise near tangency.
        h_sq = 0.0
    h = math.sqrt(h_sq)
    mid = a + along * (b - a) / d
    if h == 0.0:
        return mid.reshape(1, 2)
    # Perpendicular direction to the center line.
    perp = np.array([-(b - a)[1], (b - a)[0]]) / d
    return np.vstack([mid + h * perp, mid - h * perp])


def all_pairs_circle_intersections(
    centers, radii
) -> Tuple[np.ndarray, np.ndarray]:
    """Intersection points for every pair of range circles.

    Parameters
    ----------
    centers : array-like of shape (n, 2)
        Circle centers (anchor positions).
    radii : array-like of shape (n,)
        Circle radii (measured distances).

    Returns
    -------
    points : ndarray of shape (m, 2)
        All intersection points found.
    owners : ndarray of shape (m, 2)
        For each point, the indices of the two circles that produced it.
    """
    centers = as_positions(centers, "centers")
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (centers.shape[0],):
        raise ValidationError(
            f"radii must have shape ({centers.shape[0]},); got {radii.shape}"
        )
    points = []
    owners = []
    n = centers.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            pts = circle_intersections(centers[i], radii[i], centers[j], radii[j])
            for p in pts:
                points.append(p)
                owners.append((i, j))
    if not points:
        return np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64)
    return np.asarray(points), np.asarray(owners, dtype=np.int64)


def rigid_transform_matrix(
    theta: float, tx: float, ty: float, reflect: bool = False
) -> np.ndarray:
    """Build the paper's 3x3 homogeneous rigid-transform matrix.

    The matrix acts on row vectors ``[u, v, 1]``.  With reflection factor
    ``f in {+1, -1}``::

        [ cos(theta)   -sin(theta)  0 ]
        [ f*sin(theta)  f*cos(theta) 0 ]
        [ tx            ty           1 ]
    """
    f = -1.0 if reflect else 1.0
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c, -s, 0.0],
            [f * s, f * c, 0.0],
            [tx, ty, 1.0],
        ]
    )


def apply_transform(points, transform) -> np.ndarray:
    """Apply a 3x3 row-vector homogeneous transform to ``(n, 2)`` points."""
    pts = as_positions(points, "points", allow_empty=True)
    transform = np.asarray(transform, dtype=float)
    if transform.shape != (3, 3):
        raise ValidationError(f"transform must be 3x3; got {transform.shape}")
    homogeneous = np.hstack([pts, np.ones((pts.shape[0], 1))])
    out = homogeneous @ transform
    return out[:, :2]


def compose_transforms(first, second) -> np.ndarray:
    """Compose two row-vector transforms: apply *first*, then *second*."""
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != (3, 3) or second.shape != (3, 3):
        raise ValidationError("transforms must both be 3x3 matrices")
    return first @ second


def centroid(points) -> np.ndarray:
    """Center of mass of a point set (used by the transform estimator)."""
    pts = as_positions(points, "points")
    return pts.mean(axis=0)


def is_collinear(points, *, tol: float = 1e-9) -> bool:
    """True when all *points* lie (nearly) on a single line.

    Multilateration degenerates for collinear anchors; the solver uses
    this predicate to refuse ill-posed inputs.  *tol* is an absolute
    bound on the smallest singular value of the centered point matrix,
    scaled by the point-set spread.
    """
    pts = as_positions(points, "points")
    if pts.shape[0] <= 2:
        return True
    centered = pts - pts.mean(axis=0)
    scale = float(np.abs(centered).max())
    if scale == 0.0:
        return True
    singular_values = np.linalg.svd(centered / scale, compute_uv=False)
    return bool(singular_values[-1] < tol)
