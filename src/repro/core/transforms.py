"""Rigid-transform estimation between local coordinate systems.

Step 2 of the paper's distributed localization algorithm (Section 4.3.1)
must map one node's local relative coordinate system onto a neighbor's,
using the coordinates of their *shared* neighbors as correspondences.
The paper presents two estimators.  :func:`estimate_transform_closed_form`
is its lightweight one and the only one the pipeline uses: translate
both point sets to their centers of mass, then solve for the rotation
angle from the cross-covariances via
``(C_xu + C_yv) sin(theta) + (C_xv - C_yu) cos(theta) = 0``, trying both
roots (theta, theta + pi) and both reflection factors, keeping the
combination with least error.  It returns a :class:`TransformEstimate`
carrying the homogeneous matrix (the paper's row-vector convention), the
residual error, and the chosen reflection — so the alignment step can
propagate quality information.

The other is the "straightforward" minimization of the squared
correspondence error over ``(theta, tx, ty)`` for each reflection factor
``f in {+1, -1}``.  Accurate but, as the paper notes, too heavy for
mote-class hardware, it survives only in the test suite
(``estimate_transform_minimize`` in ``tests/_oracles.py``), as the
reference that tests and the transform ablation benchmark compare the
closed form against (the paper's "slightly less accurate" claim).

:func:`estimate_transforms_closed_form_batch` is the vectorized form of
the closed-form estimator: a whole refinement round's pairwise
transforms (one problem per neighboring-map pair and direction) are
stacked into padded ``(n_problems, max_shared, 2)`` correspondence
arrays with a validity mask and solved in one pass — the batched
map-stitching step of the distributed pipeline
(:func:`repro.core.distributed.build_transforms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .._validation import as_positions
from ..errors import InsufficientDataError, ValidationError
from .geometry import apply_transform, rigid_transform_matrix

__all__ = [
    "TransformEstimate",
    "transform_residual",
    "estimate_transform_closed_form",
    "estimate_transforms_closed_form_batch",
]


@dataclass(frozen=True)
class TransformEstimate:
    """Result of estimating a rigid transform from correspondences.

    Attributes
    ----------
    matrix : ndarray of shape (3, 3)
        Homogeneous transform mapping source row-vectors to target.
    error : float
        Sum of squared residuals over the correspondences (the paper's
        ``E_f``).
    rmse : float
        Root-mean-square correspondence residual, in the same length
        unit as the inputs; convenient for thresholding.
    theta : float
        Rotation angle in radians.
    reflected : bool
        Whether the winning solution includes a reflection.
    n_correspondences : int
        Number of shared points used for the fit.
    """

    matrix: np.ndarray
    error: float
    rmse: float
    theta: float
    reflected: bool
    n_correspondences: int

    def apply(self, points) -> np.ndarray:
        """Map ``(n, 2)`` source-frame points into the target frame."""
        return apply_transform(points, self.matrix)


def transform_residual(source, target, matrix) -> float:
    """Sum of squared residuals of *matrix* over the correspondences."""
    src = as_positions(source, "source")
    tgt = as_positions(target, "target")
    mapped = apply_transform(src, matrix)
    return float(np.sum((mapped - tgt) ** 2))


def _validate_correspondences(source, target) -> Tuple[np.ndarray, np.ndarray]:
    src = as_positions(source, "source")
    tgt = as_positions(target, "target")
    if src.shape != tgt.shape:
        raise ValidationError(
            f"source and target must have matching shapes; got {src.shape} vs {tgt.shape}"
        )
    if src.shape[0] < 2:
        raise InsufficientDataError(
            "at least two shared points are required to estimate a rigid "
            f"transform; got {src.shape[0]}"
        )
    return src, tgt


def estimate_transform_closed_form(source, target) -> TransformEstimate:
    """Estimate the transform with the paper's center-of-mass method.

    The translation is fixed as the offset between the centers of mass of
    the shared-neighbor sets; the rotation angle must satisfy::

        [C_xu + C_yv, C_xv - C_yu] . [sin(theta), cos(theta)]^T = 0

    Both roots (theta and theta + pi) and both reflection factors are
    evaluated and the least-error combination wins, exactly as described
    in Section 4.3.1.
    """
    src, tgt = _validate_correspondences(source, target)
    mu_src = src.mean(axis=0)
    mu_tgt = tgt.mean(axis=0)

    best: Optional[TransformEstimate] = None
    for reflect in (False, True):
        # Reflection (f = -1) flips the second row of the rotation block,
        # which for centered coordinates is equivalent to negating v and
        # solving for a pure rotation.
        u = src[:, 0] - mu_src[0]
        v = src[:, 1] - mu_src[1]
        if reflect:
            v = -v
        x = tgt[:, 0] - mu_tgt[0]
        y = tgt[:, 1] - mu_tgt[1]

        c_xu = float(np.mean(x * u))
        c_yv = float(np.mean(y * v))
        c_xv = float(np.mean(x * v))
        c_yu = float(np.mean(y * u))
        # Stationary condition of the correspondence error in the
        # row-vector convention used by this library:
        #   (C_xu + C_yv) sin(theta) + (C_yu - C_xv) cos(theta) = 0
        # (the paper states the column-vector form; the sign of the cosine
        # coefficient flips between the two conventions).
        theta_root = math.atan2(c_xv - c_yu, c_xu + c_yv)
        for theta in (theta_root, theta_root + math.pi):
            # Build: translate(-mu_src) . rot/reflect . translate(+mu_tgt)
            pre = np.array([[1, 0, 0], [0, 1, 0], [-mu_src[0], -mu_src[1], 1.0]])
            rot = rigid_transform_matrix(theta, 0.0, 0.0, reflect)
            post = np.array([[1, 0, 0], [0, 1, 0], [mu_tgt[0], mu_tgt[1], 1.0]])
            matrix = pre @ rot @ post
            error = transform_residual(src, tgt, matrix)
            candidate = TransformEstimate(
                matrix=matrix,
                error=error,
                rmse=math.sqrt(error / src.shape[0]),
                theta=float(theta % (2 * math.pi)),
                reflected=reflect,
                n_correspondences=src.shape[0],
            )
            if best is None or candidate.error < best.error:
                best = candidate
    assert best is not None
    return best


def _validate_transform_stacks(
    sources, targets, valid
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validation for the batched estimator.

    Returns ``(src, tgt, valid, counts)`` with padding-safe dtypes.
    """
    src = np.asarray(sources, dtype=float)
    tgt = np.asarray(targets, dtype=float)
    if src.ndim != 3 or src.shape[-1] != 2 or src.shape != tgt.shape:
        raise ValidationError(
            f"sources and targets must share a (P, S, 2) shape; got "
            f"{src.shape} vs {tgt.shape}"
        )
    n_problems, max_shared = src.shape[:2]
    if valid is None:
        valid = np.ones((n_problems, max_shared), dtype=bool)
    valid = np.asarray(valid, dtype=bool)
    counts = valid.sum(axis=1)
    if np.any(counts < 2):
        raise InsufficientDataError(
            "every problem needs at least two shared points to estimate "
            "a rigid transform"
        )
    return src, tgt, valid, counts


def _compose_batch_results(
    best_rot: np.ndarray,
    best_theta: np.ndarray,
    best_error: np.ndarray,
    best_reflect: np.ndarray,
    mu_src: np.ndarray,
    mu_tgt: np.ndarray,
    counts: np.ndarray,
) -> list:
    """Compose homogeneous matrices + result objects from winner arrays."""
    n_problems = best_rot.shape[0]
    # translate(-mu_src) . rot . translate(+mu_tgt), composed directly.
    matrices = np.zeros((n_problems, 3, 3))
    matrices[:, :2, :2] = best_rot
    matrices[:, 2, :2] = mu_tgt - np.einsum("pi,pij->pj", mu_src, best_rot)
    matrices[:, 2, 2] = 1.0

    rmse = np.sqrt(best_error / counts.astype(float))
    return [
        TransformEstimate(
            matrix=matrices[p],
            error=float(best_error[p]),
            rmse=float(rmse[p]),
            theta=float(best_theta[p] % (2 * math.pi)),
            reflected=bool(best_reflect[p]),
            n_correspondences=int(counts[p]),
        )
        for p in range(n_problems)
    ]


def _masked_centroids(
    src: np.ndarray, tgt: np.ndarray, valid: np.ndarray, cnt: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    vmask = valid[..., None]
    mu_src = np.where(vmask, src, 0.0).sum(axis=1) / cnt[:, None]
    mu_tgt = np.where(vmask, tgt, 0.0).sum(axis=1) / cnt[:, None]
    return mu_src, mu_tgt


def estimate_transforms_closed_form_batch(
    sources: np.ndarray,
    targets: np.ndarray,
    valid: Optional[np.ndarray] = None,
) -> list:
    """Closed-form transform estimation over a stack of problems.

    Parameters
    ----------
    sources, targets : ndarray of shape (P, S, 2)
        Padded correspondence stacks: problem ``p`` uses the rows where
        ``valid[p]`` is True (source-frame points and their target-frame
        counterparts).  Padded rows may hold anything.
    valid : ndarray of bool, shape (P, S), optional
        Mask of real correspondence slots; all-True when omitted.

    Per problem this evaluates the same four candidates as
    :func:`estimate_transform_closed_form` — both roots of the paper's
    center-of-mass rotation equation, with and without reflection — and
    keeps the least-error combination; masked statistics (sums over
    valid slots divided by the count) replace the scalar ``np.mean``,
    so results agree with the scalar estimator to floating-point
    reduction tolerance.  Returns one :class:`TransformEstimate` per
    problem, in order.
    """
    src, tgt, valid, counts = _validate_transform_stacks(sources, targets, valid)
    n_problems = src.shape[0]
    if n_problems == 0:
        return []

    cnt = counts.astype(float)
    vmask = valid[..., None]
    mu_src, mu_tgt = _masked_centroids(src, tgt, valid, cnt)
    # Centered coordinates, zeroed on padding so reductions see exact 0s.
    u = np.where(valid, src[..., 0] - mu_src[:, 0:1], 0.0)
    v = np.where(valid, src[..., 1] - mu_src[:, 1:2], 0.0)
    x = np.where(valid, tgt[..., 0] - mu_tgt[:, 0:1], 0.0)
    y = np.where(valid, tgt[..., 1] - mu_tgt[:, 1:2], 0.0)

    best_error = np.full(n_problems, np.inf)
    best_theta = np.zeros(n_problems)
    best_reflect = np.zeros(n_problems, dtype=bool)
    best_rot = np.zeros((n_problems, 2, 2))
    centered = np.stack([u, v], axis=-1)

    for reflect in (False, True):
        # Reflection (f = -1) flips the second row of the rotation
        # block; for centered coordinates this is equivalent to negating
        # v and solving for a pure rotation (scalar estimator's trick).
        f = -1.0 if reflect else 1.0
        v_eff = -v if reflect else v
        c_xu = (x * u).sum(axis=1) / cnt
        c_yv = (y * v_eff).sum(axis=1) / cnt
        c_xv = (x * v_eff).sum(axis=1) / cnt
        c_yu = (y * u).sum(axis=1) / cnt
        theta_root = np.arctan2(c_xv - c_yu, c_xu + c_yv)
        for offset in (0.0, math.pi):
            theta = theta_root + offset
            c = np.cos(theta)
            s = np.sin(theta)
            # Row-vector rotation block of rigid_transform_matrix.
            rot = np.empty((n_problems, 2, 2))
            rot[:, 0, 0] = c
            rot[:, 0, 1] = -s
            rot[:, 1, 0] = f * s
            rot[:, 1, 1] = f * c
            mapped = np.einsum("psi,pij->psj", centered, rot)
            residual = np.where(
                vmask, mapped + mu_tgt[:, None, :] - tgt, 0.0
            )
            error = np.einsum("psi,psi->p", residual, residual)
            better = error < best_error
            best_error = np.where(better, error, best_error)
            best_theta = np.where(better, theta, best_theta)
            best_reflect = np.where(better, reflect, best_reflect)
            best_rot = np.where(better[:, None, None], rot, best_rot)

    return _compose_batch_results(
        best_rot, best_theta, best_error, best_reflect, mu_src, mu_tgt, counts
    )
