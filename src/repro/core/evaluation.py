"""Evaluation utilities: best-fit alignment and localization error metrics.

The paper reports "average localization error" — the mean distance
between actual node positions and estimates — after the computed
configuration has been "translated, rotated and flipped to achieve a
best-fit match with the actual node coordinates" (Section 4.2.2).  For
anchor-free methods (LSS, MDS) that alignment is part of the evaluation
protocol; for anchored methods (multilateration) estimates are already in
the global frame and no alignment is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .._validation import as_positions
from ..errors import ValidationError
from .transforms import estimate_transform_closed_form

__all__ = [
    "align_to_reference",
    "localization_errors",
    "LocalizationReport",
    "evaluate_localization",
    "error_histogram",
    "trimmed_mean_error",
]


def align_to_reference(estimated, actual) -> np.ndarray:
    """Rigidly align *estimated* coordinates onto *actual* coordinates.

    Finds the translation + rotation + optional reflection minimizing the
    summed squared distance between corresponding points (rigid
    Procrustes, no scaling — scaling would hide systematic ranging bias)
    and returns the transformed estimates.
    """
    est = as_positions(estimated, "estimated")
    act = as_positions(actual, "actual")
    if est.shape != act.shape:
        raise ValidationError(
            f"estimated and actual must match in shape; got {est.shape} vs {act.shape}"
        )
    return estimate_transform_closed_form(est, act).apply(est)


def localization_errors(estimated, actual) -> np.ndarray:
    """Per-node Euclidean position errors (no alignment applied)."""
    est = as_positions(estimated, "estimated", allow_empty=True)
    act = as_positions(actual, "actual", allow_empty=True)
    if est.shape != act.shape:
        raise ValidationError(
            f"estimated and actual must match in shape; got {est.shape} vs {act.shape}"
        )
    diff = est - act
    return np.hypot(diff[:, 0], diff[:, 1])


@dataclass(frozen=True)
class LocalizationReport:
    """Summary statistics for one localization run.

    Attributes
    ----------
    n_total : int
        Nodes the algorithm was asked to localize.
    n_localized : int
        Nodes for which an estimate was produced.
    average_error : float
        Mean position error over localized nodes (the paper's headline
        metric).  ``nan`` when nothing was localized.
    median_error, max_error : float
        Additional robust statistics.
    errors : ndarray
        Per-node errors for localized nodes (aligned if requested).
    localized_fraction : float
        ``n_localized / n_total``.
    """

    n_total: int
    n_localized: int
    average_error: float
    median_error: float
    max_error: float
    errors: np.ndarray = field(repr=False)

    @property
    def localized_fraction(self) -> float:
        if self.n_total == 0:
            return 0.0
        return self.n_localized / self.n_total


def evaluate_localization(
    estimated,
    actual,
    *,
    localized_mask: Optional[Sequence[bool]] = None,
    align: bool = False,
) -> LocalizationReport:
    """Produce a :class:`LocalizationReport` for a localization result.

    Parameters
    ----------
    estimated, actual : array-like of shape (n, 2)
        Estimated and true coordinates for all *n* nodes.  Rows of
        *estimated* for unlocalized nodes may hold any value (e.g. nan)
        as long as *localized_mask* marks them False.
    localized_mask : sequence of bool, optional
        Which nodes were actually localized.  Defaults to all-True,
        except that rows containing nan in *estimated* are automatically
        treated as unlocalized.
    align : bool
        Apply rigid best-fit alignment before computing errors (use for
        anchor-free relative-coordinate methods).
    """
    est = np.asarray(estimated, dtype=float)
    act = as_positions(actual, "actual", allow_empty=True)
    if est.size == 0:
        est = est.reshape(0, 2)
    if est.shape != act.shape:
        raise ValidationError(
            f"estimated and actual must match in shape; got {est.shape} vs {act.shape}"
        )
    finite = np.all(np.isfinite(est), axis=1)
    if localized_mask is None:
        mask = finite
    else:
        mask = np.asarray(localized_mask, dtype=bool)
        if mask.shape != (act.shape[0],):
            raise ValidationError(
                f"localized_mask must have shape ({act.shape[0]},); got {mask.shape}"
            )
        mask = mask & finite

    n_total = act.shape[0]
    n_localized = int(mask.sum())
    if n_localized == 0:
        return LocalizationReport(
            n_total=n_total,
            n_localized=0,
            average_error=float("nan"),
            median_error=float("nan"),
            max_error=float("nan"),
            errors=np.zeros(0),
        )

    est_loc = est[mask]
    act_loc = act[mask]
    if align and n_localized >= 2:
        est_loc = align_to_reference(est_loc, act_loc)
    errors = localization_errors(est_loc, act_loc)
    return LocalizationReport(
        n_total=n_total,
        n_localized=n_localized,
        average_error=float(errors.mean()),
        median_error=float(np.median(errors)),
        max_error=float(errors.max()),
        errors=errors,
    )


def error_histogram(
    errors, *, bin_width: float = 0.1, symmetric: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of (signed) ranging or localization errors.

    Returns ``(bin_edges, counts)``.  With ``symmetric=True`` the bins
    are centered on zero, matching the paper's ranging-error histograms
    (Figures 6 and 7).
    """
    errs = np.asarray(errors, dtype=float)
    errs = errs[np.isfinite(errs)]
    if bin_width <= 0:
        raise ValidationError("bin_width must be positive")
    if errs.size == 0:
        edges = np.array([-bin_width / 2, bin_width / 2]) if symmetric else np.array([0, bin_width])
        return edges, np.zeros(1, dtype=np.int64)
    if symmetric:
        extent = max(abs(errs.min()), abs(errs.max()), bin_width)
        n_bins = int(np.ceil(extent / bin_width))
        edges = np.arange(-n_bins, n_bins + 1) * bin_width + bin_width / 2.0
        edges = np.concatenate([[-(n_bins + 0.5) * bin_width], edges])
    else:
        lo = np.floor(errs.min() / bin_width) * bin_width
        hi = np.ceil(errs.max() / bin_width) * bin_width
        edges = np.arange(lo, hi + bin_width, bin_width)
    counts, edges = np.histogram(errs, bins=edges)
    return edges, counts


def trimmed_mean_error(errors, *, drop_worst: int = 0) -> float:
    """Mean error after dropping the *drop_worst* largest values.

    The paper repeatedly reports both the raw average and the average
    "without the largest k errors" (e.g. 2.2 m -> 1.5 m without the worst
    5 in Figure 18); this helper standardizes that computation.
    """
    errs = np.sort(np.asarray(errors, dtype=float))
    if drop_worst < 0:
        raise ValidationError("drop_worst must be non-negative")
    if drop_worst >= errs.size:
        return float("nan")
    if drop_worst:
        errs = errs[:-drop_worst]
    return float(errs.mean())
