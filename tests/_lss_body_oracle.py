"""Reference LSS epoch for the engine's one body and single-problem tail.

:class:`OracleLss` is ``engine.batch._Lss`` with the per-epoch body it
had before it wrote into persistent buffers: every epoch gathers the
endpoints with ``np.take``, allocates each intermediate, concatenates
the four scatter segments and sums the objective rows through
:func:`row_sums`.  :func:`descend_one` is the single-problem tail of the
same time, which rebinds a fresh velocity and candidate every epoch.
Index selection, Verlet builds and compaction are inherited from the
production class: ``OracleLss.compact`` is ``_Lss.compact``, which
filters the flat term arrays and keeps the candidate list.  The
compaction it replaced, which indexed the kept rows again and dropped
the list, is ``_descend_oracle.ReindexedLss.compact``.

Tests substitute them for the production names (``batch._Lss`` and
``batch._descend_one``, which the body builders and ``_descend`` look up
at call time) and compare values, gradients, points, errors, traces and
counters byte for byte.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.batch import _Lss


def row_sums(terms: np.ndarray, slots: Optional[np.ndarray], shape) -> np.ndarray:
    """Per-row pairwise sums of *terms* laid out on the dense *shape*.

    *slots* are the flat dense positions of *terms* (``None``: every
    slot, in order).  Left-out slots read exact ``+0.0``, so the sum is
    the dense ``sum(axis=1)`` of the same values, grouping included.
    """
    if slots is None:
        return terms.reshape(shape).sum(axis=1)
    dense = np.zeros(shape[0] * shape[1])
    dense[slots] = terms
    return dense.reshape(shape).sum(axis=1)


class OracleLss(_Lss):
    """The production body's selection, evaluated the allocating way."""

    def _stale(self, pts: np.ndarray) -> bool:
        if self._ref is None:
            return not self._built
        moved = pts - self._ref
        # ``not <`` so that a NaN displacement rebuilds too.
        return not np.hypot(moved[..., 0], moved[..., 1]).max() < self._limit

    def value_and_grad(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self._stale(pts):
            self._build(pts)
        n_edges = self._edge_ends.shape[0]
        ends = np.take(pts.reshape(-1, 2), self._ends, axis=0)
        diff = ends[0] - ends[1]
        comp = np.hypot(diff[:, 0], diff[:, 1])
        self.terms += comp.size
        resid = comp[:n_edges] - self._edge_dists
        value = row_sums(self._edge_weights * resid**2, self._edge_slots, self._edge_shape)
        safe = np.maximum(comp, 1e-12)
        coeff = self._edge_weights2 * resid / safe[:n_edges]
        contrib = coeff[:, None] * diff[:n_edges]
        scatter = [contrib, -contrib]
        if self._con_ends.shape[0]:
            d_min = self.min_spacing_m
            ccomp = comp[n_edges:]
            violation = np.minimum(ccomp, d_min) - d_min
            value = value + self.constraint_weight * row_sums(
                violation**2, self._con_slots, self._con_shape
            )
            vcomp = safe[n_edges:]
            vcoeff = 2.0 * self.constraint_weight * (vcomp - d_min) / vcomp
            # Only violated pairs (estimate closer than d_min) exert force.
            vcontrib = np.where(ccomp < d_min, vcoeff, 0.0)[:, None] * diff[n_edges:]
            scatter += [vcontrib, -vcontrib]
        grad = np.bincount(
            self._bins,
            weights=np.concatenate(scatter).ravel(),
            minlength=self.n_bins,
        )
        return value, grad.reshape(pts.shape)


def descend_one(
    lss: _Lss,
    pts: np.ndarray,
    grad: np.ndarray,
    current: float,
    alpha: float,
    velocity: np.ndarray,
    stall: int,
    *,
    epochs: int,
    tolerance: float,
    momentum: float,
    patience: int,
    pinned: Optional[np.ndarray],
    trace: Optional[List[float]],
) -> Tuple[np.ndarray, float, bool, int]:
    """At most *epochs* epochs on a stack of one, with scalar step state."""
    epoch = 0
    for epoch in range(1, epochs + 1):
        if pinned is not None:
            grad[:, pinned] = 0.0
        velocity = momentum * velocity - alpha * grad
        candidate = pts + velocity
        value, candidate_grad = lss.value_and_grad(candidate)
        value = float(value[0])
        rejected = not value < current
        if rejected:
            # Overshoot kills the momentum (scalar rule).
            velocity[...] = 0.0
            alpha *= 0.5
            stall += 1
        else:
            improvement = (current - value) / max(current, 1e-12)
            pts, grad, current = candidate, candidate_grad, value
            alpha *= 1.05
            # A NaN improvement leaves the count alone, as in the stack.
            if improvement < tolerance:
                stall += 1
            elif improvement >= tolerance:
                stall = 0
        if trace is not None:
            trace.append(current)
        if (rejected and alpha < 1e-14) or stall >= patience:
            return pts, current, True, epoch
    return pts, current, False, epoch
