"""Reference stacked LSS descent with eager, re-indexing compaction.

``engine.batch._descend`` keeps a finished problem's row in the working
stack, frozen, until a quarter of the stack has finished or one problem
is left, and ``engine.batch._Lss.compact`` filters the body's flat term
arrays and carries the live Verlet candidate list over.  This module
keeps the loop and the compaction they replaced:

- :func:`descend` compacts the stack at every epoch in which a problem
  finishes;
- :class:`ReindexedLss` compacts by building a fresh body from the kept
  rows of the raw edge and constraint stacks, so its flat arrays are
  indexed from scratch and a constrained body builds a new candidate
  list at its next evaluation.

Both run the production body's evaluation, and :func:`descend` hands
its last straggler to the reference single-problem tail
(``_lss_body_oracle.descend_one``).  Tests build the reference body by
substituting :class:`ReindexedLss` for ``batch._Lss`` (the body
builders look it up at call time) and compare configurations, errors,
converged flags, traces and epoch counts with the production loop byte
for byte.  Compaction, build and term counters differ by design.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.engine.batch import _Descent, _Lss

from _lss_body_oracle import descend_one


class ReindexedLss(_Lss):
    """The production body, compacted by re-indexing the kept rows."""

    def __init__(
        self, pairs, dists, weights, constraint_pairs, constraint_valid,
        min_spacing_m, constraint_weight, n_nodes,
    ) -> None:
        super().__init__(
            pairs, dists, weights, constraint_pairs, constraint_valid,
            min_spacing_m, constraint_weight, n_nodes,
        )
        self._stacks = (
            np.asarray(pairs), np.asarray(dists, dtype=float),
            np.asarray(weights, dtype=float), constraint_pairs, constraint_valid,
        )

    def compact(self, keep: np.ndarray) -> "ReindexedLss":
        pairs, dists, weights, constraint_pairs, constraint_valid = self._stacks
        body = type(self)(
            pairs[keep],
            dists[keep],
            weights[keep],
            np.asarray(constraint_pairs)[keep] if self.constrained else None,
            None if constraint_valid is None else np.asarray(constraint_valid)[keep],
            self.min_spacing_m,
            self.constraint_weight,
            self.n_nodes,
        )
        body.rebuilds, body.terms = self.rebuilds, self.terms
        return body


def descend(
    lss: _Lss,
    pts: np.ndarray,
    *,
    step_size: float,
    max_epochs: int,
    tolerance: float,
    momentum: float,
    patience: int,
    pinned: Optional[np.ndarray] = None,
    traces: Optional[List[List[float]]] = None,
) -> _Descent:
    """One momentum-descent round that compacts at every finish."""
    total = pts.shape[0]
    pts_out = pts.copy()
    err_out = np.empty(total)
    conv_out = np.zeros(total, dtype=bool)
    if total == 0:
        return _Descent(pts_out, err_out, conv_out, 0, 0, 0, 0)
    remaining = np.arange(total)
    current, grad = lss.value_and_grad(pts)
    alpha = np.full(total, float(step_size))
    velocity = np.zeros_like(pts)
    stall = np.zeros(total, dtype=np.int64)
    epochs_run = 0
    compactions = 0

    while remaining.size > 1 and epochs_run < max_epochs:
        epochs_run += 1
        if pinned is not None:
            grad[:, pinned] = 0.0
        velocity = momentum * velocity - alpha[:, None, None] * grad
        candidate = pts + velocity
        value, candidate_grad = lss.value_and_grad(candidate)
        improvement = (current - value) / np.maximum(current, 1e-12)
        improved = value < current
        rejected = ~improved

        accepted = improved[:, None, None]
        np.copyto(pts, candidate, where=accepted)
        np.copyto(grad, candidate_grad, where=accepted)
        np.copyto(current, value, where=improved)
        # Overshoot kills the momentum (scalar rule).
        np.copyto(velocity, 0.0, where=rejected[:, None, None])
        alpha *= np.where(improved, 1.05, 0.5)
        stall += rejected | (improved & (improvement < tolerance))
        np.copyto(stall, 0, where=improved & (improvement >= tolerance))
        if traces is not None:
            for b, error in zip(remaining.tolist(), current.tolist()):
                traces[b].append(error)

        finished = (rejected & (alpha < 1e-14)) | (stall >= patience)
        if finished.any():
            compactions += 1
            done = remaining[finished]
            pts_out[done] = pts[finished]
            err_out[done] = current[finished]
            conv_out[done] = True
            keep = ~finished
            if not keep.any():
                return _Descent(
                    pts_out, err_out, conv_out, epochs_run, compactions,
                    lss.rebuilds, lss.terms,
                )
            remaining = remaining[keep]
            pts = pts[keep]
            grad = grad[keep]
            current = current[keep]
            alpha = alpha[keep]
            velocity = velocity[keep]
            stall = stall[keep]
            lss = lss.compact(keep)

    if remaining.size == 1:
        b = remaining[0]
        pts, current, converged, epochs = descend_one(
            lss, pts, grad, float(current[0]), float(alpha[0]), velocity, int(stall[0]),
            epochs=max_epochs - epochs_run, tolerance=tolerance, momentum=momentum,
            patience=patience, pinned=pinned,
            trace=None if traces is None else traces[b],
        )
        epochs_run += epochs
        compactions += converged
        conv_out[b] = converged
    pts_out[remaining] = pts
    err_out[remaining] = current
    return _Descent(
        pts_out, err_out, conv_out, epochs_run, compactions, lss.rebuilds, lss.terms
    )
