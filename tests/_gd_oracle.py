"""Reference body for the batched multilateration descent.

:func:`batch_gradient_descent` is the body
``engine.batch.batch_gradient_descent`` had before it kept each
problem's anchor offsets and ranges across iterations: every iteration
recomputes ``pos - anchors`` and ``hypot`` for the gradient, and again
for the candidate's objective, and the straggler tail
(:func:`finish_scalar`) recomputes the gradient after a rejected step
although the point has not moved.  It emits the same counter bundle as
the production kernel (``engine.batch.gd_*``, the tail's problems and
loop passes included), through its ``_count_gd``, so tests compare
positions, residuals and counters byte for byte.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine.batch import _count_gd


def _batch_objective(
    positions: np.ndarray,
    anchors: np.ndarray,
    dists: np.ndarray,
    sqrt_w: np.ndarray,
) -> np.ndarray:
    diff = positions[:, None, :] - anchors
    ranges = np.hypot(diff[..., 0], diff[..., 1])
    r = sqrt_w * (ranges - dists)
    return np.einsum("bk,bk->b", r, r)


def finish_scalar(
    anchors: np.ndarray,
    dists: np.ndarray,
    weights2: np.ndarray,
    sqrt_w: np.ndarray,
    pos: np.ndarray,
    current: float,
    alpha: float,
    iterations: int,
    tolerance: float,
) -> Tuple[np.ndarray, float, int]:
    """One straggler's descent; returns ``(pos, residual, loop passes)``."""
    pos = pos.copy()
    passes = 0
    for _ in range(iterations):
        passes += 1
        diff = pos - anchors
        ranges = np.maximum(np.hypot(diff[:, 0], diff[:, 1]), 1e-12)
        coeff = weights2 * (ranges - dists) / ranges
        grad = (coeff[:, None] * diff).sum(axis=0)
        if np.hypot(grad[0], grad[1]) < tolerance:
            break
        candidate = pos - alpha * grad
        cdiff = candidate - anchors
        r = sqrt_w * (np.hypot(cdiff[:, 0], cdiff[:, 1]) - dists)
        value = float(np.dot(r, r))
        if value < current:
            pos = candidate
            current = value
            alpha *= 1.1
        else:
            alpha *= 0.5
            if alpha < 1e-12:
                break
    return pos, current, passes


def batch_gradient_descent(
    anchors: np.ndarray,
    dists: np.ndarray,
    weights: np.ndarray,
    valid: np.ndarray,
    initial: np.ndarray,
    *,
    step_size: float = 0.1,
    max_iterations: int = 2000,
    tolerance: float = 1e-9,
) -> Tuple[np.ndarray, np.ndarray]:
    total = anchors.shape[0]
    pos_out = np.empty((total, 2))
    res_out = np.empty(total)
    if total == 0:
        return pos_out, res_out

    w = np.where(valid, weights, 0.0)
    d = np.where(valid, dists, 0.0)
    a = np.where(valid[..., None], anchors, 0.0)
    sqrt_w = np.sqrt(w)
    w2 = 2.0 * w

    remaining = np.arange(total)
    pos = initial.astype(float).copy()
    current = _batch_objective(pos, a, d, sqrt_w)
    alpha = np.full(total, float(step_size))
    iterations_run = 0
    compactions = 0

    for iteration in range(max_iterations):
        iterations_run = iteration + 1
        diff = pos[:, None, :] - a
        ranges = np.maximum(np.hypot(diff[..., 0], diff[..., 1]), 1e-12)
        coeff = w2 * (ranges - d) / ranges
        grad = (coeff[:, None, :] @ diff)[:, 0, :]
        gnorm = np.hypot(grad[:, 0], grad[:, 1])
        not_converged = gnorm >= tolerance

        candidate = pos - alpha[:, None] * grad
        value = _batch_objective(candidate, a, d, sqrt_w)
        improved = not_converged & (value < current)
        np.copyto(pos, candidate, where=improved[:, None])
        np.copyto(current, value, where=improved)
        alpha *= np.where(improved, 1.1, 0.5)
        finished = ~improved & (~not_converged | (alpha < 1e-12))

        if finished.any():
            compactions += 1
            done_idx = remaining[finished]
            pos_out[done_idx] = pos[finished]
            res_out[done_idx] = current[finished]
            keep = ~finished
            if not keep.any():
                _count_gd(total, iterations_run, compactions, 0, 0)
                return pos_out, res_out
            remaining = remaining[keep]
            pos = pos[keep]
            current = current[keep]
            alpha = alpha[keep]
            a = a[keep]
            d = d[keep]
            w2 = w2[keep]
            sqrt_w = sqrt_w[keep]
            if remaining.size <= 2:
                iters_left = max_iterations - iteration - 1
                tail_passes = 0
                for t in range(remaining.size):
                    p, c, passes = finish_scalar(
                        a[t],
                        d[t],
                        w2[t],
                        sqrt_w[t],
                        pos[t],
                        float(current[t]),
                        float(alpha[t]),
                        iters_left,
                        tolerance,
                    )
                    pos_out[remaining[t]] = p
                    res_out[remaining[t]] = c
                    tail_passes += passes
                _count_gd(total, iterations_run, compactions, remaining.size, tail_passes)
                return pos_out, res_out

    pos_out[remaining] = pos
    res_out[remaining] = current
    _count_gd(total, iterations_run, compactions, 0, 0)
    return pos_out, res_out
