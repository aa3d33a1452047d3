"""Batched NumPy solver kernels (see :mod:`repro.engine` for layout).

Every kernel here is the vectorized twin of a scalar reference
implementation in :mod:`repro.core`:

====================================  =====================================
batched kernel                        scalar reference
====================================  =====================================
:func:`batch_gradient_descent`        ``multilateration._gradient_descent_solve``
:func:`consistency_filter_fast`       ``multilateration.intersection_consistency_filter``
:func:`batch_lss_error`               ``lss.lss_error``
:func:`batch_lss_gradient`            ``lss.lss_gradient``
:func:`batch_lss_descend`             ``lss._descend_scalar``
:func:`batch_lss_error_padded`        ``lss.lss_error`` (per problem)
:func:`batch_lss_gradient_padded`     ``lss.lss_gradient`` (per problem)
:func:`batch_lss_descend_padded`      ``lss._descend_scalar`` (per problem)
====================================  =====================================

Two stacking layouts coexist.  The *shared-edge* kernels
(:func:`batch_lss_error` et al.) advance ``(n_configs, n_nodes, 2)``
configurations of **one** problem — the same node count and edge list
for every batch entry — and back multi-seed/multi-restart campaigns.
The *padded* kernels (``*_padded``) stack **heterogeneous** problems:
each batch entry has its own node count, edge list, and constraint set,
padded to the batch maxima with zero-weight edge slots and masked
constraint slots, so every padded slot contributes exact zeros to the
objective and gradient.  This is the layout the distributed-LSS
pipeline (paper Section 4.3, Figures 24/25) uses to solve every node's
local-map problem for a refinement round in one descent loop.

The parity contract (same per-problem operations, in the same order,
with padded slots contributing exact zeros) is what makes the
equivalence tests in ``tests/test_engine_batch.py`` and
``tests/test_distributed.py`` meaningful: a batched result may differ
from the scalar one only by floating-point reduction error, never by
algorithm.

Every public kernel takes a ``backend`` argument (a name, an
:class:`~repro.engine.backend.ArrayBackend`, or ``None`` for the
process default).  On the default NumPy backend the kernel body below
runs unchanged — the exact pre-seam code path, byte-identical outputs
(determinism guarantee #9).  Any other backend dispatches to the
portable Array-API twins in :mod:`repro.engine.xp_kernels`, which
agree to floating-point tolerance (``tests/test_backend_parity.py``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..errors import ValidationError
from . import xp_kernels
from .backend import resolve_backend

__all__ = [
    "batch_gradient_descent",
    "batch_lss_descend",
    "batch_lss_descend_padded",
    "batch_lss_error",
    "batch_lss_error_padded",
    "batch_lss_gradient",
    "batch_lss_gradient_padded",
    "consistency_filter_fast",
    "lss_localize_multistart",
    "solve_multilateration_batch",
]


# ---------------------------------------------------------------------------
# Vectorized intersection consistency filter (Section 4.1.2)
# ---------------------------------------------------------------------------


def consistency_filter_fast(
    anchor_positions: np.ndarray,
    distances: np.ndarray,
    *,
    cluster_radius_m: float = 1.0,
) -> np.ndarray:
    """Vectorized intersection consistency filter for one problem.

    Same semantics as
    :func:`repro.core.multilateration.intersection_consistency_filter`
    (anchors whose range circles produce no intersection point within
    *cluster_radius_m* of a point from a *different* circle pair are
    dropped; the full set is returned when fewer than three anchors
    survive).  This is the batch-of-one view of the same
    :func:`_batch_consistency_keep` kernel the network solver runs, so
    parity tests against the scalar reference exercise exactly the hot
    path.  Inputs are trusted; use the core function for validated
    user-facing calls.
    """
    anchors = np.asarray(anchor_positions, dtype=float)
    dists = np.asarray(distances, dtype=float)
    n = anchors.shape[0]
    if n < 3:
        return np.arange(n)
    keep = _batch_consistency_keep(
        anchors[None, :, :],
        dists[None, :],
        np.ones((1, n), dtype=bool),
        cluster_radius_m,
    )[0]
    return np.nonzero(keep)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# Batched multilateration (Section 4.1)
# ---------------------------------------------------------------------------


def _batch_objective(
    positions: np.ndarray,
    anchors: np.ndarray,
    dists: np.ndarray,
    sqrt_w: np.ndarray,
) -> np.ndarray:
    """Weighted least-squares objective for each problem, shape (B,)."""
    diff = positions[:, None, :] - anchors
    ranges = np.hypot(diff[..., 0], diff[..., 1])
    r = sqrt_w * (ranges - dists)
    return np.einsum("bk,bk->b", r, r)


def _finish_scalar(
    anchors: np.ndarray,
    dists: np.ndarray,
    weights2: np.ndarray,
    sqrt_w: np.ndarray,
    pos: np.ndarray,
    current: float,
    alpha: float,
    iterations: int,
    tolerance: float,
) -> Tuple[np.ndarray, float]:
    """Finish one problem's descent without batch overhead.

    Continues the identical accept/reject trajectory from the batched
    loop's state (*weights2* is the pre-doubled ``2 w``); used once the
    active batch has shrunk to a couple of stragglers, whose remaining
    iterations would otherwise each pay the full batched-op dispatch
    cost.
    """
    pos = pos.copy()
    for _ in range(iterations):
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
    return pos, current


@lru_cache(maxsize=None)
def _kernel_counter_names(name: str) -> Tuple[str, str, str, str]:
    """Counter names for one kernel, formatted once per process: the
    disabled-telemetry path must not pay f-string rendering per solve
    (lint rule RPL008)."""
    prefix = f"engine.batch.{name}"
    return (
        f"{prefix}_solves",
        f"{prefix}_problems",
        f"{prefix}_iterations",
        f"{prefix}_compactions",
    )


def _count_kernel(
    name: str, n_problems: int, iterations: int, compactions: Optional[int] = None
) -> None:
    """One counter bundle per kernel *call* (never per epoch), so the
    disabled-telemetry path stays a handful of no-op calls per solve."""
    solves, problems, iters, compact = _kernel_counter_names(name)
    telemetry.count(solves, 1)
    telemetry.count(problems, n_problems)
    telemetry.count(iters, iterations)
    if compactions is not None:
        telemetry.count(compact, compactions)


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
    backend=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive gradient descent over a batch of multilateration problems.

    Parameters
    ----------
    anchors : ndarray of shape (B, K, 2)
        Padded anchor coordinates per problem.
    dists, weights : ndarray of shape (B, K)
        Measured distances and confidence weights; padded slots may hold
        anything (they are zeroed via *valid*).
    valid : ndarray of bool, shape (B, K)
        True for real anchor slots.
    initial : ndarray of shape (B, 2)
        Per-problem starting points.

    Returns ``(positions (B, 2), residuals (B,))``.  Each problem runs
    the identical accept/reject rule of the scalar solver (x1.1 step on
    improvement, /2 on overshoot, stop on gradient norm < *tolerance*
    or step < 1e-12) on its own adaptive step size; finished problems
    are compacted out of the working batch.
    """
    be = resolve_backend(backend)
    if not be.is_native_numpy:
        pos, res, iterations = xp_kernels.gd_descent_xp(
            be,
            np.asarray(anchors, dtype=float),
            np.asarray(dists, dtype=float),
            np.asarray(weights, dtype=float),
            np.asarray(valid, dtype=bool),
            np.asarray(initial, dtype=float),
            step_size=step_size,
            max_iterations=max_iterations,
            tolerance=tolerance,
        )
        _count_kernel("gd", pos.shape[0], iterations, 0)
        return pos, res
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
                _count_kernel("gd", total, iterations_run, compactions)
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
                # A couple of stragglers left: their remaining
                # iterations cost less on the scalar fast path than
                # under full batched-dispatch overhead.
                iters_left = max_iterations - iteration - 1
                for t in range(remaining.size):
                    p, c = _finish_scalar(
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
                _count_kernel("gd", total, iterations_run, compactions)
                return pos_out, res_out

    pos_out[remaining] = pos
    res_out[remaining] = current
    _count_kernel("gd", total, iterations_run, compactions)
    return pos_out, res_out


def _batch_collinear(
    anchors: np.ndarray, valid: np.ndarray, *, tol: float = 1e-9
) -> np.ndarray:
    """Batched twin of ``geometry.is_collinear`` on masked anchor sets.

    Invalid slots become zero rows of the centered matrix, which leave
    the singular values untouched, so each problem's verdict matches
    the scalar predicate on its unpadded anchor set.
    """
    counts = valid.sum(axis=1)
    safe_counts = np.maximum(counts, 1)
    masked = np.where(valid[..., None], anchors, 0.0)
    mean = masked.sum(axis=1) / safe_counts[:, None]
    centered = np.where(valid[..., None], anchors - mean[:, None, :], 0.0)
    scale = np.abs(centered).max(axis=(1, 2))
    collinear = counts <= 2
    nonzero = scale > 0.0
    todo = ~collinear & nonzero
    if np.any(todo):
        normalized = centered[todo] / scale[todo, None, None]
        singulars = np.linalg.svd(normalized, compute_uv=False)
        collinear[np.nonzero(todo)[0][singulars[:, -1] < tol]] = True
    collinear[~nonzero] = True
    return collinear


#: Cap on elements per (chunk, 2P, 2P) point-distance matrix in the
#: batched consistency filter (~64 MB of float64 per temporary).
_FILTER_CHUNK_ELEMENTS = 8_000_000


def _batch_consistency_keep(
    anchors: np.ndarray,
    dists: np.ndarray,
    valid: np.ndarray,
    cluster_radius_m: float,
) -> np.ndarray:
    """Intersection consistency filter over a whole padded batch.

    Returns a ``(B, K)`` keep mask with the reference filter's per-
    problem semantics: anchors of circle pairs whose intersection
    points lie within *cluster_radius_m* of a point from a different
    pair are kept; problems where fewer than three anchors would
    survive (including the no-intersections case) keep their full
    valid set.  Tangent pairs produce the same point twice here where
    the scalar path stores it once — a duplicate of the same pair can
    never vouch for itself, so the consistent sets are identical.

    The point-cluster check materializes ``(chunk, 2P, 2P)`` distance
    matrices with ``P = K(K-1)/2``; the batch is processed in chunks
    sized to keep those temporaries bounded, so one densely-anchored
    problem cannot balloon the whole round's memory footprint.
    """
    n_problems, max_k = dists.shape
    if max_k < 2:
        return valid.copy()
    n_points = max_k * (max_k - 1)  # 2P point slots per problem
    chunk = max(1, _FILTER_CHUNK_ELEMENTS // (n_points * n_points))
    if chunk < n_problems:
        out = np.empty_like(valid)
        for start in range(0, n_problems, chunk):
            stop = start + chunk
            out[start:stop] = _batch_consistency_keep(
                anchors[start:stop], dists[start:stop], valid[start:stop],
                cluster_radius_m,
            )
        return out
    i_idx, j_idx = np.triu_indices(max_k, k=1)
    ca = anchors[:, i_idx]
    cb = anchors[:, j_idx]
    ra = dists[:, i_idx]
    rb = dists[:, j_idx]
    ab = cb - ca
    dd = np.hypot(ab[..., 0], ab[..., 1])
    pair_ok = (
        valid[:, i_idx]
        & valid[:, j_idx]
        & (dd > 0.0)
        & (ra > 0.0)
        & (rb > 0.0)
        & (dd <= ra + rb)
        & (dd >= np.abs(ra - rb))
    )
    safe_d = np.where(dd > 0.0, dd, 1.0)
    along = (ra**2 - rb**2 + dd**2) / (2.0 * safe_d)
    h = np.sqrt(np.maximum(ra**2 - along**2, 0.0))
    mid = ca + (along / safe_d)[..., None] * ab
    perp = np.stack([-ab[..., 1], ab[..., 0]], axis=-1) / safe_d[..., None]
    offset = h[..., None] * perp
    # (B, 2P, 2): the two intersection points of every pair.
    points = np.concatenate([mid + offset, mid - offset], axis=1)
    point_ok = np.concatenate([pair_ok, pair_ok], axis=1)

    n_pairs = i_idx.shape[0]
    pair_id = np.concatenate([np.arange(n_pairs), np.arange(n_pairs)])
    same_pair = pair_id[:, None] == pair_id[None, :]
    membership = np.zeros((2 * n_pairs, max_k))
    membership[np.arange(2 * n_pairs), np.concatenate([i_idx, i_idx])] = 1.0
    membership[np.arange(2 * n_pairs), np.concatenate([j_idx, j_idx])] = 1.0

    dx = points[..., 0][:, :, None] - points[..., 0][:, None, :]
    dy = points[..., 1][:, :, None] - points[..., 1][:, None, :]
    close = np.hypot(dx, dy) <= cluster_radius_m
    vouch = (
        close
        & ~same_pair[None, :, :]
        & point_ok[:, :, None]
        & point_ok[:, None, :]
    )
    vouched = vouch.any(axis=2)
    consistent = (vouched.astype(float) @ membership) > 0.0
    counts = consistent.sum(axis=1)
    return np.where((counts >= 3)[:, None], consistent, valid)


def solve_multilateration_batch(
    anchor_sets: Sequence[np.ndarray],
    dist_sets: Sequence[np.ndarray],
    weight_sets: Sequence[np.ndarray],
    *,
    min_anchors: int = 3,
    consistency_check: bool = True,
    cluster_radius_m: float = 1.0,
    step_size: float = 0.1,
    max_iterations: int = 2000,
    tolerance: float = 1e-9,
    backend=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a batch of heterogeneous multilateration problems at once.

    Each problem ``b`` is (anchor_sets[b] of shape (k_b, 2),
    dist_sets[b], weight_sets[b]).  Per problem this applies the same
    pipeline as :func:`repro.core.multilaterate` with the gradient
    solver: intersection consistency filter (falling back to the full
    anchor set when fewer than *min_anchors* survive), collinearity
    rejection, weighted-centroid initialization, adaptive gradient
    descent.

    Returns
    -------
    positions : ndarray of shape (B, 2)
        Estimates; rows of unsolvable problems (too few anchors or
        collinear anchors) are nan.
    solved : ndarray of bool, shape (B,)
    residuals : ndarray of shape (B,)
        Final objective values (nan where unsolved).
    """
    n_problems = len(anchor_sets)
    positions = np.full((n_problems, 2), np.nan)
    residuals = np.full(n_problems, np.nan)
    solved = np.zeros(n_problems, dtype=bool)
    if n_problems == 0:
        return positions, solved, residuals

    max_k = max(np.asarray(a).shape[0] for a in anchor_sets)
    stacked_anchors = np.zeros((n_problems, max_k, 2))
    stacked_dists = np.zeros((n_problems, max_k))
    stacked_weights = np.zeros((n_problems, max_k))
    valid = np.zeros((n_problems, max_k), dtype=bool)
    for b in range(n_problems):
        anchors = np.asarray(anchor_sets[b], dtype=float)
        k = anchors.shape[0]
        stacked_anchors[b, :k] = anchors
        stacked_dists[b, :k] = np.asarray(dist_sets[b], dtype=float)
        stacked_weights[b, :k] = np.asarray(weight_sets[b], dtype=float)
        valid[b, :k] = True

    if consistency_check:
        keep = _batch_consistency_keep(
            stacked_anchors, stacked_dists, valid, cluster_radius_m
        )
        counts = keep.sum(axis=1)
        valid = np.where((counts >= min_anchors)[:, None], keep, valid)

    enough = valid.sum(axis=1) >= min_anchors
    collinear = _batch_collinear(stacked_anchors, valid)
    solvable = enough & ~collinear
    if not np.any(solvable):
        return positions, solved, residuals

    sub_anchors = stacked_anchors[solvable]
    sub_dists = stacked_dists[solvable]
    sub_weights = np.where(valid[solvable], stacked_weights[solvable], 0.0)
    sub_valid = valid[solvable]

    totals = sub_weights.sum(axis=1)
    weighted = np.einsum("bk,bkx->bx", sub_weights, sub_anchors)
    counts = np.maximum(sub_valid.sum(axis=1), 1)
    plain_mean = np.where(sub_valid[..., None], sub_anchors, 0.0).sum(axis=1) / counts[
        :, None
    ]
    initial = np.where(
        (totals > 0)[:, None], weighted / np.maximum(totals, 1e-300)[:, None], plain_mean
    )

    # Stacking, the consistency filter, collinearity rejection, and the
    # centroid init are one-shot setup and stay host-side NumPy for
    # every backend; only the descent loop dispatches.
    pos, res = batch_gradient_descent(
        sub_anchors,
        sub_dists,
        sub_weights,
        sub_valid,
        initial,
        step_size=step_size,
        max_iterations=max_iterations,
        tolerance=tolerance,
        backend=backend,
    )
    positions[solvable] = pos
    residuals[solvable] = res
    solved[solvable] = True
    return positions, solved, residuals


# ---------------------------------------------------------------------------
# Batched LSS (Section 4.2)
# ---------------------------------------------------------------------------
#
# Each LSS family has one fused body that returns the objective and its
# gradient from a single gather of the edge and constraint endpoints and
# a single ``hypot`` pass.  The descent loops evaluate it once per epoch,
# at the candidate, and keep an accepted candidate's gradient for the
# next epoch.  Every objective sum and every gradient bin adds the same
# terms in the same order as the two-pass formulation (gradient at the
# current point, objective at the candidate, sequential ``add.at``
# scatter), so the outputs are bytewise that formulation's.


def _has_constraints(constraint_pairs, min_spacing_m) -> bool:
    """Whether the soft minimum-spacing penalty has any pair to act on."""
    return (
        min_spacing_m is not None
        and constraint_pairs is not None
        and np.asarray(constraint_pairs).size > 0
    )


class _SharedEdgeLss:
    """Fused LSS objective and gradient for one shared edge list.

    Works on the node-major ``(n_nodes, B, 2)`` layout, where gathering
    edge endpoints indexes the leading axis directly.  Everything that
    depends only on the edge list is built once per descent call: the
    gather indices, ``2 w``, and the scatter bins.

    The gradient is one ``np.bincount`` over the concatenated
    ``[i, j, ci, cj]`` endpoints with one bin per ``(node, config,
    coordinate)``.  ``bincount`` adds its weights in input order, so
    every bin receives the same terms in the same order as sequential
    ``add.at`` calls on ``i``, ``j``, ``ci`` and ``cj`` would give it.
    """

    def __init__(
        self,
        edges,
        constraint_pairs: Optional[np.ndarray],
        min_spacing_m: Optional[float],
        constraint_weight: float,
        n_nodes: int,
        n_batch: int,
    ) -> None:
        i_idx = edges.pairs[:, 0]
        j_idx = edges.pairs[:, 1]
        self.n_edges = i_idx.shape[0]
        self.dists = edges.distances[:, None]
        self.weights = edges.weights[:, None]
        self.weights2 = 2.0 * self.weights
        self.constrained = _has_constraints(constraint_pairs, min_spacing_m)
        heads, tails, scatter_order = [i_idx], [j_idx], [i_idx, j_idx]
        if self.constrained:
            ci, cj = constraint_pairs[:, 0], constraint_pairs[:, 1]
            heads.append(ci)
            tails.append(cj)
            scatter_order += [ci, cj]
            self.min_spacing_m = min_spacing_m
            self.constraint_weight = constraint_weight
        # Gather order: every edge and constraint head, then every tail.
        self.ends = np.concatenate(heads + tails)
        self.n_pairs = self.ends.shape[0] // 2
        cells = np.arange(2 * n_batch).reshape(n_batch, 2)
        self.scatter = (
            np.concatenate(scatter_order)[:, None, None] * (2 * n_batch) + cells
        ).ravel()
        self.shape = (n_nodes, n_batch, 2)
        self.n_bins = 2 * n_nodes * n_batch

    def value_and_grad(self, pts_t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Objective ``(B,)`` and gradient ``(n_nodes, B, 2)`` at *pts_t*."""
        n_edges = self.n_edges
        ends = np.take(pts_t, self.ends, axis=0)
        diff = ends[: self.n_pairs] - ends[self.n_pairs :]
        comp = np.hypot(diff[..., 0], diff[..., 1])
        resid = comp[:n_edges] - self.dists
        value = (self.weights * resid**2).sum(axis=0)
        safe = np.maximum(comp, 1e-12)
        coeff = self.weights2 * resid / safe[:n_edges]
        contrib = coeff[..., None] * diff[:n_edges]
        terms = [contrib, -contrib]
        if self.constrained:
            d_min = self.min_spacing_m
            ccomp = comp[n_edges:]
            violation = np.minimum(ccomp, d_min) - d_min
            value = value + self.constraint_weight * (violation**2).sum(axis=0)
            vcomp = safe[n_edges:]
            vcoeff = 2.0 * self.constraint_weight * (vcomp - d_min) / vcomp
            # Only violated pairs (estimate closer than d_min) exert force.
            vcoeff = np.where(ccomp < d_min, vcoeff, 0.0)
            vcontrib = vcoeff[..., None] * diff[n_edges:]
            terms += [vcontrib, -vcontrib]
        grad = np.bincount(
            self.scatter,
            weights=np.concatenate(terms).ravel(),
            minlength=self.n_bins,
        )
        return value, grad.reshape(self.shape)


def _shared_edge_value_and_grad(
    configs,
    edges,
    constraint_pairs: Optional[np.ndarray],
    min_spacing_m: Optional[float],
    constraint_weight: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused body on the public batch-major ``(B, n_nodes, 2)`` layout."""
    pts_t = np.asarray(configs, dtype=float).transpose(1, 0, 2)
    n_nodes, n_batch = pts_t.shape[:2]
    lss = _SharedEdgeLss(
        edges, constraint_pairs, min_spacing_m, constraint_weight, n_nodes, n_batch
    )
    value, grad_t = lss.value_and_grad(pts_t)
    return value, grad_t.transpose(1, 0, 2)


def batch_lss_error(
    configs: np.ndarray,
    edges,
    *,
    constraint_pairs: Optional[np.ndarray] = None,
    min_spacing_m: Optional[float] = None,
    constraint_weight: float = 10.0,
    backend=None,
) -> np.ndarray:
    """LSS objective ``E`` for stacked configurations, shape (B,).

    ``configs`` has shape ``(B, n_nodes, 2)``; per configuration this is
    the same reduction as :func:`repro.core.lss.lss_error`.
    """
    pts = np.asarray(configs, dtype=float)
    be = resolve_backend(backend)
    if not be.is_native_numpy:
        return xp_kernels.lss_error_xp(
            be, pts, edges, constraint_pairs, min_spacing_m, constraint_weight
        )
    return _shared_edge_value_and_grad(
        pts, edges, constraint_pairs, min_spacing_m, constraint_weight
    )[0]


def batch_lss_gradient(
    configs: np.ndarray,
    edges,
    *,
    constraint_pairs: Optional[np.ndarray] = None,
    min_spacing_m: Optional[float] = None,
    constraint_weight: float = 10.0,
    backend=None,
) -> np.ndarray:
    """Gradient of the LSS objective for stacked configurations.

    Shape ``(B, n_nodes, 2)``; the scatter-accumulation runs in edge
    order per configuration, mirroring the scalar
    :func:`repro.core.lss.lss_gradient`.
    """
    pts = np.asarray(configs, dtype=float)
    be = resolve_backend(backend)
    if not be.is_native_numpy:
        return xp_kernels.lss_gradient_xp(
            be, pts, edges, constraint_pairs, min_spacing_m, constraint_weight
        )
    return _shared_edge_value_and_grad(
        pts, edges, constraint_pairs, min_spacing_m, constraint_weight
    )[1]


def batch_lss_descend(
    configs: np.ndarray,
    edges,
    constraint_pairs: Optional[np.ndarray],
    *,
    min_spacing_m: Optional[float],
    constraint_weight: float,
    step_size: float,
    max_epochs: int,
    tolerance: float,
    free_mask: np.ndarray,
    traces: Optional[List[List[float]]] = None,
    momentum: float = 0.9,
    patience: int = 50,
    backend=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One momentum-gradient-descent round over stacked configurations.

    Each configuration follows the identical accept/reject schedule of
    the scalar round (``repro.core.lss._descend_scalar``): x1.05 step on
    improvement, /2 with momentum reset on overshoot, early stop after
    *patience* stalled epochs or when the step underflows.  Finished
    configurations freeze while the rest keep descending.

    Per epoch the objective and gradient are evaluated together at the
    candidate, from one gather of the edge and constraint endpoints and
    one ``hypot`` pass.  An accepted candidate's gradient is kept for the
    next epoch: it is exactly the gradient that epoch would recompute at
    the new point, and a rejected epoch leaves both point and gradient
    as they were.  The gradient scatter is one order-preserving
    ``np.bincount`` that adds every bin's terms in the order of
    sequential ``add.at`` calls, so trajectories, traces and epoch
    counts are bytewise those of a two-pass kernel that recomputes the
    gradient at the current point each epoch.  The padded family is a
    separate kernel for now; :func:`batch_lss_descend_padded` says why.

    Parameters
    ----------
    configs : ndarray of shape (B, n_nodes, 2)
        Starting configurations; not modified.
    free_mask : ndarray of bool, shape (n_nodes,)
        Nodes free to move (False rows are pinned).
    traces : list of B lists, optional
        Per-configuration error traces, appended in place (one value per
        epoch the configuration was still active).

    Returns ``(configs (B, n, 2), errors (B,), converged (B,))``.
    """
    be = resolve_backend(backend)
    if not be.is_native_numpy:
        pts, current, converged, epochs = xp_kernels.lss_descend_xp(
            be,
            np.asarray(configs, dtype=float),
            edges,
            constraint_pairs,
            min_spacing_m=min_spacing_m,
            constraint_weight=constraint_weight,
            step_size=step_size,
            max_epochs=max_epochs,
            tolerance=tolerance,
            free_mask=np.asarray(free_mask, dtype=bool),
            traces=traces,
            momentum=momentum,
            patience=patience,
        )
        _count_kernel("lss", pts.shape[0], epochs)
        return pts, current, converged
    pts_t = np.asarray(configs, dtype=float).transpose(1, 0, 2).copy()
    n_nodes, n_batch = pts_t.shape[:2]
    lss = _SharedEdgeLss(
        edges, constraint_pairs, min_spacing_m, constraint_weight, n_nodes, n_batch
    )
    pinned = np.flatnonzero(~np.asarray(free_mask, dtype=bool))
    current, grad = lss.value_and_grad(pts_t)
    alpha = np.full(n_batch, float(step_size))
    velocity = np.zeros_like(pts_t)
    stall = np.zeros(n_batch, dtype=np.int64)
    active = np.ones(n_batch, dtype=bool)
    converged = np.zeros(n_batch, dtype=bool)
    epochs_run = 0

    for _ in range(max_epochs):
        epochs_run += 1
        grad[pinned] = 0.0
        velocity_new = momentum * velocity - alpha[None, :, None] * grad
        candidate = pts_t + velocity_new
        value, candidate_grad = lss.value_and_grad(candidate)
        improvement = (current - value) / np.maximum(current, 1e-12)
        improved = active & (value < current)
        rejected = active & ~improved

        accepted = improved[None, :, None]
        np.copyto(pts_t, candidate, where=accepted)
        np.copyto(grad, candidate_grad, where=accepted)
        np.copyto(current, value, where=improved)
        # Overshoot kills the momentum (scalar rule); frozen problems'
        # velocities are junk but can never touch pts_t again.
        np.copyto(velocity_new, 0.0, where=rejected[None, :, None])
        velocity = velocity_new
        alpha *= np.where(improved, 1.05, np.where(rejected, 0.5, 1.0))
        stall += rejected | (improved & (improvement < tolerance))
        np.copyto(stall, 0, where=improved & (improvement >= tolerance))

        if traces is not None:
            for b in np.nonzero(active)[0]:
                traces[b].append(float(current[b]))

        underflow = rejected & (alpha < 1e-14)
        exhausted = active & (stall >= patience) & ~underflow
        newly_done = underflow | exhausted
        converged |= newly_done
        active &= ~newly_done
        if not active.any():
            break
    _count_kernel("lss", n_batch, epochs_run)
    return pts_t.transpose(1, 0, 2), current, converged


# ---------------------------------------------------------------------------
# Padded heterogeneous LSS (Section 4.3's local maps)
# ---------------------------------------------------------------------------


def _require_constraint_mask(constraint_pairs, constraint_valid) -> None:
    """Padded constraint stacks are meaningless without their mask.

    A padded ``(0, 0)`` constraint pair has distance zero — a maximal
    "violation" — so silently treating an omitted mask as all-valid (or
    worse, as all-invalid) would corrupt the objective.  Force callers
    to be explicit.
    """
    if constraint_pairs is not None and constraint_valid is None:
        raise ValidationError(
            "constraint_valid is required when constraint_pairs are given "
            "(padded slots must be masked explicitly)"
        )


def _flat_endpoints(
    index_pairs: np.ndarray, n_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten ``(B, E, 2)`` endpoint pairs into ``(B*N)``-space indices.

    Gathering through one flat index on the ``(B*N, 2)`` view of the
    configuration stack is measurably cheaper per epoch than a
    broadcasted two-axis fancy index, and the same flat indices drive
    the bincount scatter.
    """
    base = np.arange(index_pairs.shape[0], dtype=np.int64)[:, None] * n_nodes
    return base + index_pairs[..., 0], base + index_pairs[..., 1]


def _coordinate_bins(flat_i: np.ndarray, flat_j: np.ndarray) -> np.ndarray:
    """Bincount indices for ``[+terms, -terms]`` rows at ``i`` then ``j``.

    One bin per ``(flat row, coordinate)``, so a single ``np.bincount``
    accumulates both coordinates, each bin in input order.
    """
    rows = np.concatenate([flat_i.ravel(), flat_j.ravel()])
    return (2 * rows[:, None] + np.arange(2)).ravel()


def _scatter_rows(bins: np.ndarray, contrib: np.ndarray, n_rows: int) -> np.ndarray:
    """``(n_rows, 2)`` sums of ``[+contrib, -contrib]`` rows over *bins*."""
    flat = contrib.reshape(-1, 2)
    signed = np.concatenate([flat, -flat]).ravel()
    return np.bincount(bins, weights=signed, minlength=2 * n_rows).reshape(n_rows, 2)


class _PaddedLss:
    """Fused LSS objective and gradient for a padded heterogeneous stack.

    Works on the flat ``(B*N, 2)`` view of a ``(B, N, 2)`` stack.  The
    flat endpoint indices, ``2 w`` and the scatter bins depend only on
    the edge and constraint stacks, so they are built once per call and
    again only when :meth:`compact` drops finished problems.

    Edges and constraints are gathered together and share one ``hypot``
    pass.  The gradient scatters the edge terms with one bincount and
    the constraint terms with another, then adds the two, which is the
    order of the per-coordinate edges-then-constraints scatter.
    """

    def __init__(
        self,
        pairs: np.ndarray,
        dists: np.ndarray,
        weights: np.ndarray,
        constraint_pairs: Optional[np.ndarray],
        constraint_valid: Optional[np.ndarray],
        min_spacing_m: Optional[float],
        constraint_weight: float,
        n_nodes: int,
    ) -> None:
        self.pairs = pairs = np.asarray(pairs)
        self.dists = np.asarray(dists, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.weights2 = 2.0 * self.weights
        self.n_nodes = n_nodes
        self.n_rows = pairs.shape[0] * n_nodes
        self.n_edges = pairs.shape[1]
        self.min_spacing_m = min_spacing_m
        self.constraint_weight = constraint_weight
        fi, fj = _flat_endpoints(pairs, n_nodes)
        self.edge_bins = _coordinate_bins(fi, fj)
        self.constrained = _has_constraints(constraint_pairs, min_spacing_m)
        if self.constrained:
            self.constraint_pairs = np.asarray(constraint_pairs)
            self.constraint_valid = np.asarray(constraint_valid)
            cfi, cfj = _flat_endpoints(self.constraint_pairs, n_nodes)
            self.constraint_bins = _coordinate_bins(cfi, cfj)
            fi = np.concatenate([fi, cfi], axis=1)
            fj = np.concatenate([fj, cfj], axis=1)
        # Gather order: every head row, then every tail row.
        self.ends = np.stack([fi, fj])

    def compact(self, keep: np.ndarray) -> "_PaddedLss":
        """The same body restricted to the problems where *keep* is set."""
        return _PaddedLss(
            self.pairs[keep],
            self.dists[keep],
            self.weights[keep],
            self.constraint_pairs[keep] if self.constrained else None,
            self.constraint_valid[keep] if self.constrained else None,
            self.min_spacing_m,
            self.constraint_weight,
            self.n_nodes,
        )

    def value_and_grad(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Objective ``(B,)`` and gradient ``(B, N, 2)`` at the stack *pts*."""
        n_edges = self.n_edges
        flat_pts = pts.reshape(-1, 2)
        ends = np.take(flat_pts, self.ends, axis=0)
        diff = ends[0] - ends[1]
        comp = np.hypot(diff[..., 0], diff[..., 1])
        resid = comp[:, :n_edges] - self.dists
        value = (self.weights * resid**2).sum(axis=1)
        safe = np.maximum(comp, 1e-12)
        coeff = self.weights2 * resid / safe[:, :n_edges]
        grad = _scatter_rows(
            self.edge_bins, coeff[..., None] * diff[:, :n_edges], self.n_rows
        )
        if self.constrained:
            d_min = self.min_spacing_m
            ccomp = comp[:, n_edges:]
            violation = np.minimum(ccomp, d_min) - d_min
            # Padded constraint slots reference node 0 twice (distance 0 =
            # maximal "violation"), so they MUST be masked out explicitly.
            violation = np.where(self.constraint_valid, violation, 0.0)
            value = value + self.constraint_weight * (violation**2).sum(axis=1)
            vcomp = safe[:, n_edges:]
            vcoeff = 2.0 * self.constraint_weight * (vcomp - d_min) / vcomp
            # Only violated real pairs exert force; padded slots are masked.
            vcoeff = np.where((ccomp < d_min) & self.constraint_valid, vcoeff, 0.0)
            grad = grad + _scatter_rows(
                self.constraint_bins, vcoeff[..., None] * diff[:, n_edges:], self.n_rows
            )
        return value, grad.reshape(pts.shape)


def _padded_value_and_grad(
    configs,
    pairs,
    dists,
    weights,
    constraint_pairs,
    constraint_valid,
    min_spacing_m: Optional[float],
    constraint_weight: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused padded body for the public error and gradient kernels."""
    pts = np.ascontiguousarray(configs, dtype=float)
    lss = _PaddedLss(
        pairs, dists, weights, constraint_pairs, constraint_valid,
        min_spacing_m, constraint_weight, pts.shape[1],
    )
    return lss.value_and_grad(pts)


def batch_lss_error_padded(
    configs: np.ndarray,
    pairs: np.ndarray,
    dists: np.ndarray,
    weights: np.ndarray,
    *,
    constraint_pairs: Optional[np.ndarray] = None,
    constraint_valid: Optional[np.ndarray] = None,
    min_spacing_m: Optional[float] = None,
    constraint_weight: float = 10.0,
    backend=None,
) -> np.ndarray:
    """LSS objective for a batch of *heterogeneous* problems, shape (B,).

    Parameters
    ----------
    configs : ndarray of shape (B, N, 2)
        Stacked configurations; problem ``b`` uses rows ``0..n_b`` and
        the rest is padding (never referenced by real edges).
    pairs : ndarray of int, shape (B, E, 2)
        Per-problem edge endpoints in local indices; padded rows may
        point anywhere valid (conventionally ``(0, 0)``).
    dists, weights : ndarray of shape (B, E)
        Measured distances and weights; padded slots carry zero weight
        (and zero distance), so they contribute exactly ``0.0``.
    constraint_pairs : ndarray of int, shape (B, C, 2), optional
        Per-problem soft-constraint pairs (unmeasured pairs closer than
        ``min_spacing_m`` are penalized, Section 4.2's folding fix).
    constraint_valid : ndarray of bool, shape (B, C), optional
        Mask of real constraint slots; required when constraints are
        padded, because a padded ``(0, 0)`` pair has distance zero and
        would otherwise register as a maximal violation.

    Per problem this is the same reduction as
    :func:`repro.core.lss.lss_error` on the unpadded edge list.
    """
    pts = np.asarray(configs, dtype=float)
    _require_constraint_mask(constraint_pairs, constraint_valid)
    be = resolve_backend(backend)
    if not be.is_native_numpy:
        return xp_kernels.lss_error_padded_xp(
            be, pts, np.asarray(pairs), np.asarray(dists, dtype=float),
            np.asarray(weights, dtype=float),
            constraint_pairs, constraint_valid, min_spacing_m, constraint_weight,
        )
    return _padded_value_and_grad(
        pts, pairs, dists, weights, constraint_pairs, constraint_valid,
        min_spacing_m, constraint_weight,
    )[0]


def batch_lss_gradient_padded(
    configs: np.ndarray,
    pairs: np.ndarray,
    dists: np.ndarray,
    weights: np.ndarray,
    *,
    constraint_pairs: Optional[np.ndarray] = None,
    constraint_valid: Optional[np.ndarray] = None,
    min_spacing_m: Optional[float] = None,
    constraint_weight: float = 10.0,
    backend=None,
) -> np.ndarray:
    """Gradient of the heterogeneous LSS objective, shape (B, N, 2).

    See :func:`batch_lss_error_padded` for the layout.  Padded edge
    slots carry zero weight, so rows beyond each problem's real node
    count receive an exact zero gradient and never move.
    """
    pts = np.asarray(configs, dtype=float)
    _require_constraint_mask(constraint_pairs, constraint_valid)
    be = resolve_backend(backend)
    if not be.is_native_numpy:
        return xp_kernels.lss_gradient_padded_xp(
            be, pts, np.asarray(pairs), np.asarray(dists, dtype=float),
            np.asarray(weights, dtype=float),
            constraint_pairs, constraint_valid, min_spacing_m, constraint_weight,
        )
    return _padded_value_and_grad(
        pts, pairs, dists, weights, constraint_pairs, constraint_valid,
        min_spacing_m, constraint_weight,
    )[1]


def batch_lss_descend_padded(
    configs: np.ndarray,
    pairs: np.ndarray,
    dists: np.ndarray,
    weights: np.ndarray,
    *,
    constraint_pairs: Optional[np.ndarray] = None,
    constraint_valid: Optional[np.ndarray] = None,
    min_spacing_m: Optional[float] = None,
    constraint_weight: float = 10.0,
    step_size: float = 0.02,
    max_epochs: int = 2000,
    tolerance: float = 1e-7,
    momentum: float = 0.9,
    patience: int = 50,
    backend=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One momentum-descent round over a batch of heterogeneous problems.

    The padded sibling of :func:`batch_lss_descend`: each problem
    follows the identical accept/reject schedule of the scalar round
    (``repro.core.lss._descend_scalar``: x1.05 step on improvement, /2
    with momentum reset on overshoot, early stop after *patience*
    stalled epochs or step underflow) on its own adaptive step size.
    Finished problems freeze while the rest keep descending.

    Per epoch the objective and gradient are evaluated together at the
    candidate (one gather, one ``hypot`` pass) and an accepted
    candidate's gradient is reused by the next epoch, as in
    :func:`batch_lss_descend`.  The edge terms and then the constraint
    terms are scattered by order-preserving bincounts, so the outputs are
    bytewise those of the two-pass kernel.  This family is not merged
    with the shared-edge one because their objective sums run in
    different orders (sequential over the node-major ``axis=0`` there,
    pairwise over the flat ``axis=1`` here): merging would move the last
    bits of one family's results.

    Returns ``(configs (B, N, 2), errors (B,), converged (B,))``.
    Finished problems are compacted out of the working batch (the same
    straggler treatment as :func:`batch_gradient_descent`), so a few
    slow neighborhoods do not drag the whole stack's per-epoch cost.
    """
    _require_constraint_mask(constraint_pairs, constraint_valid)
    be = resolve_backend(backend)
    if not be.is_native_numpy:
        out_pts, out_err, out_conv, epochs = xp_kernels.lss_descend_padded_xp(
            be,
            np.asarray(configs, dtype=float),
            np.asarray(pairs),
            np.asarray(dists, dtype=float),
            np.asarray(weights, dtype=float),
            constraint_pairs=constraint_pairs,
            constraint_valid=constraint_valid,
            min_spacing_m=min_spacing_m,
            constraint_weight=constraint_weight,
            step_size=step_size,
            max_epochs=max_epochs,
            tolerance=tolerance,
            momentum=momentum,
            patience=patience,
        )
        _count_kernel("lss_padded", out_pts.shape[0], epochs, 0)
        return out_pts, out_err, out_conv
    pts = np.array(configs, dtype=float)
    total, n_nodes = pts.shape[:2]
    pts_out = pts.copy()
    err_out = np.empty(total)
    conv_out = np.zeros(total, dtype=bool)
    if total == 0:
        return pts_out, err_out, conv_out

    lss = _PaddedLss(
        pairs, dists, weights, constraint_pairs, constraint_valid,
        min_spacing_m, constraint_weight, n_nodes,
    )
    remaining = np.arange(total)
    current, grad = lss.value_and_grad(pts)
    err_out[:] = current
    alpha = np.full(total, float(step_size))
    velocity = np.zeros_like(pts)
    stall = np.zeros(total, dtype=np.int64)
    epochs_run = 0
    compactions = 0

    for _ in range(max_epochs):
        epochs_run += 1
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

        finished = (rejected & (alpha < 1e-14)) | (stall >= patience)
        if finished.any():
            compactions += 1
            done_idx = remaining[finished]
            pts_out[done_idx] = pts[finished]
            err_out[done_idx] = current[finished]
            conv_out[done_idx] = True
            keep = ~finished
            if not keep.any():
                _count_kernel("lss_padded", total, epochs_run, compactions)
                return pts_out, err_out, conv_out
            remaining = remaining[keep]
            pts = pts[keep]
            grad = grad[keep]
            current = current[keep]
            alpha = alpha[keep]
            velocity = velocity[keep]
            stall = stall[keep]
            lss = lss.compact(keep)

    pts_out[remaining] = pts
    err_out[remaining] = current
    _count_kernel("lss_padded", total, epochs_run, compactions)
    return pts_out, err_out, conv_out


def lss_localize_multistart(
    measurements,
    n_nodes: int,
    *,
    config=None,
    seeds: Sequence,
    initial: Optional[np.ndarray] = None,
    fixed_positions: Optional[Dict[int, Sequence[float]]] = None,
    backend=None,
) -> list:
    """Run independent seeded LSS minimizations in vectorized lockstep.

    Semantically identical to calling :func:`repro.core.lss.lss_localize`
    once per entry of *seeds* (each seed drives its own initialization
    and perturbation-restart stream), but all configurations advance
    through each restart round in one stacked
    :func:`batch_lss_descend` call.  Returns one ``LssResult`` per seed,
    in order.
    """
    from ..core.lss import (
        LssConfig,
        LssResult,
        _constraint_pairs,
        _prepare_edges,
        lss_error,
    )
    from .._validation import as_positions, ensure_rng

    config = config if config is not None else LssConfig()
    if config.backend != "gd":
        raise ValidationError(
            "lss_localize_multistart supports only the 'gd' backend; "
            f"got {config.backend!r}"
        )
    if len(seeds) == 0:
        raise ValidationError("seeds must contain at least one entry")
    rngs = [ensure_rng(seed) for seed in seeds]
    n_batch = len(rngs)
    edges = _prepare_edges(measurements, n_nodes)

    constraint_pairs = None
    if config.min_spacing_m is not None:
        constraint_pairs = _constraint_pairs(n_nodes, edges.pairs)

    span = config.init_span_m
    if span is None:
        span = max(1.0, float(np.median(edges.distances)) * math.sqrt(n_nodes))

    free_mask = np.ones(n_nodes, dtype=bool)
    pins: Dict[int, np.ndarray] = {}
    if fixed_positions:
        for node_id, pos in fixed_positions.items():
            node_id = int(node_id)
            if not 0 <= node_id < n_nodes:
                raise ValidationError(f"fixed node id {node_id} outside [0, {n_nodes})")
            arr = np.asarray(pos, dtype=float)
            if arr.shape != (2,):
                raise ValidationError("fixed positions must be (x, y) pairs")
            pins[node_id] = arr
            free_mask[node_id] = False

    pts = np.empty((n_batch, n_nodes, 2))
    if initial is not None:
        start = as_positions(initial, "initial").copy()
        if start.shape != (n_nodes, 2):
            raise ValidationError(f"initial must have shape ({n_nodes}, 2)")
        pts[:] = start
    else:
        for b, rng in enumerate(rngs):
            pts[b] = rng.uniform(0.0, span, size=(n_nodes, 2))
    for node_id, arr in pins.items():
        pts[:, node_id] = arr

    kwargs = dict(
        constraint_pairs=constraint_pairs,
        min_spacing_m=config.min_spacing_m,
        constraint_weight=config.constraint_weight,
    )
    traces: List[List[float]] = [[] for _ in range(n_batch)]
    boundaries: List[List[int]] = [[] for _ in range(n_batch)]
    best_pts = pts.copy()
    best_error = batch_lss_error(pts, edges, backend=backend, **kwargs)
    converged = np.zeros(n_batch, dtype=bool)
    for round_index in range(config.restarts):
        for b in range(n_batch):
            boundaries[b].append(len(traces[b]))
        if round_index == 0:
            seed_pts = best_pts.copy()
        else:
            seed_pts = np.empty_like(best_pts)
            for b, rng in enumerate(rngs):
                seed_pts[b] = best_pts[b] + rng.normal(
                    0.0, config.perturbation_m, size=(n_nodes, 2)
                )
            for node_id, arr in pins.items():
                seed_pts[:, node_id] = arr
        out_pts, out_error, converged = batch_lss_descend(
            seed_pts,
            edges,
            constraint_pairs,
            min_spacing_m=config.min_spacing_m,
            constraint_weight=config.constraint_weight,
            step_size=config.step_size,
            max_epochs=config.max_epochs,
            tolerance=config.tolerance,
            free_mask=free_mask,
            traces=traces,
            backend=backend,
        )
        better = out_error < best_error
        best_pts = np.where(better[:, None, None], out_pts, best_pts)
        best_error = np.where(better, out_error, best_error)

    results = []
    for b in range(n_batch):
        stress = lss_error(
            best_pts[b],
            edges,
            constraint_pairs=None,
            min_spacing_m=None,
            constraint_weight=0.0,
        )
        results.append(
            LssResult(
                positions=np.asarray(best_pts[b], dtype=float),
                error=float(best_error[b]),
                stress=float(stress),
                error_trace=np.asarray(traces[b], dtype=float),
                round_boundaries=boundaries[b],
                epochs_run=len(traces[b]),
                converged=bool(converged[b]),
            )
        )
    return results
