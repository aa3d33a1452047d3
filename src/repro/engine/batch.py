"""Batched NumPy solver kernels (see :mod:`repro.engine` for layout).

Every kernel here is the vectorized twin of a scalar reference
implementation, in :mod:`repro.core` or in the test suite:

====================================  =====================================
batched kernel                        scalar reference
====================================  =====================================
:func:`batch_gradient_descent`        ``multilateration._gradient_descent_solve``
:func:`_batch_consistency_keep`       ``multilateration.intersection_consistency_filter``
:func:`solve_multilateration_batch`   ``tests/_oracles.py``: ``solve_batch_scalar``
:func:`batch_lss_error`               ``lss.lss_error``
:func:`batch_lss_gradient`            ``lss.lss_gradient``
:func:`batch_lss_descend`             ``tests/_oracles.py``: ``descend_scalar``
:func:`batch_lss_error_padded`        ``lss.lss_error`` (per problem)
:func:`batch_lss_gradient_padded`     ``lss.lss_gradient`` (per problem)
:func:`batch_lss_descend_padded`      ``descend_scalar`` (per problem)
:func:`_lss_restarts`                 ``tests/_restart_oracle.py``
``localmaps.solve_local_lss_stack``   ``tests/_oracles.py``: ``solve_local_maps_scalar``
====================================  =====================================

All LSS kernels run one fused value-and-gradient body and one
momentum-descent loop on a ``(B, N, 2)`` stack of problems.  The
*padded* kernels (``*_padded``) stack **heterogeneous** problems: each
batch entry has its own node count, edge list, and constraint set,
padded to the batch maxima with zero-weight edge slots and masked
constraint slots, so every padded slot contributes exact zeros to the
objective and gradient.  This is the layout the distributed-LSS
pipeline (paper Section 4.3, Figures 24/25) uses to solve every node's
local-map problem for a refinement round in one descent loop.  The
*shared-edge* kernels (:func:`batch_lss_error` et al.) advance
configurations of **one** problem — multi-seed/multi-restart campaigns
and centralized LSS — and are the special case with no padding: the
one edge list is broadcast over the stack.  Both layouts run the
paper's perturbation restarts through one driver,
:func:`_lss_restarts`: centralized LSS is a shared-edge stack of one,
:func:`lss_localize_multistart` one configuration per seed, and
:func:`repro.engine.localmaps.solve_local_lss_stack` a padded stack.

The LSS body adds every objective and gradient term in the order of
the scalar ``lss_error``/``lss_gradient``, so an unpadded stack is
bytewise the scalar oracle and :func:`batch_lss_descend` is bytewise
``descend_scalar`` per configuration.  Padded stacks keep the
gradient bytes; their objectives agree to reduction tolerance, because
zero-valued padding slots can regroup the pairwise sum.  The body
evaluates only the terms that can be nonzero — real edge slots and a
Verlet candidate list of constraint pairs — and leaves out exact zeros
only, so its results are the bytes of evaluating every slot (see
:class:`_Lss`).  The multilateration kernels follow the same per-problem operations as
their references and agree to floating-point reduction tolerance
(``tests/test_engine_batch.py``, ``tests/test_distributed.py``).

There is one body per kernel, and it is NumPy.  The scalar references
above survive only as test oracles; the golden SHA-256 pins in
``tests/test_kernel_pins.py`` and ``tests/test_engine_batch.py`` freeze
the kernels' output bytes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..errors import ValidationError

__all__ = [
    "batch_gradient_descent",
    "batch_lss_descend",
    "batch_lss_descend_padded",
    "batch_lss_error",
    "batch_lss_error_padded",
    "batch_lss_gradient",
    "batch_lss_gradient_padded",
    "lss_localize_multistart",
    "solve_multilateration_batch",
]


# ---------------------------------------------------------------------------
# Batched multilateration (Section 4.1)
# ---------------------------------------------------------------------------


def _finish_scalar(
    anchors: np.ndarray,
    dists: np.ndarray,
    weights2: np.ndarray,
    sqrt_w: np.ndarray,
    pos: np.ndarray,
    diff: np.ndarray,
    hyp: np.ndarray,
    current: float,
    alpha: float,
    iterations: int,
    tolerance: float,
) -> Tuple[np.ndarray, float, int]:
    """Finish one problem's descent without batch overhead.

    Continues the identical accept/reject trajectory from the batched
    loop's state (*weights2* is the pre-doubled ``2 w``; *diff* and
    *hyp* are ``pos - anchors`` and its unclamped ranges); used once the
    active batch has shrunk to a couple of stragglers, whose remaining
    iterations would otherwise each pay the full batched-op dispatch
    cost.  An accepted candidate's offsets and ranges are the next
    point's; after a rejected step the point has not moved, so its
    gradient (already checked against *tolerance*) is reused.  Returns
    ``(pos, residual, loop passes)``.
    """
    grad = None
    for it in range(iterations):
        if grad is None:
            ranges = np.maximum(hyp, 1e-12)
            coeff = weights2 * (ranges - dists) / ranges
            grad = (coeff[:, None] * diff).sum(axis=0)
            if np.hypot(grad[0], grad[1]) < tolerance:
                return pos, current, it + 1
        candidate = pos - alpha * grad
        cdiff = candidate - anchors
        chyp = np.hypot(cdiff[:, 0], cdiff[:, 1])
        r = sqrt_w * (chyp - dists)
        value = float(np.dot(r, r))
        if value < current:
            pos, diff, hyp = candidate, cdiff, chyp
            current = value
            alpha *= 1.1
            grad = None
        else:
            alpha *= 0.5
            if alpha < 1e-12:
                return pos, current, it + 1
    return pos, current, iterations


@lru_cache(maxsize=None)
def _kernel_counter_names(name: str) -> Tuple[str, ...]:
    """Counter names for one kernel, formatted once per process: the
    disabled-telemetry path must not pay f-string rendering per solve
    (lint rule RPL008)."""
    prefix = f"engine.batch.{name}"
    return (
        f"{prefix}_solves",
        f"{prefix}_problems",
        f"{prefix}_iterations",
        f"{prefix}_compactions",
        f"{prefix}_rebuilds",
        f"{prefix}_terms",
    )


def _count_kernel(
    name: str,
    n_problems: int,
    iterations: int,
    compactions: Optional[int] = None,
    rebuilds: Optional[int] = None,
    terms: Optional[int] = None,
) -> None:
    """One counter bundle per kernel *call* (never per epoch), so the
    disabled-telemetry path stays a handful of no-op calls per solve.
    The LSS kernels add their candidate-list builds (*rebuilds*) and the
    term slots their body evaluated, summed over its evaluations: the
    start point and one candidate per epoch (*terms*)."""
    solves, problems, iters, compact, builds, evaluated = _kernel_counter_names(name)
    telemetry.count(solves, 1)
    telemetry.count(problems, n_problems)
    telemetry.count(iters, iterations)
    if compactions is not None:
        telemetry.count(compact, compactions)
    if rebuilds is not None:
        telemetry.count(builds, rebuilds)
        telemetry.count(evaluated, terms)


def _count_gd(
    n_problems: int,
    iterations: int,
    compactions: int,
    tail_problems: int,
    tail_iterations: int,
) -> None:
    """The multilateration descent's bundle: the batched loop's
    iterations, plus the problems the straggler tail finished and its
    loop passes, summed over them."""
    _count_kernel("gd", n_problems, iterations, compactions)
    telemetry.count("engine.batch.gd_tail_problems", tail_problems)
    telemetry.count("engine.batch.gd_tail_iterations", tail_iterations)


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
    are compacted out of the working batch.  Each problem's offsets
    ``pos - anchors`` and unclamped ranges are kept across iterations:
    an accepted candidate's are exactly the next point's, so each
    iteration computes them once, at the candidate.
    """
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
    diff = pos[:, None, :] - a
    hyp = np.hypot(diff[..., 0], diff[..., 1])
    r = sqrt_w * (hyp - d)
    current = np.einsum("bk,bk->b", r, r)
    alpha = np.full(total, float(step_size))
    iterations_run = 0
    compactions = 0

    for iteration in range(max_iterations):
        iterations_run = iteration + 1
        ranges = np.maximum(hyp, 1e-12)
        coeff = w2 * (ranges - d) / ranges
        grad = (coeff[:, None, :] @ diff)[:, 0, :]
        gnorm = np.hypot(grad[:, 0], grad[:, 1])
        not_converged = gnorm >= tolerance

        candidate = pos - alpha[:, None] * grad
        cdiff = candidate[:, None, :] - a
        chyp = np.hypot(cdiff[..., 0], cdiff[..., 1])
        r = sqrt_w * (chyp - d)
        value = np.einsum("bk,bk->b", r, r)
        improved = not_converged & (value < current)
        np.copyto(pos, candidate, where=improved[:, None])
        np.copyto(current, value, where=improved)
        np.copyto(diff, cdiff, where=improved[:, None, None])
        np.copyto(hyp, chyp, where=improved[:, None])
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
            diff = diff[keep]
            hyp = hyp[keep]
            if remaining.size <= 2:
                # A couple of stragglers left: their remaining
                # iterations cost less on the scalar fast path than
                # under full batched-dispatch overhead.
                iters_left = max_iterations - iteration - 1
                tail_iterations = 0
                for t in range(remaining.size):
                    p, c, passes = _finish_scalar(
                        a[t],
                        d[t],
                        w2[t],
                        sqrt_w[t],
                        pos[t],
                        diff[t],
                        hyp[t],
                        float(current[t]),
                        float(alpha[t]),
                        iters_left,
                        tolerance,
                    )
                    pos_out[remaining[t]] = p
                    res_out[remaining[t]] = c
                    tail_iterations += passes
                _count_gd(
                    total, iterations_run, compactions, remaining.size, tail_iterations
                )
                return pos_out, res_out

    pos_out[remaining] = pos
    res_out[remaining] = current
    _count_gd(total, iterations_run, compactions, 0, 0)
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


#: Cap on elements per (chunk, 2P, 2P) point-distance block of one
#: anchor-count group in the consistency filter (~64 MB of float64 per
#: temporary).
_FILTER_CHUNK_ELEMENTS = 8_000_000


def _count_consistency(n_problems: int, n_groups: int, n_candidates: int) -> None:
    """One counter bundle per consistency-filter call: the problems, the
    anchor-count groups solved, and the point pairs that passed the box
    test (constant names, lint rule RPL008)."""
    telemetry.count("engine.batch.consistency_problems", n_problems)
    telemetry.count("engine.batch.consistency_groups", n_groups)
    telemetry.count("engine.batch.consistency_candidates", n_candidates)


@lru_cache(maxsize=32)
def _slot_pairs(n_slots: int) -> Tuple[np.ndarray, np.ndarray]:
    """``triu_indices(n_slots, k=1)``, built once per slot count."""
    return np.triu_indices(n_slots, k=1)


#: Largest anchor count whose :func:`_later_pair` mask is cached: its
#: ``(2P, 2P)`` block is 506 x 506 (250 KB), and the masks of every
#: cached count together stay under 1.5 MB.
_LATER_PAIR_CACHE_MAX_K = 23


def _later_rows(n_points: int, row0: int, rows: int) -> np.ndarray:
    """Rows ``row0 .. row0 + rows`` of the ``(2P, 2P)`` mask over the
    intersection points of a problem with ``2P = n_points`` points
    (point ``t`` belongs to circle pair ``t // 2``): True where the
    second point's pair comes after the first's.  Each unordered pair of
    points from different circle pairs appears once."""
    owner = np.arange(n_points) // 2
    return owner[row0 : row0 + rows, None] < owner[None, :]


@lru_cache(maxsize=None)
def _cached_later_pair(k: int) -> np.ndarray:
    return _later_rows(k * (k - 1), 0, k * (k - 1))


def _later_pair(k: int) -> np.ndarray:
    """The whole :func:`_later_rows` mask of a *k*-anchor problem: cached
    up to ``_LATER_PAIR_CACHE_MAX_K`` anchors and built per call above,
    so the process does not keep a mask of every large count it has seen
    (the largest whole block, ``k = 53``, is 7.6 MB)."""
    if k <= _LATER_PAIR_CACHE_MAX_K:
        return _cached_later_pair(k)
    return _cached_later_pair.__wrapped__(k)


def _vouch_block(
    x: np.ndarray,
    y: np.ndarray,
    row0: int,
    later: np.ndarray,
    cluster_radius_m: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Close point pairs among rows ``row0 .. row0 + len(later)`` of a
    ``(c, 2P)`` block of intersection points.

    Returns the problem, row and column indices of every pair within
    *cluster_radius_m* (rows offset by *row0*), and how many pairs the
    box test passed.  *later* masks the ``(rows, 2P)`` block to each
    unordered pair of points from different circle pairs once.
    """
    rows = slice(row0, row0 + later.shape[0])
    dx = x[:, rows, None] - x[:, None, :]
    dy = y[:, rows, None] - y[:, None, :]
    np.abs(dx, out=dx)
    np.abs(dy, out=dy)
    np.fmax(dx, dy, out=dx)
    box = dx <= cluster_radius_m
    del dx, dy
    box &= later
    b, p, q = np.nonzero(box)
    p += row0
    close = np.hypot(x[b, p] - x[b, q], y[b, p] - y[b, q]) <= cluster_radius_m
    return b[close], p[close], q[close], b.size


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

    **Exact anchor counts.**  No problem is padded to the batch's
    largest anchor count.  The circle pairs of every problem with
    ``k >= 3`` valid anchors are listed once, flat, with rows ordered by
    ``k`` (a stable sort) and each problem's valid slots taken in slot
    order, so a prefix mask needs no gather; the intersection points of
    those ``k(k-1)/2`` pairs are computed elementwise with the same
    operations as before.  Problems with ``k < 3`` keep their valid set.

    **Vouching.**  Each anchor-count group checks its ``2P = k(k-1)``
    points pairwise in ``(chunk, 2P, 2P)`` blocks, each unordered pair
    of points from different circle pairs once (the test is symmetric:
    ``x_p - x_q`` is exactly ``-(x_q - x_p)``).  Points of a pair that
    does not intersect are NaN, so no validity mask is broadcast.  A box
    test, ``fmax(|dx|, |dy|) <= r``, selects candidates, and the
    reference's exact ``hypot(dx, dy) <= r`` runs on those only.  The
    box cannot change a verdict: a (faithfully rounded) ``hypot`` is
    never below ``|dx|`` or ``|dy|``, and ``fmax`` ignores one NaN
    side, which passes ``hypot(inf, nan) = inf`` through when *r* is
    infinite.  A NaN point has two NaN coordinates, so it never passes.

    **Memory.**  Each group runs in chunks of problems sized so that a
    ``(chunk, 2P, 2P)`` temporary holds at most
    ``_FILTER_CHUNK_ELEMENTS`` elements, so one densely-anchored
    problem cannot balloon the whole round's memory footprint.  Where a
    single problem's ``(2P, 2P)`` block is over the bound (from
    ``k = 54`` anchors at the default), its rows run in ``(rows, 2P)``
    tiles under the same bound instead.  The flat pair arrays hold
    ``sum_b k_b(k_b-1)/2`` entries.
    """
    n_problems, max_k = dists.shape
    counts = valid.sum(axis=1)
    order = np.argsort(counts, kind="stable")
    order = order[counts[order] >= 3]
    ks = counts[order]
    first_i, second_i = _slot_pairs(max_k)
    row, pair = np.nonzero(second_i < ks[:, None])
    prob = order[row]
    si = first_i[pair]
    sj = second_i[pair]
    if not np.array_equal(valid, np.arange(max_k) < counts[:, None]):
        slots = np.argsort(~valid, axis=1, kind="stable")
        si = slots[prob, si]
        sj = slots[prob, sj]

    ca = anchors[prob, si]
    cb = anchors[prob, sj]
    ra = dists[prob, si]
    rb = dists[prob, sj]
    ab = cb - ca
    dd = np.hypot(ab[..., 0], ab[..., 1])
    pair_ok = (
        (dd > 0.0)
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
    # (N, 2, 2): the two intersection points of every pair.
    points = np.stack([mid + offset, mid - offset], axis=1)
    points[~pair_ok] = np.nan
    # (N, 2) each: point coordinates, so a block of m problems with P
    # pairs each reshapes to (m, 2P) without a copy.
    xs, ys = np.moveaxis(points, 2, 0).copy()

    # vouched[t]: a point of circle pair t lies within the radius of a
    # point from another pair.  Rows are sorted by k, so each group's
    # pairs are one contiguous run of the flat arrays, starting at lo.
    vouched = np.zeros(pair.size, dtype=bool)
    n_candidates = 0
    group_ks, group_sizes = np.unique(ks, return_counts=True)
    lo = 0
    for k, m in zip(group_ks.tolist(), group_sizes.tolist()):
        n_pairs = k * (k - 1) // 2
        n_points = 2 * n_pairs
        if n_points * n_points <= _FILTER_CHUNK_ELEMENTS:
            chunk, tiles = _FILTER_CHUNK_ELEMENTS // (n_points * n_points), None
        else:
            # One problem's block alone is over the bound: take the
            # problems one at a time and their point rows in tiles.
            chunk, tiles = 1, max(1, _FILTER_CHUNK_ELEMENTS // n_points)
        whole = _later_pair(k) if tiles is None else None
        for start in range(0, m, chunk):
            c = min(chunk, m - start)
            hi = lo + c * n_pairs
            x = xs[lo:hi].reshape(c, n_points)
            y = ys[lo:hi].reshape(c, n_points)
            if tiles is None:
                blocks = [(0, whole)]
            else:
                blocks = (
                    (r0, _later_rows(n_points, r0, tiles))
                    for r0 in range(0, n_points, tiles)
                )
            for row0, later in blocks:
                b, p, q, n_box = _vouch_block(x, y, row0, later, cluster_radius_m)
                n_candidates += n_box
                base = lo + b * n_pairs
                vouched[base + p // 2] = True
                vouched[base + q // 2] = True
            lo = hi

    consistent = np.zeros_like(valid)
    consistent[prob[vouched], si[vouched]] = True
    consistent[prob[vouched], sj[vouched]] = True
    n_consistent = consistent.sum(axis=1)
    _count_consistency(n_problems, group_ks.size, n_candidates)
    return np.where((n_consistent >= 3)[:, None], consistent, valid)


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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a batch of heterogeneous multilateration problems at once.

    Each problem ``b`` is (anchor_sets[b] of shape (k_b, 2),
    dist_sets[b], weight_sets[b]).  Per problem this applies the same
    pipeline as :func:`repro.core.multilaterate`: intersection
    consistency filter (falling back to the full
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

    # One masked copy per input: problem b fills its first k_b slots.
    sizes = np.fromiter(map(len, anchor_sets), dtype=np.intp, count=n_problems)
    max_k = int(sizes.max())
    valid = np.arange(max_k) < sizes[:, None]
    stacked_anchors = np.zeros((n_problems, max_k, 2))
    stacked_dists = np.zeros((n_problems, max_k))
    stacked_weights = np.zeros((n_problems, max_k))
    stacked_anchors[valid] = np.concatenate(anchor_sets)
    stacked_dists[valid] = np.concatenate(dist_sets)
    stacked_weights[valid] = np.concatenate(weight_sets)

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

    pos, res = batch_gradient_descent(
        sub_anchors,
        sub_dists,
        sub_weights,
        sub_valid,
        initial,
        step_size=step_size,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )
    positions[solvable] = pos
    residuals[solvable] = res
    solved[solvable] = True
    return positions, solved, residuals


# ---------------------------------------------------------------------------
# Batched LSS (Sections 4.2 and 4.3)
# ---------------------------------------------------------------------------
#
# One fused body (:class:`_Lss`) and one descent loop (:func:`_descend`)
# serve every LSS kernel: the shared-edge kernels broadcast their one
# edge list over the stack, the padded kernels pass per-problem stacks.


def _has_constraints(constraint_pairs, min_spacing_m) -> bool:
    """Whether the soft minimum-spacing penalty has any pair to act on
    (no pair is ever closer than a spacing ``<= 0``)."""
    return (
        min_spacing_m is not None
        and min_spacing_m > 0.0
        and constraint_pairs is not None
        and np.asarray(constraint_pairs).size > 0
    )


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


#: Verlet skin, as a fraction of ``d_min``: a candidate list keeps the
#: constraint pairs closer than ``d_min * (1 + _SKIN)``.
_SKIN = 0.5

#: Relative slack under the ``skin / 2`` rebuild displacement.  Every
#: distance here is a correctly rounded difference followed by ``hypot``,
#: so rounding is relative (a few ulps); this margin dwarfs it.
_REBUILD_SLACK = 1e-9

#: The fewest valid constraint pairs a non-empty candidate list must
#: leave out to be used (see :func:`_use_candidates`).
_VERLET_MIN_DROPPED = 400


def _use_candidates(n_valid: int, n_near: int) -> bool:
    """Dense or sparse: whether a build that kept *n_near* of *n_valid*
    constraint pairs should evaluate its candidate list.

    A list that leaves nothing out is never worth checking.  An empty one
    skips the constraint terms outright, which always pays.  Otherwise
    the per-epoch displacement check and the rebuilds must be paid for
    by the pairs left out, and the break-even moves with the rebuild
    rate.  Timed per epoch on the single-problem loop with each path
    forced on the same B=1 stacks: the captured town-lss stacks (about
    250 pairs left out, lists of 9-15) ran 2% faster to 10% slower on
    the list; grids started 6 m off their layout (a build every 9-12
    epochs) ran 27% faster from about 220 left out; grids from a random
    start (a build every 4-7 epochs) broke even only between about 950
    and 1,300.  The town workloads' builds leave out either at most
    about 260 (town-lss, B=1) or, with a non-empty list, 1,300 and more
    (fig21, B=3).  The local-map stacks (B=49) mostly build empty lists,
    and their trial time does not move with this constant.
    """
    dropped = n_valid - n_near
    return dropped > 0 and (n_near == 0 or dropped >= _VERLET_MIN_DROPPED)


def _check_local_pairs(
    pairs: np.ndarray, slots: np.ndarray, n_nodes: int, what: str
) -> None:
    """Raise unless every pair at the flat *slots* of the ``(B, S, 2)``
    stack *pairs* indexes a node of its own problem, ``[0, n_nodes)``.

    The body gathers flat rows ``b * n_nodes + i`` without bounds checks,
    so an index past its problem would silently read the next problem's
    node and a negative one the previous problem's.
    """
    local = pairs.reshape(-1, 2)[slots]
    bad = np.flatnonzero(((local < 0) | (local >= n_nodes)).any(axis=1))
    if bad.size:
        first = bad[0]
        raise ValidationError(
            f"{what} pair {local[first].tolist()} of problem "
            f"{slots[first] // pairs.shape[1]} is outside [0, {n_nodes})"
        )


class _Lss:
    """Fused LSS objective and gradient for a ``(B, N, 2)`` problem stack.

    Problem ``b`` has its own edge list ``pairs[b]`` (``(B, E, 2)``, with
    ``dists`` and ``weights`` of shape ``(B, E)``) and optional
    constraint pairs ``(B, C, 2)``; ``constraint_valid`` masks padded
    constraint slots (``None``: every slot is real).

    The body evaluates only terms that can be nonzero.  Zero-weight edge
    slots and masked constraint slots are left out for good; the valid
    constraint pairs are narrowed to a Verlet candidate list (L. Verlet,
    Phys. Rev. 159, 98, 1967): the pairs closer than ``d_min + skin``
    with ``skin = d_min / 2``.  The list is rebuilt once any node has
    moved ``skin / 2`` (less a rounding slack) since it was built: two
    nodes then close in by less than ``skin``, so a pair left out stays
    at least ``d_min`` apart until the next build.  Dense or sparse is
    chosen at each build from what it finds (:func:`_use_candidates`);
    a dense build keeps every valid pair and stops checking displacements
    until the next compaction.

    Every left-out term is an exact zero: a zero weight makes ``+0.0``
    and ``±0.0`` terms, and a pair at distance ``>= d_min`` has
    violation ``0.0`` and no force.  The gradient is one ``np.bincount``
    over ``[edge i, edge j, constraint i, constraint j]`` with one bin
    per ``(flat row, coordinate)``; ``bincount`` starts every bin at
    ``+0.0`` and adds its weights in input order, so every bin receives
    the nonzero terms of :func:`repro.core.lss.lss_gradient`'s
    sequential ``add.at`` calls in their order, and ``x + ±0.0 == x``
    makes the left-out ones immaterial.  The objective is the per-row
    pairwise ``sum(axis=1)`` of :func:`repro.core.lss.lss_error` over the
    dense ``(B, E)`` and ``(B, C)`` layouts, whose left-out slots hold
    ``+0.0``.

    **Validated once.**  The constructor raises :class:`ValidationError`
    for a read pair (a nonzero-weight edge slot or a valid constraint
    slot) outside its problem's ``[0, N)``.  :meth:`compact` takes a
    subset of validated rows and does not check again.

    **Per epoch.**  Index arrays and the epoch's work buffers are built
    at each selection (construction, :meth:`compact` and each candidate
    list build), together with the views an epoch reads them through.
    An epoch then gathers both endpoints of every term with one
    ``take(..., mode="clip")`` (the indices are in range by
    construction), runs every ufunc in place with ``out=``, and scatters
    the one ``(2T, 2)`` weight buffer, laid out ``[edge i, edge j,
    constraint i, constraint j]``, with one ``bincount``.  The operations
    and their order are those of the allocating body they replaced, so
    the bytes are too.  The returned objective and gradient are fresh
    arrays; no buffer escapes the body.

    ``rebuilds`` and ``terms`` count list builds and the term slots
    evaluated.
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
        self._index(
            pairs, dists, weights, constraint_pairs, constraint_valid,
            min_spacing_m, constraint_weight, n_nodes,
        )
        _check_local_pairs(self.pairs, self._edge_real, n_nodes, "edge")
        if self.constrained:
            _check_local_pairs(self.constraint_pairs, self._valid_slots, n_nodes, "constraint")

    def _index(
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
        """Flat endpoints and slots of the read terms of the stacks."""
        self.pairs = np.asarray(pairs)
        self.dists = np.asarray(dists, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.n_nodes = n_nodes
        self.min_spacing_m = min_spacing_m
        self.constraint_weight = constraint_weight
        self.constrained = _has_constraints(constraint_pairs, min_spacing_m)
        self.constraint_pairs = self.constraint_valid = None
        self.rebuilds = self.terms = 0
        self._ref = None
        n_batch = self.weights.shape[0]
        self.n_bins = 2 * n_batch * n_nodes
        rows = np.arange(n_batch, dtype=np.int64)[:, None, None] * n_nodes

        self._edge_shape = self.weights.shape
        real = self._edge_real = np.flatnonzero(self.weights)
        self._edge_slots = None if real.size == self.weights.size else real
        self._edge_ends = (rows + self.pairs).reshape(-1, 2)[real]
        self._edge_dists = self.dists.ravel()[real]
        self._edge_weights = self.weights.ravel()[real]
        self._edge_weights2 = 2.0 * self._edge_weights

        self._con_ends = np.zeros((0, 2), dtype=np.int64)
        self._con_slots = None
        if self.constrained:
            self.constraint_pairs = np.asarray(constraint_pairs)
            if constraint_valid is None:
                valid = np.ones(self.constraint_pairs.shape[:2], dtype=bool)
            else:
                valid = self.constraint_valid = np.asarray(constraint_valid, dtype=bool)
            self._con_shape = valid.shape
            # Padded slots reference node 0 twice (distance 0 = maximal
            # "violation"), so only the masked-in slots are ever read.
            self._valid_slots = np.flatnonzero(valid)
            self._valid_ends = (rows + self.constraint_pairs).reshape(-1, 2)[
                self._valid_slots
            ]
            self._cutoff = min_spacing_m * (1.0 + _SKIN)
            self._limit = 0.5 * _SKIN * min_spacing_m * (1.0 - _REBUILD_SLACK)
            self._constraint_weight2 = 2.0 * constraint_weight
        # A constrained body builds its candidate list at its first
        # evaluation, where the positions are known.
        self._built = not self.constrained
        if self._built:
            self._select(None)

    def compact(self, keep: np.ndarray) -> "_Lss":
        """The same body restricted to the problems where *keep* is set."""
        body = object.__new__(type(self))
        body._index(
            self.pairs[keep],
            self.dists[keep],
            self.weights[keep],
            self.constraint_pairs[keep] if self.constrained else None,
            None if self.constraint_valid is None else self.constraint_valid[keep],
            self.min_spacing_m,
            self.constraint_weight,
            self.n_nodes,
        )
        body.rebuilds, body.terms = self.rebuilds, self.terms
        return body

    def _select(self, near: Optional[np.ndarray]) -> None:
        """Gather indices, scatter bins and work buffers for the real
        edges plus the valid constraint pairs at *near* (``None``: every
        valid pair)."""
        if self.constrained:
            slots = self._valid_slots
            self._con_ends = self._valid_ends
            if near is not None:
                slots = slots[near]
                self._con_ends = self._con_ends[near]
            dense = slots.size == self._con_shape[0] * self._con_shape[1]
            self._con_slots = None if dense else slots
        edge, con = self._edge_ends, self._con_ends
        self._ends = np.concatenate([edge, con]).T.copy()
        rows = np.concatenate([edge[:, 0], edge[:, 1], con[:, 0], con[:, 1]])
        self._bins = (2 * rows[:, None] + np.arange(2)).ravel()

        self._allocate(edge.shape[0], con.shape[0])

    def _allocate(self, n_edges: int, n_con: int) -> None:
        """The epoch's work buffers for *n_edges* edge and *n_con*
        constraint terms, and the views an epoch reads them through."""
        n_terms = n_edges + n_con
        self._n_con = n_con
        self._gather = np.empty((2, n_terms, 2))
        self._gather_i, self._gather_j = self._gather
        diff = self._diff = np.empty((n_terms, 2))
        self._dx, self._dy = diff[:, 0], diff[:, 1]
        self._edge_diff, self._con_diff = diff[:n_edges], diff[n_edges:]
        comp = self._comp = np.empty(n_terms)
        self._edge_comp, self._con_comp = comp[:n_edges], comp[n_edges:]
        safe = self._safe = np.empty(n_terms)
        self._edge_safe, self._con_safe = safe[:n_edges], safe[n_edges:]
        scatter = np.empty((2 * n_terms, 2))
        self._scatter = scatter.reshape(-1)
        self._edge_i = scatter[:n_edges]
        self._edge_j = scatter[n_edges : 2 * n_edges]
        self._con_i = scatter[2 * n_edges : 2 * n_edges + n_con]
        self._con_j = scatter[2 * n_edges + n_con :]

        self._resid = np.empty(n_edges)
        self._coeff = np.empty(n_edges)
        self._coeff_col = self._coeff[:, None]
        # The objective sums the rows of the dense (B, E) layout, whose
        # left-out slots stay +0.0; with none left out, that layout is
        # the term buffer itself.
        self._edge_term = np.empty(n_edges)
        if self._edge_slots is None:
            self._edge_rows = self._edge_term.reshape(self._edge_shape)
            self._edge_dense = None
        else:
            self._edge_rows = np.zeros(self._edge_shape)
            self._edge_dense = self._edge_rows.reshape(-1)
        if n_con:
            self._violation = np.empty(n_con)
            if self._con_slots is None:
                self._con_rows = self._violation.reshape(self._con_shape)
                self._con_dense = None
            else:
                self._con_rows = np.zeros(self._con_shape)
                self._con_dense = self._con_rows.reshape(-1)
            self._con_coeff = np.empty(n_con)
            self._con_coeff_col = self._con_coeff[:, None]
            self._outside = np.empty(n_con, dtype=bool)

    def _stale(self, pts: np.ndarray) -> bool:
        """Whether the candidate list must be (re)built before *pts*."""
        if self._ref is None:
            return not self._built
        np.subtract(pts, self._ref, out=self._moved)
        np.hypot(self._moved_x, self._moved_y, out=self._moved_norm)
        # ``not <`` so that a NaN displacement rebuilds too.
        return not np.maximum.reduce(self._moved_norm, axis=None) < self._limit

    def _build(self, pts: np.ndarray) -> None:
        """Build the Verlet candidate list at the stack *pts*."""
        self.rebuilds += 1
        self._built = True
        flat = pts.reshape(-1, 2)
        ends = self._valid_ends
        diff = flat[ends[:, 0]] - flat[ends[:, 1]]
        near = np.flatnonzero(~(np.hypot(diff[:, 0], diff[:, 1]) >= self._cutoff))
        if _use_candidates(ends.shape[0], near.size):
            self._ref = pts.copy()
            self._moved = np.empty_like(self._ref)
            self._moved_x, self._moved_y = self._moved[..., 0], self._moved[..., 1]
            self._moved_norm = np.empty(self._ref.shape[:-1])
            self._select(near)
        else:
            self._ref = None
            self._select(None)

    def value_and_grad(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Objective ``(B,)`` and gradient ``(B, N, 2)`` at the stack *pts*."""
        if self._stale(pts):
            self._build(pts)
        pts.reshape(-1, 2).take(self._ends, axis=0, out=self._gather, mode="clip")
        diff, comp, safe = self._diff, self._comp, self._safe
        np.subtract(self._gather_i, self._gather_j, out=diff)
        np.hypot(self._dx, self._dy, out=comp)
        self.terms += comp.size
        resid, term = self._resid, self._edge_term
        np.subtract(self._edge_comp, self._edge_dists, out=resid)
        np.square(resid, out=term)
        np.multiply(self._edge_weights, term, out=term)
        if self._edge_dense is not None:
            self._edge_dense[self._edge_slots] = term
        value = np.add.reduce(self._edge_rows, axis=1)
        np.maximum(comp, 1e-12, out=safe)
        coeff = self._coeff
        np.multiply(self._edge_weights2, resid, out=coeff)
        np.divide(coeff, self._edge_safe, out=coeff)
        np.multiply(self._coeff_col, self._edge_diff, out=self._edge_i)
        np.negative(self._edge_i, out=self._edge_j)
        if self._n_con:
            d_min = self.min_spacing_m
            violation = self._violation
            np.minimum(self._con_comp, d_min, out=violation)
            np.subtract(violation, d_min, out=violation)
            np.square(violation, out=violation)
            if self._con_dense is not None:
                self._con_dense[self._con_slots] = violation
            penalty = np.add.reduce(self._con_rows, axis=1)
            np.multiply(self.constraint_weight, penalty, out=penalty)
            np.add(value, penalty, out=value)
            vcoeff = self._con_coeff
            np.subtract(self._con_safe, d_min, out=vcoeff)
            np.multiply(self._constraint_weight2, vcoeff, out=vcoeff)
            np.divide(vcoeff, self._con_safe, out=vcoeff)
            # Only violated pairs (estimate closer than d_min) exert force.
            outside = self._outside
            np.less(self._con_comp, d_min, out=outside)
            np.logical_not(outside, out=outside)
            np.copyto(vcoeff, 0.0, where=outside)
            np.multiply(self._con_coeff_col, self._con_diff, out=self._con_i)
            np.negative(self._con_i, out=self._con_j)
        grad = np.bincount(self._bins, weights=self._scatter, minlength=self.n_bins)
        return value, grad.reshape(pts.shape)


def _check_configs(configs: np.ndarray) -> None:
    """The body gathers flat ``(x, y)`` rows of a ``(B, N, 2)`` stack."""
    if configs.ndim != 3 or configs.shape[2] != 2:
        raise ValidationError(f"configs must have shape (B, N, 2), got {configs.shape}")


def _shared_edge_body(
    configs: np.ndarray,
    edges,
    constraint_pairs: Optional[np.ndarray],
    min_spacing_m: Optional[float],
    constraint_weight: float,
) -> _Lss:
    """The body for one edge list and constraint set shared by every
    configuration of *configs*: the broadcast special case of a stack."""
    _check_configs(configs)
    n_batch, n_nodes = configs.shape[:2]

    def stack(a):
        return np.broadcast_to(a, (n_batch,) + np.shape(a))

    if constraint_pairs is not None:
        constraint_pairs = stack(constraint_pairs)
    return _Lss(
        stack(edges.pairs),
        stack(edges.distances),
        stack(edges.weights),
        constraint_pairs,
        None,
        min_spacing_m,
        constraint_weight,
        n_nodes,
    )


def _padded_body(
    configs: np.ndarray,
    pairs,
    dists,
    weights,
    constraint_pairs,
    constraint_valid,
    min_spacing_m: Optional[float],
    constraint_weight: float,
) -> _Lss:
    """The body for per-problem (padded) edge and constraint stacks."""
    _require_constraint_mask(constraint_pairs, constraint_valid)
    _check_configs(configs)
    n_batch = configs.shape[0]
    edge, con = np.shape(weights), np.shape(constraint_valid)
    expected = [(pairs, edge + (2,)), (dists, edge)]
    if constraint_pairs is not None:
        expected.append((constraint_pairs, con + (2,)))
    if (
        edge[:1] != (n_batch,)
        or len(edge) != 2
        or (constraint_pairs is not None and (con[:1] != (n_batch,) or len(con) != 2))
        or any(np.shape(stack) != shape for stack, shape in expected)
    ):
        raise ValidationError(
            "padded stacks must be pairs (B, E, 2), dists and weights (B, E), "
            f"constraint_pairs (B, C, 2) and constraint_valid (B, C), with B = {n_batch} "
            "configurations"
        )
    return _Lss(
        pairs,
        dists,
        weights,
        constraint_pairs,
        constraint_valid,
        min_spacing_m,
        constraint_weight,
        configs.shape[1],
    )


class _Descent(NamedTuple):
    """What one :func:`_descend` round returns."""

    configs: np.ndarray
    errors: np.ndarray
    converged: np.ndarray
    epochs_run: int
    compactions: int
    rebuilds: int
    terms: int


def _descend(
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
    """One momentum-descent round over the stack *pts* (may be overwritten).

    Each problem follows the accept/reject schedule of the scalar round
    (``descend_scalar`` in ``tests/_oracles.py``): x1.05 step on
    improvement, /2 with momentum reset on overshoot, early stop after
    *patience* stalled epochs or when the step underflows, each problem
    on its own step size.

    Per epoch the objective and gradient are evaluated together at the
    candidate.  An accepted candidate's gradient is kept for the next
    epoch: it is exactly the gradient that epoch would recompute at the
    new point, and a rejected epoch leaves point and gradient as they
    were.  Gradient rows of the *pinned* node indices are zeroed before
    every step, so those nodes never move.  *traces* (one list per
    problem) get the problem's error appended every epoch it is still
    descending.

    Finished problems are compacted out of the working stack (the same
    straggler treatment as :func:`batch_gradient_descent`), so a few
    slow problems do not drag the whole stack's per-epoch cost.  Once a
    single problem is left to descend (a stack of one from the start,
    or the last straggler), :func:`_descend_one` runs its remaining
    epochs on the same body and rules with scalar step state.

    Returns a :class:`_Descent`: the configurations, errors, converged
    flags, epochs run, compactions, and the body's candidate-list builds
    and evaluated term slots.  An empty stack returns at once.
    """
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
        pts, current, converged, epochs = _descend_one(
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


def _descend_one(
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
    """At most *epochs* epochs of :func:`_descend` on a stack of one.

    The same momentum, accept/reject, step-size, stall, patience and
    pinned-row rules over the same body, with the objective, step size
    and stall count held as Python scalars: no masks, no per-problem
    bookkeeping.  Returns ``(pts, error, converged, epochs run)``.

    The tail takes over *pts*, *grad* and *velocity* and writes into
    them.  It computes ``momentum * velocity - alpha * grad`` in place
    and the candidate into a spare buffer of its own.  An accepted step
    swaps the point and spare buffers, so the returned points are one of
    the two.  They stay untouched once the tail returns, and no body
    keeps them (a candidate-list build keeps a copy).
    """
    spare = np.empty_like(pts)
    step = np.empty_like(pts)
    epoch = 0
    for epoch in range(1, epochs + 1):
        if pinned is not None:
            grad[:, pinned] = 0.0
        np.multiply(momentum, velocity, out=velocity)
        np.multiply(alpha, grad, out=step)
        np.subtract(velocity, step, out=velocity)
        np.add(pts, velocity, out=spare)
        value, candidate_grad = lss.value_and_grad(spare)
        value = float(value[0])
        rejected = not value < current
        if rejected:
            # Overshoot kills the momentum (scalar rule).
            velocity.fill(0.0)
            alpha *= 0.5
            stall += 1
        else:
            improvement = (current - value) / max(current, 1e-12)
            pts, spare = spare, pts
            grad, current = candidate_grad, value
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


def batch_lss_error(
    configs: np.ndarray,
    edges,
    *,
    constraint_pairs: Optional[np.ndarray] = None,
    min_spacing_m: Optional[float] = None,
    constraint_weight: float = 10.0,
) -> np.ndarray:
    """LSS objective ``E`` for stacked configurations, shape (B,).

    ``configs`` has shape ``(B, n_nodes, 2)``; per configuration the
    result is bytewise :func:`repro.core.lss.lss_error`.
    """
    pts = np.asarray(configs, dtype=float)
    lss = _shared_edge_body(pts, edges, constraint_pairs, min_spacing_m, constraint_weight)
    return lss.value_and_grad(pts)[0]


def batch_lss_gradient(
    configs: np.ndarray,
    edges,
    *,
    constraint_pairs: Optional[np.ndarray] = None,
    min_spacing_m: Optional[float] = None,
    constraint_weight: float = 10.0,
) -> np.ndarray:
    """Gradient of the LSS objective for stacked configurations.

    Shape ``(B, n_nodes, 2)``; per configuration the result is bytewise
    :func:`repro.core.lss.lss_gradient`.
    """
    pts = np.asarray(configs, dtype=float)
    lss = _shared_edge_body(pts, edges, constraint_pairs, min_spacing_m, constraint_weight)
    return lss.value_and_grad(pts)[1]


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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One momentum-gradient-descent round over stacked configurations.

    Per configuration this is bytewise the scalar oracle
    ``descend_scalar`` (points, error, converged flag and trace): the
    stack shares one edge list, so it runs the padded kernels' body and
    descent loop with no padding at all.  Finished configurations leave
    the working stack while the rest keep descending.

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
    pts = np.array(configs, dtype=float)
    lss = _shared_edge_body(pts, edges, constraint_pairs, min_spacing_m, constraint_weight)
    pinned = np.flatnonzero(~np.asarray(free_mask, dtype=bool))
    run = _descend(
        lss,
        pts,
        step_size=step_size,
        max_epochs=max_epochs,
        tolerance=tolerance,
        momentum=momentum,
        patience=patience,
        pinned=pinned if pinned.size else None,
        traces=traces,
    )
    _count_kernel("lss", pts.shape[0], run.epochs_run, None, run.rebuilds, run.terms)
    return run.configs, run.errors, run.converged


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
) -> np.ndarray:
    """LSS objective for a batch of *heterogeneous* problems, shape (B,).

    Parameters
    ----------
    configs : ndarray of shape (B, N, 2)
        Stacked configurations; problem ``b`` uses rows ``0..n_b`` and
        the rest is padding (never referenced by real edges).
    pairs : ndarray of int, shape (B, E, 2)
        Per-problem edge endpoints in local indices, each in ``[0, N)``
        (:class:`ValidationError` names the first problem that is not);
        zero-weight padded rows are never read (conventionally
        ``(0, 0)``).
    dists, weights : ndarray of shape (B, E)
        Measured distances and weights; padded slots carry zero weight
        (and zero distance), so they contribute exactly ``0.0``.
    constraint_pairs : ndarray of int, shape (B, C, 2), optional
        Per-problem soft-constraint pairs (unmeasured pairs closer than
        ``min_spacing_m`` are penalized, Section 4.2's folding fix).
    constraint_valid : ndarray of bool, shape (B, C), optional
        Mask of real constraint slots; required when constraints are
        padded, because a padded ``(0, 0)`` pair has distance zero and
        would otherwise register as a maximal violation.  Masked slots
        are never read; valid ones must index ``[0, N)``.

    Per problem this is :func:`repro.core.lss.lss_error` on the unpadded
    edge list, up to reduction order: zero-valued padding slots can
    regroup the pairwise sum.
    """
    pts = np.asarray(configs, dtype=float)
    lss = _padded_body(
        pts, pairs, dists, weights, constraint_pairs, constraint_valid,
        min_spacing_m, constraint_weight,
    )
    return lss.value_and_grad(pts)[0]


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
) -> np.ndarray:
    """Gradient of the heterogeneous LSS objective, shape (B, N, 2).

    See :func:`batch_lss_error_padded` for the layout.  Per problem the
    real rows are bytewise :func:`repro.core.lss.lss_gradient` (padded
    slots add exact zeros), and rows beyond each problem's real node
    count receive an exact zero gradient and never move.
    """
    pts = np.asarray(configs, dtype=float)
    lss = _padded_body(
        pts, pairs, dists, weights, constraint_pairs, constraint_valid,
        min_spacing_m, constraint_weight,
    )
    return lss.value_and_grad(pts)[1]


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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One momentum-descent round over a batch of heterogeneous problems.

    The padded sibling of :func:`batch_lss_descend`, on the same body
    and descent loop: each problem follows the scalar round's
    accept/reject schedule on its own adaptive step size, and finished
    problems are compacted out of the working stack.  See
    :func:`batch_lss_error_padded` for the layout.

    Returns ``(configs (B, N, 2), errors (B,), converged (B,))``.
    """
    pts = np.array(configs, dtype=float)
    lss = _padded_body(
        pts, pairs, dists, weights, constraint_pairs, constraint_valid,
        min_spacing_m, constraint_weight,
    )
    run = _descend(
        lss,
        pts,
        step_size=step_size,
        max_epochs=max_epochs,
        tolerance=tolerance,
        momentum=momentum,
        patience=patience,
    )
    _count_kernel(
        "lss_padded", pts.shape[0], run.epochs_run, run.compactions, run.rebuilds, run.terms
    )
    return run.configs, run.errors, run.converged


# ---------------------------------------------------------------------------
# Perturbation restarts (Section 4.2)
# ---------------------------------------------------------------------------


class _PaddedStack(NamedTuple):
    """The per-problem edge and constraint stacks of padded problems
    (layout: :func:`batch_lss_error_padded`)."""

    pairs: np.ndarray
    dists: np.ndarray
    weights: np.ndarray
    constraint_pairs: Optional[np.ndarray]
    constraint_valid: Optional[np.ndarray]

    def pin(self, pts: np.ndarray) -> np.ndarray:
        """Padded problems pin no node."""
        return pts


def _lss_round(problem, seeds: np.ndarray, config, traces) -> Tuple[np.ndarray, ...]:
    """One restart round: descend the stack *seeds* of *problem*.

    A :class:`_PaddedStack` runs :func:`batch_lss_descend_padded`; a
    shared-edge problem (``repro.core.lss._LssSetup``) runs
    :func:`batch_lss_descend` with its pins and appends to *traces*.
    Returns ``(configs, errors, converged)``.  :func:`_lss_restarts`
    looks this function up at call time, so tests can substitute
    another solver for every round.
    """
    if isinstance(problem, _PaddedStack):
        return batch_lss_descend_padded(
            seeds,
            problem.pairs,
            problem.dists,
            problem.weights,
            constraint_pairs=problem.constraint_pairs,
            constraint_valid=problem.constraint_valid,
            min_spacing_m=config.min_spacing_m,
            constraint_weight=config.constraint_weight,
            step_size=config.step_size,
            max_epochs=config.max_epochs,
            tolerance=config.tolerance,
        )
    return batch_lss_descend(
        seeds,
        problem.edges,
        problem.constraint_pairs,
        min_spacing_m=config.min_spacing_m,
        constraint_weight=config.constraint_weight,
        step_size=config.step_size,
        max_epochs=config.max_epochs,
        tolerance=config.tolerance,
        free_mask=problem.free_mask,
        traces=traces,
    )


def _lss_restarts(
    problem,
    best: np.ndarray,
    best_error: np.ndarray,
    noise: np.ndarray,
    config,
    traces: Optional[List[List[float]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[List[int]]]:
    """The paper's perturbation restarts over the stack *best*.

    "The gradient descent starts each round of minimization with seed
    positions obtained by perturbing the best results so far": round 0
    descends from *best* (errors *best_error*), and every later round
    ``r`` from ``best + noise[r - 1]`` with the pins written back.  Each
    problem keeps the better of its best and its round's result, so the
    stack's problems never interact.  Descents draw nothing: callers
    draw *noise*, shape ``(restarts - 1, B, N, 2)``, before the first
    round, in the order their generators must be consumed.

    Returns ``(best, best_error, converged, boundaries)``: *converged*
    is the last round's flags and *boundaries* each problem's trace
    length at the start of every round (empty lists without *traces*).
    """
    boundaries: List[List[int]] = [[] for _ in range(best.shape[0])]
    converged = np.zeros(best.shape[0], dtype=bool)
    for round_index in range(config.restarts):
        if traces is not None:
            for marks, trace in zip(boundaries, traces):
                marks.append(len(trace))
        if round_index == 0:
            seeds = best.copy()
        else:
            seeds = problem.pin(best + noise[round_index - 1])
        out, errors, converged = _lss_round(problem, seeds, config, traces)
        better = errors < best_error
        best = np.where(better[:, None, None], out, best)
        best_error = np.where(better, errors, best_error)
    return best, best_error, converged, boundaries


def _lss_stack(measurements, n_nodes: int, config, rngs, initial, fixed_positions) -> list:
    """Shared-edge LSS with one configuration per generator of *rngs*.

    Each generator draws its configuration's random start (unless
    *initial* is given) and then, round by round across the generators,
    its restart perturbations: with distinct generators every
    configuration is the run :func:`repro.core.lss.lss_localize` makes
    with that generator alone, and one generator listed twice is
    consumed in that interleaved order.  Returns one ``LssResult`` per
    generator.
    """
    from ..core.lss import LssConfig, LssResult, _setup, lss_error

    config = config if config is not None else LssConfig()
    setup = _setup(measurements, n_nodes, config, initial, fixed_positions)
    n_batch = len(rngs)
    best = np.empty((n_batch, n_nodes, 2))
    if setup.initial is not None:
        best[:] = setup.initial
    else:
        for b, rng in enumerate(rngs):
            best[b] = rng.uniform(0.0, setup.span, size=(n_nodes, 2))
    setup.pin(best)
    noise = np.empty((config.restarts - 1, n_batch, n_nodes, 2))
    for draws in noise:
        for b, rng in enumerate(rngs):
            draws[b] = rng.normal(0.0, config.perturbation_m, size=(n_nodes, 2))

    constraints = dict(
        constraint_pairs=setup.constraint_pairs,
        min_spacing_m=config.min_spacing_m,
        constraint_weight=config.constraint_weight,
    )
    best_error = np.array([lss_error(pts, setup.edges, **constraints) for pts in best])
    traces: List[List[float]] = [[] for _ in range(n_batch)]
    best, best_error, converged, boundaries = _lss_restarts(
        setup, best, best_error, noise, config, traces
    )
    return [
        LssResult(
            positions=best[b],
            error=float(best_error[b]),
            stress=lss_error(best[b], setup.edges),
            error_trace=np.asarray(traces[b], dtype=float),
            round_boundaries=boundaries[b],
            epochs_run=len(traces[b]),
            converged=bool(converged[b]),
        )
        for b in range(n_batch)
    ]


def lss_localize_multistart(
    measurements,
    n_nodes: int,
    *,
    config=None,
    seeds: Sequence,
    initial: Optional[np.ndarray] = None,
    fixed_positions: Optional[Dict[int, Sequence[float]]] = None,
) -> list:
    """Run independent seeded LSS minimizations in vectorized lockstep.

    Bytewise identical to calling :func:`repro.core.lss.lss_localize`
    once per entry of *seeds* (positions, errors, traces and round
    boundaries; each seed drives its own initialization and
    perturbation-restart stream), but all configurations advance
    through each restart round in one stacked
    :func:`batch_lss_descend` call.  Returns one ``LssResult`` per seed,
    in order.
    """
    from .._validation import ensure_rng

    if len(seeds) == 0:
        raise ValidationError("seeds must contain at least one entry")
    rngs = [ensure_rng(seed) for seed in seeds]
    return _lss_stack(measurements, n_nodes, config, rngs, initial, fixed_positions)
