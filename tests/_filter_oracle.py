"""Padded reference body for the batched consistency filter.

:func:`padded_consistency_keep` is the body
``engine.batch._batch_consistency_keep`` had before it grouped problems
by anchor count: every problem is padded to the batch's largest anchor
count ``K``, and the cluster check builds ``(B, 2P, 2P)`` point-distance
matrices with ``P = K(K-1)/2`` and evaluates ``hypot`` on every point
pair.  Tests compare the production keep masks with it byte for byte.
"""

from __future__ import annotations

import numpy as np

#: Cap on elements per (chunk, 2P, 2P) point-distance matrix.
FILTER_CHUNK_ELEMENTS = 8_000_000


def padded_consistency_keep(
    anchors: np.ndarray,
    dists: np.ndarray,
    valid: np.ndarray,
    cluster_radius_m: float,
) -> np.ndarray:
    n_problems, max_k = dists.shape
    if max_k < 2:
        return valid.copy()
    n_points = max_k * (max_k - 1)  # 2P point slots per problem
    chunk = max(1, FILTER_CHUNK_ELEMENTS // (n_points * n_points))
    if chunk < n_problems:
        out = np.empty_like(valid)
        for start in range(0, n_problems, chunk):
            stop = start + chunk
            out[start:stop] = padded_consistency_keep(
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
