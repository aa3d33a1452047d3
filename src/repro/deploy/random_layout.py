"""Random and structured-random deployment generators.

The simulation study of Section 4.2.2 "selected 59 plausible node
positions in a map of a few city blocks in a small town".  We have no
map, so :func:`town_layout` synthesizes the equivalent: a small street
grid with nodes scattered along the streets (where one would actually
mount sensors), subject to a minimum separation — producing the same
qualitative topology (anisotropic, elongated clusters, moderate density,
~945 pairs under 22 m for the default parameters).
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import check_non_negative, check_positive, ensure_rng
from ..errors import ValidationError

__all__ = ["uniform_random_layout", "town_layout", "parking_lot_layout"]


#: Cap on the elements of one block's candidate-distance matrices
#: (candidates x (placed + candidates)).
_BLOCK_ELEMENTS = 1 << 20


def _too_close(px, py, cx, cy, min_separation_m: float) -> np.ndarray:
    """``hypot(px[i] - cx[j], py[i] - cy[j]) < min_separation_m`` as an
    ``(i, j)`` mask.  The exact ``hypot`` runs only on pairs passing the
    box test ``|dx|, |dy| < min_separation_m``: a (faithfully rounded)
    ``hypot`` is never below ``|dx|`` or ``|dy|``, so the box cannot
    change a verdict."""
    dx = px[:, None] - cx
    dy = py[:, None] - cy
    box = np.flatnonzero(
        (np.abs(dx) < min_separation_m) & (np.abs(dy) < min_separation_m)
    )
    close = np.zeros(dx.shape, dtype=bool)
    close.reshape(-1)[box] = (
        np.hypot(dx.reshape(-1)[box], dy.reshape(-1)[box]) < min_separation_m
    )
    return close


def uniform_random_layout(
    n_nodes: int,
    *,
    width_m: float = 100.0,
    height_m: float = 100.0,
    min_separation_m: float = 0.0,
    rng=None,
    max_attempts: int = 10_000,
) -> np.ndarray:
    """Uniform random positions with optional minimum separation.

    Rejection-samples candidates uniformly over the field, in draw
    order: a candidate is kept unless it lies closer than
    *min_separation_m* to a node already placed.  With a positive
    separation it raises once more than *max_attempts* candidates have
    been drawn, kept or rejected, without placing *n_nodes* (density
    too high).  At separation 0 nothing is rejected: the *n_nodes*
    positions are drawn at once, with no attempt bound.

    Candidates are drawn in blocks, and the keep rule runs in draw order
    over each block's precomputed distance masks.  The generator is then
    rewound and advanced by exactly the candidates consumed, so the
    positions and the generator's end state are those of drawing one
    candidate (two ``rng.uniform`` calls) at a time.
    """
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    check_positive(width_m, "width_m")
    check_positive(height_m, "height_m")
    check_non_negative(min_separation_m, "min_separation_m")
    rng = ensure_rng(rng)
    extent = [width_m, height_m]
    if not min_separation_m > 0:
        return rng.uniform(0, extent, size=(n_nodes, 2))

    budget = math.floor(max_attempts) + 1  # candidates drawn before the raise
    saved = rng.bit_generator.state
    placed = np.empty((0, 2))
    used = 0
    block = 2 * n_nodes
    while used < budget:
        m = min(budget - used, block, max(16, _BLOCK_ELEMENTS // (len(placed) + block)))
        cand = rng.uniform(0, extent, size=(m, 2))
        used += m
        cx = np.ascontiguousarray(cand[:, 0])
        cy = np.ascontiguousarray(cand[:, 1])
        blocked = _too_close(
            placed[:, 0], placed[:, 1], cx, cy, min_separation_m
        ).any(axis=0)
        close = _too_close(cx, cy, cx, cy, min_separation_m)
        kept = []
        for j in range(m):
            if blocked[j]:
                continue
            kept.append(j)
            if len(placed) + len(kept) == n_nodes:
                if j + 1 < m:
                    # Rewind, then consume only the candidates up to this one.
                    rng.bit_generator.state = saved
                    rng.random(2 * (used - m + j + 1))
                return np.concatenate([placed, cand[kept]])
            blocked |= close[j]
        placed = np.concatenate([placed, cand[kept]])
        block *= 2
    raise ValidationError(
        f"could not place {n_nodes} nodes with separation "
        f"{min_separation_m} m in {width_m} x {height_m} m"
    )


def town_layout(
    n_nodes: int = 59,
    *,
    blocks_x: int = 3,
    blocks_y: int = 3,
    block_size_m: float = 24.0,
    street_jitter_m: float = 4.0,
    min_separation_m: float = 6.0,
    rng=None,
) -> np.ndarray:
    """Node positions along the streets of a small block grid.

    Streets run along the edges of a ``blocks_x x blocks_y`` grid of
    square blocks.  Each node is placed at a random point along a random
    street segment, displaced laterally by up to *street_jitter_m*
    (sensors sit on verges and building fronts, not lane centers), and
    must keep *min_separation_m* from already-placed nodes.
    """
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    if blocks_x < 1 or blocks_y < 1:
        raise ValidationError("block counts must be >= 1")
    check_positive(block_size_m, "block_size_m")
    check_non_negative(street_jitter_m, "street_jitter_m")
    check_non_negative(min_separation_m, "min_separation_m")
    rng = ensure_rng(rng)

    # Street segments: horizontal and vertical grid lines.
    segments = []
    width = blocks_x * block_size_m
    height = blocks_y * block_size_m
    for gy in range(blocks_y + 1):
        segments.append(((0.0, gy * block_size_m), (width, gy * block_size_m)))
    for gx in range(blocks_x + 1):
        segments.append(((gx * block_size_m, 0.0), (gx * block_size_m, height)))

    placed = []
    attempts = 0
    while len(placed) < n_nodes:
        if attempts > 20_000:
            raise ValidationError(
                f"could not place {n_nodes} nodes along streets with "
                f"separation {min_separation_m} m; lower the density"
            )
        attempts += 1
        (x0, y0), (x1, y1) = segments[int(rng.integers(len(segments)))]
        t = rng.uniform()
        x = x0 + t * (x1 - x0)
        y = y0 + t * (y1 - y0)
        # Lateral displacement off the street centerline.
        if x0 == x1:  # vertical street: jitter in x
            x += rng.uniform(-street_jitter_m, street_jitter_m)
        else:
            y += rng.uniform(-street_jitter_m, street_jitter_m)
        candidate = np.array([x, y])
        if placed:
            existing = np.asarray(placed)
            gaps = np.hypot(*(existing - candidate).T)
            if np.any(gaps < min_separation_m):
                continue
        placed.append(candidate)
    return np.asarray(placed)


def parking_lot_layout(
    n_nodes: int = 15,
    *,
    width_m: float = 25.0,
    height_m: float = 25.0,
    min_separation_m: float = 4.0,
    rng=None,
) -> np.ndarray:
    """The small-scale experiment's topology: nodes in a 25x25 m lot
    (Section 4.1.3, Figure 12)."""
    return uniform_random_layout(
        n_nodes,
        width_m=width_m,
        height_m=height_m,
        min_separation_m=min_separation_m,
        rng=rng,
    )
