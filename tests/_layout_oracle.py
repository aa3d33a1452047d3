"""Per-candidate reference for the uniform random layout.

:func:`uniform_random_layout` is the body
``deploy.random_layout.uniform_random_layout`` had before it drew its
candidates in blocks: one candidate per loop pass, two scalar
``rng.uniform`` calls each, rejected when it lies closer than
*min_separation_m* to a node already placed, and a
:class:`~repro.errors.ValidationError` once more than *max_attempts*
candidates have been drawn.  Tests compare the production layout with
it byte for byte: positions, the generator's end state and the error.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_non_negative, check_positive, ensure_rng
from repro.errors import ValidationError


def uniform_random_layout(
    n_nodes: int,
    *,
    width_m: float = 100.0,
    height_m: float = 100.0,
    min_separation_m: float = 0.0,
    rng=None,
    max_attempts: int = 10_000,
) -> np.ndarray:
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    check_positive(width_m, "width_m")
    check_positive(height_m, "height_m")
    check_non_negative(min_separation_m, "min_separation_m")
    rng = ensure_rng(rng)
    placed = []
    attempts = 0
    while len(placed) < n_nodes:
        if attempts > max_attempts:
            raise ValidationError(
                f"could not place {n_nodes} nodes with separation "
                f"{min_separation_m} m in {width_m} x {height_m} m"
            )
        candidate = np.array([rng.uniform(0, width_m), rng.uniform(0, height_m)])
        attempts += 1
        if min_separation_m > 0 and placed:
            existing = np.asarray(placed)
            gaps = np.hypot(*(existing - candidate).T)
            if np.any(gaps < min_separation_m):
                continue
        placed.append(candidate)
    return np.asarray(placed)
