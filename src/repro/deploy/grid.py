"""Grid deployment generators.

The field experiments (Sections 3.6 and 4.2.2) used a 7x7 *offset grid*
"with 9 m and 10 m grid spacing between the nearest neighbors"
(Figure 5): columns 9 m apart, nodes within a column 9 m apart, odd
columns shifted down by half a step — making the nearest inter-column
neighbor distance sqrt(9^2 + 4.5^2) ~= 10.06 m.  Node coordinates quoted
in the paper ((9, 18), (18, 4.5), (27, 36), ...) confirm this layout.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive, ensure_rng
from ..errors import ValidationError

__all__ = ["offset_grid", "paper_grid", "square_grid"]


def offset_grid(
    columns: int = 7,
    rows: int = 7,
    *,
    column_spacing_m: float = 9.0,
    row_spacing_m: float = 9.0,
    offset_m: float = 4.5,
) -> np.ndarray:
    """Offset (staggered) grid of ``columns x rows`` positions.

    Column ``c`` sits at ``x = c * column_spacing_m``; its nodes at
    ``y = r * row_spacing_m`` shifted by ``offset_m`` on even columns
    (the paper's grid has a node at (0, 4.5), so column 0 carries the
    offset).  Returns positions ordered column-major, shape
    ``(columns * rows, 2)``.
    """
    if columns < 1 or rows < 1:
        raise ValidationError("columns and rows must be >= 1")
    check_positive(column_spacing_m, "column_spacing_m")
    check_positive(row_spacing_m, "row_spacing_m")
    if offset_m < 0:
        raise ValidationError("offset_m must be non-negative")
    positions = []
    for c in range(columns):
        shift = offset_m if c % 2 == 0 else 0.0
        for r in range(rows):
            positions.append((c * column_spacing_m, r * row_spacing_m + shift))
    return np.asarray(positions, dtype=float)


def paper_grid(n_nodes: int = 47, *, rng=None) -> np.ndarray:
    """The paper's deployment: the 7x7 offset grid minus failed nodes.

    The full pattern has 49 slots; the experiments report 46-47 working
    motes (e.g. "the node at (0, 4.5) failed to report its existence" —
    Figure 13).  Dropped slots are chosen deterministically from the
    given *rng* seed; with the default seed the first drop is the
    paper's (0, 4.5) node.
    """
    if not 1 <= n_nodes <= 49:
        raise ValidationError("n_nodes must be in [1, 49]")
    grid = offset_grid()
    n_drop = 49 - n_nodes
    if n_drop == 0:
        return grid
    # The paper names (0, 4.5) as a failed node; drop it first, then
    # random further slots.
    drop = []
    failed_idx = int(np.nonzero((grid[:, 0] == 0.0) & (grid[:, 1] == 4.5))[0][0])
    drop.append(failed_idx)
    if n_drop > 1:
        rng = ensure_rng(rng if rng is not None else 20050600)
        remaining = [i for i in range(49) if i != failed_idx]
        extra = rng.choice(len(remaining), size=n_drop - 1, replace=False)
        drop.extend(remaining[k] for k in extra)
    keep = [i for i in range(49) if i not in set(drop)]
    return grid[keep]


def square_grid(
    columns: int,
    rows: int,
    spacing_m: float = 10.0,
) -> np.ndarray:
    """Plain rectangular grid (baseline topology for scaling studies)."""
    if columns < 1 or rows < 1:
        raise ValidationError("columns and rows must be >= 1")
    check_positive(spacing_m, "spacing_m")
    xs, ys = np.meshgrid(np.arange(columns) * spacing_m, np.arange(rows) * spacing_m)
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
