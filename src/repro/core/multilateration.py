"""Multilateration localization (Section 4.1).

Estimates a node's position from distance measurements to at least
three non-collinear *anchors* by least-squares error minimization::

    argmin_(x, y)  sum_a  w(c_a) * ( sqrt((x - x_a)^2 + (y - y_a)^2) - d_a )^2

The paper minimizes with gradient descent and observes its
vulnerability: nodes "victims of the gradient descent falling into a
local minimum" (Figure 16).  That gradient descent is the only solver:
reproducing the figure depends on its local minima.  The intersection
consistency check of Section 4.1.2 can pre-filter anchors with
inconsistent range circles.

Network-level drivers localize every non-anchor that has enough anchor
measurements, with an optional *progressive* mode in which localized
nodes are promoted to anchors for the remaining nodes (Section 4.1.1's
proposed modification).  :func:`localize_network` solves all of a
round's nodes in one stacked masked-array descent through
:mod:`repro.engine.batch`, gathering the round's anchor problems from
CSR arrays over the edge list.  That solver's per-node reference, a
:func:`multilaterate` loop, lives in the test suite
(``tests/_oracles.py``), which substitutes it for
``repro.engine.batch.solve_multilateration_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Set, Tuple

import numpy as np

from .._validation import as_positions, check_positive
from ..errors import InsufficientDataError, ValidationError
from .geometry import all_pairs_circle_intersections, is_collinear
from .measurements import as_edge_list

__all__ = [
    "MultilaterationResult",
    "intersection_consistency_filter",
    "multilaterate",
    "NetworkLocalization",
    "localize_network",
]


@dataclass(frozen=True)
class MultilaterationResult:
    """Result of localizing one node.

    Attributes
    ----------
    position : ndarray of shape (2,)
        Estimated coordinates.
    residual : float
        Final value of the weighted least-squares objective.
    anchors_used : ndarray
        Indices (into the caller's anchor arrays) that survived the
        consistency filter and contributed to the fit.
    """

    position: np.ndarray
    residual: float
    anchors_used: np.ndarray


def intersection_consistency_filter(
    anchor_positions,
    distances,
    *,
    cluster_radius_m: float = 1.0,
) -> np.ndarray:
    """Indices of anchors passing the intersection consistency check.

    Section 4.1.2: compute the intersection points of all pairs of range
    circles; anchors whose circles produce *no* intersection point close
    to an intersection point of some other circle pair are dropped —
    they are either erroneous or dangerously collinear with the node.

    Anchors whose circle intersects no other circle at all are dropped
    too.  If fewer than three anchors survive, the original full set is
    returned (the check must not destroy solvability; the paper keeps
    suspicious data "due to the scarcity of available data").
    """
    anchors = as_positions(anchor_positions, "anchor_positions")
    dists = np.asarray(distances, dtype=float)
    if dists.shape != (anchors.shape[0],):
        raise ValidationError("distances must have one entry per anchor")
    check_positive(cluster_radius_m, "cluster_radius_m")
    n = anchors.shape[0]
    if n < 3:
        return np.arange(n)
    points, owners = all_pairs_circle_intersections(anchors, dists)
    if points.shape[0] == 0:
        return np.arange(n)

    consistent: Set[int] = set()
    for idx in range(points.shape[0]):
        p = points[idx]
        pair = set(owners[idx])
        for other in range(points.shape[0]):
            if other == idx:
                continue
            # Only points produced by a *different* circle pair vouch
            # for this one (two points of the same pair are trivially
            # related).
            if set(owners[other]) == pair:
                continue
            if float(np.hypot(*(points[other] - p))) <= cluster_radius_m:
                consistent.update(pair)
                break
    if len(consistent) < 3:
        return np.arange(n)
    return np.asarray(sorted(consistent), dtype=np.int64)


def _objective_terms(position, anchors, dists, weights):
    diff = anchors - position
    ranges = np.hypot(diff[:, 0], diff[:, 1])
    return np.sqrt(weights) * (ranges - dists)


def _gradient_descent_solve(
    anchors: np.ndarray,
    dists: np.ndarray,
    weights: np.ndarray,
    initial: np.ndarray,
    *,
    step_size: float = 0.1,
    max_iterations: int = 2000,
    tolerance: float = 1e-9,
) -> Tuple[np.ndarray, float]:
    """The paper's gradient-descent minimizer with adaptive step size.

    Deliberately susceptible to the same local minima the paper reports;
    reproducing Figure 16 depends on *not* using a smarter solver.
    """
    position = initial.astype(float).copy()

    def objective(pos):
        r = _objective_terms(pos, anchors, dists, weights)
        return float(np.dot(r, r))

    current = objective(position)
    alpha = step_size
    for _ in range(max_iterations):
        diff = position - anchors
        ranges = np.hypot(diff[:, 0], diff[:, 1])
        ranges = np.maximum(ranges, 1e-12)
        coeff = 2.0 * weights * (ranges - dists) / ranges
        grad = (coeff[:, None] * diff).sum(axis=0)
        gnorm = float(np.hypot(grad[0], grad[1]))
        if gnorm < tolerance:
            break
        candidate = position - alpha * grad
        value = objective(candidate)
        if value < current:
            position = candidate
            current = value
            alpha *= 1.1
        else:
            alpha *= 0.5
            if alpha < 1e-12:
                break
    return position, current


def multilaterate(
    anchor_positions,
    distances,
    *,
    weights=None,
    initial=None,
    consistency_check: bool = True,
    cluster_radius_m: float = 1.0,
    min_anchors: int = 3,
) -> MultilaterationResult:
    """Localize one node from anchor distances.

    Parameters
    ----------
    anchor_positions : array-like of shape (k, 2)
        Known anchor coordinates.
    distances : array-like of shape (k,)
        Measured distances to each anchor.
    weights : array-like of shape (k,), optional
        Confidence weights ``w(c_a)``; the paper's experiments used a
        constant 1 (the default).
    initial : array-like of shape (2,), optional
        Starting point for the minimization; defaults to the weighted
        anchor centroid.
    consistency_check : bool
        Apply the intersection consistency filter first.
    min_anchors : int
        Minimum surviving anchors required (3 for an unambiguous planar
        fix).

    Raises
    ------
    InsufficientDataError
        Fewer than *min_anchors* anchors, or all anchors collinear.
    """
    anchors = as_positions(anchor_positions, "anchor_positions")
    dists = np.asarray(distances, dtype=float)
    if dists.shape != (anchors.shape[0],):
        raise ValidationError("distances must have one entry per anchor")
    if np.any(dists < 0):
        raise ValidationError("distances must be non-negative")
    if weights is None:
        w = np.ones(anchors.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (anchors.shape[0],) or np.any(w < 0):
            raise ValidationError("weights must be non-negative, one per anchor")
    if min_anchors < 3:
        raise ValidationError("min_anchors must be >= 3 for planar localization")
    if anchors.shape[0] < min_anchors:
        raise InsufficientDataError(
            f"need at least {min_anchors} anchors; got {anchors.shape[0]}"
        )

    used = np.arange(anchors.shape[0])
    if consistency_check:
        used = intersection_consistency_filter(
            anchors, dists, cluster_radius_m=cluster_radius_m
        )
        if used.shape[0] < min_anchors:
            used = np.arange(anchors.shape[0])
    sel_anchors = anchors[used]
    sel_dists = dists[used]
    sel_weights = w[used]

    if is_collinear(sel_anchors):
        raise InsufficientDataError(
            "anchors are collinear; planar position is ambiguous"
        )

    if initial is None:
        total = sel_weights.sum()
        start = (
            (sel_weights[:, None] * sel_anchors).sum(axis=0) / total
            if total > 0
            else sel_anchors.mean(axis=0)
        )
    else:
        start = np.asarray(initial, dtype=float)
        if start.shape != (2,):
            raise ValidationError("initial must have shape (2,)")

    position, residual = _gradient_descent_solve(
        sel_anchors, sel_dists, sel_weights, start
    )
    return MultilaterationResult(
        position=position,
        residual=residual,
        anchors_used=used,
    )


@dataclass
class NetworkLocalization:
    """Result of network-wide localization.

    Attributes
    ----------
    positions : ndarray of shape (n, 2)
        Estimated coordinates; rows of unlocalized nodes are nan.
        Anchor rows carry the anchor's known position.
    localized : ndarray of bool, shape (n,)
        True for nodes with an estimate (anchors are True).
    is_anchor : ndarray of bool, shape (n,)
        The anchor mask the run started from.
    anchors_per_node : ndarray of shape (n,)
        Number of anchors each non-anchor had distance measurements to
        at the time it was (or failed to be) localized.  The paper
        reports this average (1.47 for Figure 14, 3.84 for Figure 16).
    """

    positions: np.ndarray
    localized: np.ndarray
    is_anchor: np.ndarray
    anchors_per_node: np.ndarray

    @property
    def average_anchors_per_node(self) -> float:
        """Mean anchor count over non-anchor nodes."""
        non_anchor = ~self.is_anchor
        if not np.any(non_anchor):
            return 0.0
        return float(self.anchors_per_node[non_anchor].mean())


def localize_network(
    measurements,
    anchor_positions: Dict[int, Sequence[float]],
    n_nodes: int,
    *,
    progressive: bool = False,
    consistency_check: bool = True,
    cluster_radius_m: float = 1.0,
    min_anchors: int = 3,
    max_progressive_rounds: int = 10,
) -> NetworkLocalization:
    """Localize all non-anchor nodes from a measurement set.

    Each refinement round gathers every pending node's anchor problem
    and solves the round in one stacked masked-array descent through
    :func:`repro.engine.batch.solve_multilateration_batch`.

    Parameters
    ----------
    measurements : MeasurementSet or EdgeList
        Range measurements (reduced to one estimate per undirected pair
        internally).
    anchor_positions : dict
        Node id -> known (x, y) for anchors.
    n_nodes : int
        Total node count; ids run 0..n_nodes-1.
    progressive : bool
        Promote localized nodes to anchors and iterate (Section 4.1.1's
        progressive localization).  A round's solutions are promoted
        together (Jacobi sweeps), so a promotion chain needs one round
        per link within the *max_progressive_rounds* budget.  The
        paper's reported experiments keep this off.
    """
    from ..engine.batch import solve_multilateration_batch

    edges = as_edge_list(measurements)
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    if min_anchors < 3:
        raise ValidationError("min_anchors must be >= 3 for planar localization")
    for node_id in anchor_positions:
        if not 0 <= int(node_id) < n_nodes:
            raise ValidationError(f"anchor id {node_id} outside [0, {n_nodes})")

    # Each node's partners, distances and weights as CSR arrays, in edge
    # order: a stable sort of the interleaved endpoints (i0, j0, i1, j1,
    # ...) keeps every node's edges in list order, which fixes each
    # problem's anchor order and so its sums.
    ends = np.asarray(edges.pairs, dtype=np.int64).reshape(-1)
    if ends.size and (ends.min() < 0 or ends.max() >= n_nodes):
        raise ValidationError(f"edge endpoints outside [0, {n_nodes})")
    order = np.argsort(ends, kind="stable")
    node_of = ends[order]
    partner = ends[order ^ 1]
    slot_dists = np.asarray(edges.distances, dtype=float)[order >> 1]
    slot_weights = np.asarray(edges.weights, dtype=float)[order >> 1]

    positions = np.full((n_nodes, 2), np.nan)
    is_anchor = np.zeros(n_nodes, dtype=bool)
    for node_id, pos in anchor_positions.items():
        arr = np.asarray(pos, dtype=float)
        if arr.shape != (2,):
            raise ValidationError("anchor positions must be (x, y) pairs")
        positions[int(node_id)] = arr
        is_anchor[int(node_id)] = True
    # Rows of *known* nodes in *positions* are the anchor coordinates
    # the next round measures against.
    known = is_anchor.copy()

    anchors_per_node = np.zeros(n_nodes)
    rounds = max_progressive_rounds if progressive else 1
    for _ in range(rounds):
        links = known[partner]
        counts = np.bincount(node_of[links], minlength=n_nodes)
        pending = ~known
        anchors_per_node[pending] = counts[pending]
        active = pending & (counts >= min_anchors)
        prob_nodes = np.flatnonzero(active)
        if prob_nodes.size == 0:
            break
        slots = np.flatnonzero(links & active[node_of])
        bounds = np.cumsum(counts[prob_nodes]).tolist()
        spans = list(zip([0] + bounds[:-1], bounds))
        anchor_xy = positions[partner[slots]]
        dists = slot_dists[slots]
        weights = slot_weights[slots]
        solved_pos, solved, _ = solve_multilateration_batch(
            [anchor_xy[lo:hi] for lo, hi in spans],
            [dists[lo:hi] for lo, hi in spans],
            [weights[lo:hi] for lo, hi in spans],
            min_anchors=min_anchors,
            consistency_check=consistency_check,
            cluster_radius_m=cluster_radius_m,
        )
        solved_nodes = prob_nodes[solved]
        positions[solved_nodes] = solved_pos[solved]
        if not progressive or solved_nodes.size == 0:
            break
        known[solved_nodes] = True

    localized = np.all(np.isfinite(positions), axis=1)
    if progressive:
        # Final per-node anchor counts reflect the end state.
        final = np.bincount(node_of[localized[partner]], minlength=n_nodes)
        anchors_per_node[~is_anchor] = final[~is_anchor]
    return NetworkLocalization(
        positions=positions,
        localized=localized,
        is_anchor=is_anchor,
        anchors_per_node=anchors_per_node,
    )
