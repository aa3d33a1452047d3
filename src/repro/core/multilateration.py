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
:mod:`repro.engine.batch`.  :func:`_solve_batch_scalar` is that
function's per-node reference, a test oracle only: tests substitute it
for ``repro.engine.batch.solve_multilateration_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .._validation import as_positions, check_positive, ensure_rng
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


def _solve_batch_scalar(
    anchor_sets: Sequence[np.ndarray],
    dist_sets: Sequence[np.ndarray],
    weight_sets: Sequence[np.ndarray],
    *,
    min_anchors: int = 3,
    consistency_check: bool = True,
    cluster_radius_m: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node reference of ``engine.batch.solve_multilateration_batch``.

    Loops :func:`multilaterate` over the problems and returns the same
    ``(positions, solved, residuals)`` triple, nan where a problem is
    unsolvable.  The descent runs at :func:`multilaterate`'s step size,
    iteration cap and tolerance, which are the engine's defaults and the
    only ones its callers use.  No production code calls this; tests
    substitute it for the engine function to check the batched path.
    """
    n_problems = len(anchor_sets)
    positions = np.full((n_problems, 2), np.nan)
    residuals = np.full(n_problems, np.nan)
    solved = np.zeros(n_problems, dtype=bool)
    for b, (anchors, dists, weights) in enumerate(zip(anchor_sets, dist_sets, weight_sets)):
        try:
            result = multilaterate(
                anchors,
                dists,
                weights=weights,
                consistency_check=consistency_check,
                cluster_radius_m=cluster_radius_m,
                min_anchors=min_anchors,
            )
        except InsufficientDataError:
            continue
        positions[b] = result.position
        residuals[b] = result.residual
        solved[b] = True
    return positions, solved, residuals


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

    # Distance lookup per node: node -> list of (partner, distance, weight)
    adjacency: Dict[int, List[Tuple[int, float, float]]] = {i: [] for i in range(n_nodes)}
    for (i, j), d, w in zip(edges.pairs, edges.distances, edges.weights):
        adjacency[int(i)].append((int(j), float(d), float(w)))
        adjacency[int(j)].append((int(i), float(d), float(w)))

    positions = np.full((n_nodes, 2), np.nan)
    known: Dict[int, np.ndarray] = {}
    is_anchor = np.zeros(n_nodes, dtype=bool)
    for node_id, pos in anchor_positions.items():
        arr = np.asarray(pos, dtype=float)
        if arr.shape != (2,):
            raise ValidationError("anchor positions must be (x, y) pairs")
        known[int(node_id)] = arr
        positions[int(node_id)] = arr
        is_anchor[int(node_id)] = True

    anchors_per_node = np.zeros(n_nodes)
    rounds = max_progressive_rounds if progressive else 1
    for _ in range(rounds):
        progress = False
        prob_nodes: List[int] = []
        anchor_sets: List[np.ndarray] = []
        dist_sets: List[np.ndarray] = []
        weight_sets: List[np.ndarray] = []
        for node in range(n_nodes):
            if node in known:
                continue
            anchor_links = [
                (partner, d, w)
                for partner, d, w in adjacency[node]
                if partner in known
            ]
            anchors_per_node[node] = len(anchor_links)
            if len(anchor_links) < min_anchors:
                continue
            prob_nodes.append(node)
            anchor_sets.append(np.asarray([known[p] for p, _, _ in anchor_links]))
            dist_sets.append(np.asarray([d for _, d, _ in anchor_links]))
            weight_sets.append(np.asarray([w for _, _, w in anchor_links]))
        if prob_nodes:
            solved_pos, solved, _ = solve_multilateration_batch(
                anchor_sets,
                dist_sets,
                weight_sets,
                min_anchors=min_anchors,
                consistency_check=consistency_check,
                cluster_radius_m=cluster_radius_m,
            )
            for node, pos, ok in zip(prob_nodes, solved_pos, solved):
                if not ok:
                    continue
                positions[node] = pos
                if progressive:
                    known[node] = pos
                    progress = True
        if not progressive or not progress:
            break
        # Re-count anchors for still-unlocalized nodes next round.

    localized = np.all(np.isfinite(positions), axis=1)
    if progressive:
        # Final per-node anchor counts reflect the end state.
        for node in range(n_nodes):
            if not is_anchor[node]:
                anchors_per_node[node] = sum(
                    1 for partner, _, _ in adjacency[node] if localized[partner]
                )
    return NetworkLocalization(
        positions=positions,
        localized=localized,
        is_anchor=is_anchor,
        anchors_per_node=anchors_per_node,
    )
