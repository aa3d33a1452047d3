"""Ad-hoc Positioning System (APS) baselines: DV-hop and DV-distance.

Section 2 of the paper surveys Niculescu & Nath's APS family as the
main distributed trilateration alternative and observes that "the
DV-hop and DV-distance techniques work well only for isotropic networks
with uniform node density".  These baselines are implemented here so
the claim — and the comparison against the paper's LSS — can be run
rather than cited:

* **DV-hop** — anchors flood hop counts; every node keeps its minimum
  hop count to each anchor; each anchor computes an average
  distance-per-hop correction from its known distances to the other
  anchors and their hop counts; non-anchors multilaterate from
  ``hops * meters_per_hop``.
* **DV-distance** — the same, but propagating *accumulated measured
  distances* along the shortest measurement path instead of hop counts
  (no per-hop calibration needed; still biased long on bent paths).

Both reduce to shortest-path computations over the measurement graph,
followed by the library's standard multilateration: the paper's
gradient descent, batched through the engine.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .._validation import check_node_positions
from ..errors import InsufficientDataError, ValidationError
from .measurements import EdgeList, _shortest_paths, as_graph_edges, check_edge_distances
from .multilateration import NetworkLocalization

__all__ = ["dv_hop_localize", "dv_distance_localize"]


def _inputs(
    measurements, anchor_positions: Dict[int, Sequence[float]], n_nodes: int
) -> Tuple[EdgeList, Dict[int, np.ndarray]]:
    """The checked edge list and anchor positions of an APS run."""
    edges = as_graph_edges(measurements, n_nodes)
    if len(edges) == 0:
        raise InsufficientDataError("no measurements supplied")
    if len(anchor_positions) < 3:
        raise InsufficientDataError(
            f"APS needs at least three anchors; got {len(anchor_positions)}"
        )
    return edges, check_node_positions(anchor_positions, n_nodes, "anchor")


def _aps_localize(
    distances_to_anchors: np.ndarray,
    anchors: Dict[int, np.ndarray],
    n_nodes: int,
    min_anchors: int,
) -> NetworkLocalization:
    """Common multilateration stage over anchor-distance estimates.

    Every non-anchor with at least *min_anchors* finite anchor distances
    is one problem; all of them are solved in one masked batch through
    :func:`repro.engine.batch.solve_multilateration_batch`.
    """
    from ..engine.batch import solve_multilateration_batch

    if min_anchors < 3:
        raise ValidationError("min_anchors must be >= 3 for planar localization")
    anchor_ids = sorted(anchors)
    anchor_xy = np.asarray([anchors[a] for a in anchor_ids])
    positions = np.full((n_nodes, 2), np.nan)
    is_anchor = np.zeros(n_nodes, dtype=bool)
    anchors_per_node = np.zeros(n_nodes)
    for a in anchor_ids:
        positions[a] = anchors[a]
        is_anchor[a] = True

    prob_nodes = []
    anchor_sets = []
    dist_sets = []
    for node in range(n_nodes):
        if is_anchor[node]:
            continue
        dists = distances_to_anchors[node]
        usable = np.isfinite(dists)
        anchors_per_node[node] = usable.sum()
        if usable.sum() < min_anchors:
            continue
        prob_nodes.append(node)
        anchor_sets.append(anchor_xy[usable])
        dist_sets.append(dists[usable])

    solved_pos, solved, _ = solve_multilateration_batch(
        anchor_sets,
        dist_sets,
        [np.ones(d.shape[0]) for d in dist_sets],
        min_anchors=min_anchors,
        consistency_check=False,
    )
    for node, pos, ok in zip(prob_nodes, solved_pos, solved):
        if ok:
            positions[node] = pos
    localized = np.all(np.isfinite(positions), axis=1)
    return NetworkLocalization(
        positions=positions,
        localized=localized,
        is_anchor=is_anchor,
        anchors_per_node=anchors_per_node,
    )


def dv_hop_localize(
    measurements,
    anchor_positions: Dict[int, Sequence[float]],
    n_nodes: int,
    *,
    min_anchors: int = 3,
) -> NetworkLocalization:
    """DV-hop localization over the measurement connectivity graph.

    Parameters
    ----------
    measurements : MeasurementSet or EdgeList
        Connectivity; measured distances are used only by the anchors'
        own per-hop calibration (hop counts otherwise ignore them).
    anchor_positions : dict
        Node id -> known (x, y); at least three anchors.
    n_nodes : int
        Total node count.
    """
    edges, anchors = _inputs(measurements, anchor_positions, n_nodes)
    anchor_ids = sorted(anchors)

    hops = _shortest_paths(
        edges, n_nodes, unit_lengths=True, sources=anchor_ids
    )  # (n_anchors, n_nodes)

    # Per-anchor meters-per-hop correction from anchor-anchor geometry.
    meters_per_hop = np.full(len(anchor_ids), np.nan)
    for i, a in enumerate(anchor_ids):
        total_m = 0.0
        total_hops = 0.0
        for j, b in enumerate(anchor_ids):
            if a == b or not np.isfinite(hops[i][b]) or hops[i][b] == 0:
                continue
            total_m += float(np.hypot(*(anchors[a] - anchors[b])))
            total_hops += float(hops[i][b])
        if total_hops > 0:
            meters_per_hop[i] = total_m / total_hops
    if not np.any(np.isfinite(meters_per_hop)):
        raise InsufficientDataError(
            "no anchor can reach another anchor; cannot calibrate DV-hop"
        )
    fallback = float(np.nanmean(meters_per_hop))
    meters_per_hop = np.where(np.isfinite(meters_per_hop), meters_per_hop, fallback)

    # In the real protocol a node uses the correction of the nearest
    # anchor (the first it hears from); emulate that.
    distances = np.full((n_nodes, len(anchor_ids)), np.nan)
    for node in range(n_nodes):
        node_hops = hops[:, node]
        finite = np.isfinite(node_hops)
        if not np.any(finite):
            continue
        nearest = int(np.nanargmin(node_hops))
        correction = meters_per_hop[nearest]
        distances[node, finite] = node_hops[finite] * correction
    return _aps_localize(distances, anchors, n_nodes, min_anchors)


def dv_distance_localize(
    measurements,
    anchor_positions: Dict[int, Sequence[float]],
    n_nodes: int,
    *,
    min_anchors: int = 3,
) -> NetworkLocalization:
    """DV-distance localization: propagate summed measured distances.

    Same protocol shape as DV-hop but each hop adds the *measured*
    link distance, so no per-hop calibration is needed.  Multi-hop
    estimates are upper bounds on the true Euclidean distance (paths
    bend), which is exactly the anisotropy failure mode.
    """
    edges, anchors = _inputs(measurements, anchor_positions, n_nodes)
    check_edge_distances(edges.distances)
    anchor_ids = sorted(anchors)
    path_dist = _shortest_paths(edges, n_nodes, sources=anchor_ids)
    distances = np.where(np.isfinite(path_dist.T), path_dist.T, np.nan)
    return _aps_localize(distances, anchors, n_nodes, min_anchors)
