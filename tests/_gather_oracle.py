"""Per-node-list reference for ``localize_network``'s anchor gathers.

:func:`localize_network` is the body
``core.multilateration.localize_network`` had before it gathered each
round's anchor problems from CSR arrays: a dict of ``(partner,
distance, weight)`` tuple lists per node, re-filtered by list
comprehension every round, with each problem's arrays built by
``np.asarray`` and the progressive run's final anchor counts summed
node by node.  It solves through
``repro.engine.batch.solve_multilateration_batch``, looked up at call
time, so tests compare the production driver with it byte for byte:
the problem sequences each round hands the solver, and every result
field.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

import repro.engine.batch
from repro.core.measurements import as_edge_list
from repro.core.multilateration import NetworkLocalization
from repro.errors import ValidationError


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
            solved_pos, solved, _ = repro.engine.batch.solve_multilateration_batch(
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
