"""The distributed localization algorithm as a message-passing protocol.

:mod:`repro.core.distributed` implements the *mathematics* of Section
4.3; this module runs the same three steps as an actual protocol over
the discrete-event :class:`~repro.network.simulator.NetworkSimulator`,
so the paper's cost claim can be verified rather than assumed:

    "This algorithm requires two local data exchanges per node and one
    round of flooding."

Protocol phases:

1. **Measurement exchange** — every node broadcasts its measured
   distances to its acoustic neighbors (local exchange #1).  Receivers
   that share an acoustic edge with the sender store the list; each
   node now knows the distances *among* its neighbors, as required for
   local LSS.
2. **Map exchange** — every node computes its local map (LSS over its
   neighborhood) and broadcasts the local coordinates (local exchange
   #2).  Each neighbor can then estimate the rigid transform between
   the two frames from the shared members.
3. **Alignment flood** — the root broadcasts its frame; every node, on
   first receipt from a neighbor it holds a transform for, re-expresses
   the frame in its own coordinates and rebroadcasts (the flood).

The result matches :func:`repro.core.distributed.distributed_localize`
(same math, different plumbing) and additionally reports per-phase
message counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .._validation import as_positions, ensure_rng
from ..errors import InsufficientDataError, ValidationError
from ..network.node import SensorNode
from ..network.radio import RadioModel
from ..network.simulator import NetworkSimulator
from .distributed import DistributedConfig, LocalMap, build_local_maps
from .geometry import apply_transform, compose_transforms
from .measurements import EdgeList, as_graph_edges
from .transforms import estimate_transform_closed_form

__all__ = ["ProtocolResult", "run_distributed_protocol"]


@dataclass
class ProtocolResult:
    """Outcome of the simulated distributed-localization protocol.

    Attributes
    ----------
    positions : ndarray of shape (n, 2)
        Coordinates in the root's frame (nan where the flood or a
        transform never arrived).
    localized : ndarray of bool
        Mask of localized nodes.
    root : int
        Root node id.
    messages_per_phase : dict
        Phase name -> broadcasts sent in that phase.
    broadcasts_per_node : float
        Total broadcasts divided by node count; the paper's claim is
        that this is a small constant (two local exchanges + at most
        one flood relay each).
    """

    positions: np.ndarray
    localized: np.ndarray
    root: int
    messages_per_phase: Dict[str, int]
    broadcasts_per_node: float


def _acoustic_neighbors(edges: EdgeList, n_nodes: int) -> Dict[int, Set[int]]:
    neighbors: Dict[int, Set[int]] = {i: set() for i in range(n_nodes)}
    for (i, j) in edges.pairs:
        neighbors[int(i)].add(int(j))
        neighbors[int(j)].add(int(i))
    return neighbors


def run_distributed_protocol(
    measurements,
    positions,
    root: int,
    *,
    config: Optional[DistributedConfig] = None,
    radio: Optional[RadioModel] = None,
    rng=None,
) -> ProtocolResult:
    """Execute the three-phase protocol over a simulated radio network.

    Parameters
    ----------
    measurements : MeasurementSet or EdgeList
        Acoustic range measurements (defines the *acoustic* neighbor
        graph; local maps are built from it exactly as in the
        computational pipeline).
    positions : array-like of shape (n, 2)
        Ground-truth node positions — used only to decide radio
        reachability in the simulator, never by the algorithm.
    root : int
        Node whose frame becomes global.
    radio : RadioModel, optional
        Radio link model; defaults to a reliable 100 m radio (the
        paper's radios comfortably out-range the acoustics).
    """
    config = config if config is not None else DistributedConfig()
    rng = ensure_rng(rng)
    pts = as_positions(positions, "positions")
    n_nodes = pts.shape[0]
    if not 0 <= root < n_nodes:
        raise ValidationError(f"root must be in [0, {n_nodes})")

    edges = as_graph_edges(measurements, n_nodes)
    neighbors = _acoustic_neighbors(edges, n_nodes)

    radio = radio if radio is not None else RadioModel(delivery_probability=1.0)
    nodes = [SensorNode(i, tuple(pts[i])) for i in range(n_nodes)]
    simulator = NetworkSimulator(nodes, radio=radio, rng=rng)
    messages_per_phase: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Phase 1: measurement exchange.  Each node broadcasts its edge
    # list; acoustic neighbors store it.  (In our formulation the
    # shared measurement set already encodes the result, so the phase
    # exists to account its cost and verify reachability.)
    # ------------------------------------------------------------------
    received_measurements: Dict[int, Set[int]] = {i: set() for i in range(n_nodes)}

    def phase1_handler(sim, node_id, message):
        sender = message.sender
        if sender in neighbors[node_id]:
            received_measurements[node_id].add(sender)

    simulator.register_default_handler(phase1_handler)
    start = simulator.stats.broadcasts
    for node in range(n_nodes):
        simulator.broadcast(node, ("measurements", node))
    simulator.run()
    messages_per_phase["measurement_exchange"] = simulator.stats.broadcasts - start

    # ------------------------------------------------------------------
    # Phase 2: local map computation + map exchange.
    # ------------------------------------------------------------------
    local_maps = build_local_maps(edges, n_nodes, config=config, rng=rng)

    received_maps: Dict[int, Dict[int, Dict[int, Tuple[float, float]]]] = {
        i: {} for i in range(n_nodes)
    }

    def phase2_handler(sim, node_id, message):
        kind, sender, payload = message.payload
        if sender in neighbors[node_id]:
            received_maps[node_id][sender] = payload

    simulator.register_default_handler(phase2_handler)
    start = simulator.stats.broadcasts
    for node, local_map in local_maps.items():
        payload = {k: tuple(v) for k, v in local_map.coordinates.items()}
        simulator.broadcast(node, ("map", node, payload))
    simulator.run()
    messages_per_phase["map_exchange"] = simulator.stats.broadcasts - start

    # Each node estimates transforms from received neighbor maps into
    # its own frame.
    transforms_into: Dict[int, Dict[int, np.ndarray]] = {i: {} for i in range(n_nodes)}
    for node, sender_maps in received_maps.items():
        if node not in local_maps:
            continue
        own = local_maps[node]
        for sender, coords in sender_maps.items():
            shared = sorted(set(own.members) & set(coords))
            if len(shared) < config.min_shared:
                continue
            source = np.asarray([coords[m] for m in shared])
            target = own.coords_for(shared)
            try:
                estimate = estimate_transform_closed_form(source, target)
            except InsufficientDataError:
                continue
            transforms_into[node][sender] = estimate.matrix

    # ------------------------------------------------------------------
    # Phase 3: alignment flood.  Payload: (frame_owner, matrix mapping
    # frame_owner's coordinates into the global frame).  A receiver
    # holding a transform from the sender's frame into its own composes
    # and rebroadcasts its own frame's global transform.
    # ------------------------------------------------------------------
    to_global: Dict[int, np.ndarray] = {root: np.eye(3)}

    def phase3_handler(sim, node_id, message):
        kind, sender, matrix = message.payload
        if node_id in to_global:
            return
        t_sender_to_me = transforms_into[node_id].get(sender)
        if t_sender_to_me is None:
            return
        # Map my-frame coords into the sender's frame, then to global:
        # my->sender is the inverse of sender->me.
        t_me_to_sender = np.linalg.inv(t_sender_to_me)
        to_global[node_id] = compose_transforms(t_me_to_sender, matrix)
        sim.broadcast(node_id, ("frame", node_id, to_global[node_id]))

    simulator.register_default_handler(phase3_handler)
    start = simulator.stats.broadcasts
    simulator.broadcast(root, ("frame", root, to_global[root]))
    simulator.run()
    messages_per_phase["alignment_flood"] = simulator.stats.broadcasts - start

    positions_out = np.full((n_nodes, 2), np.nan)
    for node, matrix in to_global.items():
        if node not in local_maps:
            continue
        own = local_maps[node].coordinates[node].reshape(1, 2)
        positions_out[node] = apply_transform(own, matrix)[0]
    localized = np.all(np.isfinite(positions_out), axis=1)

    total_broadcasts = sum(messages_per_phase.values())
    return ProtocolResult(
        positions=positions_out,
        localized=localized,
        root=root,
        messages_per_phase=messages_per_phase,
        broadcasts_per_node=total_broadcasts / n_nodes,
    )
