"""Every localizer takes its edges and known positions through one check.

The edge check is ``core.measurements.as_graph_edges`` (node ids in
range, no self-loop, each undirected pair at most once); the anchor and
pin check is ``_validation.check_node_positions`` (ids in range, finite
``(x, y)``).  A pair listed twice used to be read differently by each
localizer: ``localize_network`` counted and used both entries and
``lss_localize`` summed both terms, where the APS baselines raised.
"""

import numpy as np
import pytest

from repro.core import (
    build_local_maps,
    distributed_localize,
    dv_distance_localize,
    dv_hop_localize,
    localize_network,
    lss_localize,
    lss_localize_robust,
)
from repro.core.mds import mds_map
from repro.core.measurements import EdgeList
from repro.core.protocol import run_distributed_protocol
from repro.engine import lss_localize_multistart
from repro.errors import ValidationError

#: Three anchors and node 3, every pair measured once.
POSITIONS = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [8.0, 7.0]])
ANCHORS = {a: POSITIONS[a] for a in range(3)}
N_NODES = len(POSITIONS)
PAIRS = [(0, 3), (1, 3), (2, 3), (0, 1), (0, 2), (1, 2)]

LOCALIZERS = {
    "localize_network": lambda edges: localize_network(edges, ANCHORS, N_NODES),
    "lss_localize": lambda edges: lss_localize(edges, N_NODES, rng=0),
    "lss_localize_multistart": lambda edges: lss_localize_multistart(
        edges, N_NODES, seeds=[0, 1]
    ),
    "lss_localize_robust": lambda edges: lss_localize_robust(edges, N_NODES, rng=0),
    "build_local_maps": lambda edges: build_local_maps(edges, N_NODES, rng=0),
    "distributed_localize": lambda edges: distributed_localize(edges, N_NODES, 0, rng=0),
    "dv_hop_localize": lambda edges: dv_hop_localize(edges, ANCHORS, N_NODES),
    "dv_distance_localize": lambda edges: dv_distance_localize(edges, ANCHORS, N_NODES),
    "run_distributed_protocol": lambda edges: run_distributed_protocol(
        edges, POSITIONS, 0, rng=0
    ),
    "mds_map": lambda edges: mds_map(edges, N_NODES),
}


def _edges(pairs, distances=None):
    pairs = np.asarray(pairs, dtype=np.int64)
    if distances is None:
        ends = np.clip(pairs, 0, N_NODES - 1)
        distances = np.hypot(*(POSITIONS[ends[:, 0]] - POSITIONS[ends[:, 1]]).T)
    return EdgeList(
        pairs=pairs, distances=np.asarray(distances, dtype=float), weights=np.ones(len(pairs))
    )


#: (edge list, message) of each rejected input.
BAD_EDGES = {
    "duplicate-same-order": (_edges(PAIRS + [(1, 3)]), "duplicate edge"),
    "duplicate-reversed": (_edges(PAIRS + [(3, 1)]), "duplicate edge"),
    "self-loop": (_edges(PAIRS + [(3, 3)]), "self-loop"),
    "endpoint-out-of-range": (_edges(PAIRS + [(3, N_NODES)]), "edge endpoints outside"),
    # localize_network used to report 4 anchors for node 3 here and put
    # its fix 2.5 m off.
    "anchor-pair-0-3-twice": (
        _edges(
            [(0, 3), (1, 3), (2, 3), (0, 3)],
            [11.40, np.hypot(12.0, 7.0), np.hypot(8.0, 13.0), 16.40],
        ),
        "duplicate edge",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_EDGES))
@pytest.mark.parametrize("localizer", sorted(LOCALIZERS))
def test_localizer_rejects_bad_edges(localizer, case):
    edges, message = BAD_EDGES[case]
    with pytest.raises(ValidationError, match=message):
        LOCALIZERS[localizer](edges)


#: (anchor positions, message) of each rejected anchor set.
BAD_ANCHORS = {
    "nan": ({**ANCHORS, 2: np.array([0.0, np.nan])}, "anchor positions must be finite"),
    "inf": ({**ANCHORS, 2: np.array([np.inf, 0.0])}, "anchor positions must be finite"),
    "-inf": ({**ANCHORS, 2: np.array([0.0, -np.inf])}, "anchor positions must be finite"),
    "id-out-of-range": ({**ANCHORS, N_NODES: np.array([5.0, 5.0])}, "anchor id 4 outside"),
}


@pytest.mark.parametrize("case", sorted(BAD_ANCHORS))
@pytest.mark.parametrize(
    "localize",
    [localize_network, dv_hop_localize, dv_distance_localize],
    ids=lambda localize: localize.__name__,
)
def test_localizer_rejects_bad_anchor(localize, case):
    anchors, message = BAD_ANCHORS[case]
    with pytest.raises(ValidationError, match=message):
        localize(_edges(PAIRS), anchors, N_NODES)
