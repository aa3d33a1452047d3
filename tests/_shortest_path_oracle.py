"""Reference bodies for the shortest-path searches of the baselines.

:func:`graph_matrix` and :func:`search` are the CSR-plus-Dijkstra
bodies ``repro.core.aps`` and ``repro.core.mds`` ran inline before both
searched through ``repro.core.measurements._shortest_paths``: one
symmetric CSR matrix of the edge lengths (or of ones, for hop counts)
and one ``scipy.sparse.csgraph.shortest_path`` call.
:func:`complete_distances` is ``mds.complete_distances`` as it was then.
Tests compare the production code with them byte for byte.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.core.measurements import as_graph_edges, check_edge_distances
from repro.errors import GraphDisconnectedError, InsufficientDataError, ValidationError


def graph_matrix(edges, n_nodes: int, unit_weights: bool) -> csr_matrix:
    rows = np.concatenate([edges.pairs[:, 0], edges.pairs[:, 1]])
    cols = np.concatenate([edges.pairs[:, 1], edges.pairs[:, 0]])
    if unit_weights:
        vals = np.ones(rows.shape[0])
    else:
        vals = np.concatenate([edges.distances, edges.distances])
    return csr_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))


def search(edges, n_nodes: int, *, unit_lengths: bool = False, sources=None) -> np.ndarray:
    """The search with the helper's signature, so a test can put it in
    the helper's place."""
    graph = graph_matrix(edges, n_nodes, unit_weights=unit_lengths)
    return shortest_path(graph, method="D", directed=False, indices=sources)


def complete_distances(measurements, n_nodes: int) -> np.ndarray:
    if n_nodes < 2:
        raise ValidationError("n_nodes must be >= 2")
    edges = as_graph_edges(measurements, n_nodes)
    if len(edges) == 0:
        raise InsufficientDataError("no measurements to complete")
    check_edge_distances(edges.distances)
    rows = np.concatenate([edges.pairs[:, 0], edges.pairs[:, 1]])
    cols = np.concatenate([edges.pairs[:, 1], edges.pairs[:, 0]])
    vals = np.concatenate([edges.distances, edges.distances])
    graph = csr_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))
    full = shortest_path(graph, method="D", directed=False)
    if np.any(np.isinf(full)):
        raise GraphDisconnectedError(
            "measurement graph is disconnected; cannot complete the "
            "distance matrix by shortest paths"
        )
    return full
