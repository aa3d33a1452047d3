"""Classical multidimensional scaling and MDS-MAP baselines.

Related-work comparators for the paper's LSS scheme (Section 2 cites
Shang & Ruml's MDS-based localization [18, 19]):

* :func:`classical_mds` — the textbook procedure: double-center the
  squared distance matrix, eigendecompose, take the top components.
  Requires the *complete* distance matrix — "one problem with this
  centralized approach", and the motivation for LSS.
* :func:`complete_distances` — fills the missing entries with
  shortest-path distances over the measurement graph.
* :func:`mds_map` — the MDS-MAP baseline: shortest-path completion +
  classical MDS, producing relative coordinates from sparse data.
* :func:`mds_map_stack` — :func:`mds_map` for many problems of one
  node count at once, bytewise equal per problem; it seeds the
  distributed pipeline's local maps.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .._validation import as_finite_array
from ..errors import GraphDisconnectedError, InsufficientDataError, ValidationError
from .measurements import EdgeList, as_graph_edges, check_edge_distances, check_graph_edges

__all__ = ["classical_mds", "complete_distances", "mds_map", "mds_map_stack"]


def classical_mds(distance_matrix, n_components: int = 2) -> np.ndarray:
    """Classical (Torgerson) MDS.

    Parameters
    ----------
    distance_matrix : array-like of shape (n, n)
        Complete symmetric distance matrix.
    n_components : int
        Output dimensionality (2 for planar localization).

    Returns
    -------
    ndarray of shape (n, n_components)
        Relative coordinates (centered at the origin; arbitrary
        rotation/reflection).
    """
    d = as_finite_array(distance_matrix, "distance_matrix", ndim=2)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValidationError("distance_matrix must be square")
    if not np.allclose(d, d.T, atol=1e-8):
        raise ValidationError("distance_matrix must be symmetric")
    if np.any(np.diag(d) != 0):
        raise ValidationError("distance_matrix diagonal must be zero")
    if not 1 <= n_components <= n:
        raise ValidationError("n_components must be in [1, n]")
    # Double centering: B = -1/2 J D^2 J
    sq = d**2
    centering = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * centering @ sq @ centering
    eigenvalues, eigenvectors = np.linalg.eigh(b)
    order = np.argsort(eigenvalues)[::-1][:n_components]
    top_values = np.maximum(eigenvalues[order], 0.0)
    return eigenvectors[:, order] * np.sqrt(top_values)


def complete_distances(measurements, n_nodes: int) -> np.ndarray:
    """Complete a sparse measurement set via graph shortest paths.

    Raises :class:`GraphDisconnectedError` when the measurement graph
    does not connect all *n_nodes* nodes (shortest-path completion is
    then impossible for some pairs).
    """
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


def mds_map(measurements, n_nodes: int, n_components: int = 2) -> np.ndarray:
    """MDS-MAP baseline: shortest-path completion then classical MDS.

    Returns relative coordinates of shape ``(n_nodes, n_components)``.
    """
    full = complete_distances(measurements, n_nodes)
    return classical_mds(full, n_components=n_components)


def mds_map_stack(
    edge_lists: Sequence[EdgeList], n_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`mds_map` for a stack of problems with *n_nodes* nodes each.

    Returns ``(coordinates, connected)``: planar coordinates of shape
    ``(B, n_nodes, 2)`` and a ``(B,)`` mask of the problems
    whose graph connects all nodes.  A connected problem's coordinates
    are bytewise those of ``mds_map(edge_lists[b], n_nodes)``; a
    disconnected one's (where :func:`mds_map` raises) are NaN.

    The completion is all-sources min-plus relaxation of one
    ``(B, n, n)`` weight stack, ``D[b, i, j] <- min_k D[b, i, k] +
    W[b, k, j]``, run to its fixed point.  Each update extends a path
    from source ``i`` by one edge on the right, so row ``i`` holds the
    smallest left-associated path sums from ``i``.  Rounding is
    monotone (``a <= b`` implies ``fl(a + w) <= fl(b + w)``) and adding
    a length ``w >= 0`` never decreases a sum, so those are exactly the
    values Dijkstra reaches from source ``i``.  Squaring the distance
    matrix in the min-plus sense (``D <- D (+) D``) would sum the same
    paths in a different order and move the last bits.  The double
    centering and one stacked ``eigh`` then repeat
    :func:`classical_mds` operation for operation.

    One scipy Dijkstra call over the disjoint union of the B graphs
    would give the same values by construction, but it fills a dense
    ``(B n, B n)`` result and builds a CSR matrix per call: on the
    local maps of six ``town-distributed-lss`` trials (53 stacks of
    4-13 nodes) it took 0.044 s against the relaxation's 0.022 s.
    """
    n_problems = len(edge_lists)
    if n_nodes < 2:
        raise ValidationError("n_nodes must be >= 2")
    coordinates = np.full((n_problems, n_nodes, 2), np.nan)
    if n_problems == 0:
        return coordinates, np.zeros(0, dtype=bool)
    pairs = np.concatenate([edges.pairs for edges in edge_lists]).reshape(-1, 2)
    distances = np.concatenate([edges.distances for edges in edge_lists])
    problem = np.repeat(
        np.arange(n_problems), [len(edges) for edges in edge_lists]
    )
    if np.any(pairs < 0) or np.any(pairs >= n_nodes):
        raise ValidationError("edge indices outside [0, n_nodes)")
    # Problem b's node i is node b * n_nodes + i of one disjoint union,
    # so a repeat within a problem is a repeat in the union.
    check_graph_edges(pairs + (problem * n_nodes)[:, None], n_problems * n_nodes)
    check_edge_distances(distances)

    weights = np.full((n_problems, n_nodes, n_nodes), np.inf)
    diagonal = np.arange(n_nodes)
    weights[:, diagonal, diagonal] = 0.0
    weights[problem, pairs[:, 0], pairs[:, 1]] = distances
    weights[problem, pairs[:, 1], pairs[:, 0]] = distances
    full = weights
    for _ in range(n_nodes - 1):
        relaxed = np.min(full[:, :, :, None] + weights[:, None, :, :], axis=2)
        if np.array_equal(relaxed, full):
            break
        full = relaxed
    connected = np.all(np.isfinite(full), axis=(1, 2))
    if not np.any(connected):
        return coordinates, connected

    sq = full[connected] ** 2
    centering = np.eye(n_nodes) - np.ones((n_nodes, n_nodes)) / n_nodes
    b = -0.5 * centering @ sq @ centering
    eigenvalues, eigenvectors = np.linalg.eigh(b)
    order = np.argsort(eigenvalues, axis=-1)[:, ::-1][:, :2]
    top_values = np.maximum(np.take_along_axis(eigenvalues, order, axis=-1), 0.0)
    coordinates[connected] = np.take_along_axis(
        eigenvectors, order[:, None, :], axis=-1
    ) * np.sqrt(top_values)[:, None, :]
    return coordinates, connected
