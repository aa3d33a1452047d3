"""Per-pair reference bodies for the columnar range code.

:func:`per_pair_edge_list` is the body ``MeasurementSet.to_edge_list``
had before it was vectorized: symmetrize with one ``np.median`` per
directed pair and one ``np.mean`` per undirected pair (the frozen
``symmetrized`` of ``_consistency_oracle``), then look each collapsed
distance up pair by pair.  :func:`per_pair_gaussian_ranges`
is the Gaussian generator as it was before it drew in columns: one
scalar ``rng.normal`` per pair, in pair order.  Tests compare the
production code with them byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.core.measurements import EdgeList, MeasurementSet

from _consistency_oracle import symmetrized


def per_pair_edge_list(ms, *, weight_fn=None) -> EdgeList:
    sym = symmetrized(ms)
    pairs = sym.undirected_pairs
    if not pairs:
        return EdgeList(
            pairs=np.zeros((0, 2), dtype=np.int64),
            distances=np.zeros(0),
            weights=np.zeros(0),
        )
    arr_pairs = np.asarray(pairs, dtype=np.int64)
    dists = np.array([sym.distances(i, j)[0] for (i, j) in pairs])
    if weight_fn is None:
        weights = np.ones(len(pairs))
    else:
        weights = np.array([float(weight_fn(d)) for d in dists])
    return EdgeList(pairs=arr_pairs, distances=dists, weights=weights)


def per_pair_gaussian_ranges(pts, pairs, sigma_m, rng) -> MeasurementSet:
    out = MeasurementSet()
    for i, j in pairs:
        truth = float(np.hypot(*(pts[i] - pts[j])))
        noisy = max(0.0, truth + float(rng.normal(0.0, sigma_m)))
        out.add_distance(int(i), int(j), noisy, true_distance=truth)
    return out


def assert_same_edges(actual: EdgeList, expected: EdgeList) -> None:
    """Equal dtypes, shapes and bytes in all three edge arrays."""
    for name in ("pairs", "distances", "weights"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, (name, a.dtype, e.dtype)
        assert a.shape == e.shape, (name, a.shape, e.shape)
        assert a.tobytes() == e.tobytes(), (name, a, e)
