"""Per-pair reference bodies for the consistency filters.

:func:`reduce_median` and :func:`symmetrized` are the
``MeasurementSet`` methods as they were before the filters read
columns: one ``np.median`` per directed pair, then one ``np.mean`` per
undirected pair.  :func:`triangle_filter` and
:func:`confidence_weighted_edges` are the filters of
``repro.ranging.consistency`` and ``repro.ranging.filtering`` as they
were then: dictionaries of pairs, a neighbor-set triangle enumeration,
greedy voting over a dictionary of counts, and one ``np.median`` per
pair and direction.  None of them calls the production filters, so
tests compare those with them byte for byte without patching.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.measurements import EdgeList, MeasurementSet


def reduce_median(ms: MeasurementSet) -> MeasurementSet:
    # Iteration yields each ordered pair's estimates together, pairs in
    # insertion order: the order the method walked its dictionary in.
    groups: Dict[Tuple[int, int], List] = {}
    for m in ms:
        groups.setdefault((m.source, m.receiver), []).append(m)
    reduced = MeasurementSet()
    for (i, j), measurements in groups.items():
        values = np.array([m.distance for m in measurements])
        truths = [m.true_distance for m in measurements]
        truth = truths[0] if all(t == truths[0] for t in truths) else None
        reduced.add_distance(i, j, float(np.median(values)), true_distance=truth)
    return reduced


def symmetrized(ms: MeasurementSet) -> MeasurementSet:
    single = reduce_median(ms)
    out = MeasurementSet()
    for (i, j) in single.undirected_pairs:
        forward = single.distances(i, j)
        backward = single.distances(j, i)
        values = np.concatenate([forward, backward])
        truth = None
        for m in single.get(i, j) + single.get(j, i):
            if m.true_distance is not None:
                truth = m.true_distance
                break
        out.add_distance(i, j, float(values.mean()), true_distance=truth)
    return out


def triangle_filter(
    measurements: MeasurementSet,
    *,
    slack_m: float = 1.0,
    drop_policy: str = "greedy",
) -> MeasurementSet:
    reduced = symmetrized(measurements)
    pairs = reduced.undirected_pairs
    dist: Dict[Tuple[int, int], float] = {
        (i, j): float(reduced.distances(i, j)[0]) for (i, j) in pairs
    }
    nodes = reduced.node_ids
    neighbor_map: Dict[int, Set[int]] = {n: set() for n in nodes}
    for (i, j) in pairs:
        neighbor_map[i].add(j)
        neighbor_map[j].add(i)

    triangles: List[Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]] = []
    for a in nodes:
        for b, c in combinations(sorted(neighbor_map[a]), 2):
            if a >= b:
                continue
            if c not in neighbor_map[b]:
                continue
            triangles.append(
                (
                    (min(a, b), max(a, b)),
                    (min(a, c), max(a, c)),
                    (min(b, c), max(b, c)),
                )
            )

    def violating(triple) -> bool:
        lengths = sorted(dist[e] for e in triple)
        return lengths[0] + lengths[1] + slack_m < lengths[2]

    bad_edges: Set[Tuple[int, int]] = set()
    if drop_policy == "greedy":
        active = list(triangles)
        while True:
            votes: Dict[Tuple[int, int], int] = {}
            for triple in active:
                if any(e in bad_edges for e in triple):
                    continue
                if violating(triple):
                    for e in triple:
                        votes[e] = votes.get(e, 0) + 1
            if not votes:
                break
            worst = max(votes, key=lambda e: (votes[e], e))
            bad_edges.add(worst)
    else:
        for triple in triangles:
            if not violating(triple):
                continue
            if drop_policy == "suspect":
                longest = max(triple, key=lambda e: dist[e])
                bad_edges.add(longest)
            else:
                bad_edges.update(triple)

    def edge_ok(m) -> bool:
        key = (min(m.source, m.receiver), max(m.source, m.receiver))
        return key not in bad_edges

    return measurements.filter(edge_ok)


def confidence_weighted_edges(
    measurements: MeasurementSet,
    *,
    bidirectional_weight: float = 1.0,
    repeated_weight: float = 0.5,
    single_weight: float = 0.15,
    agreement_tolerance_m: float = 1.0,
) -> EdgeList:
    pairs = []
    dists = []
    weights = []
    for (i, j) in measurements.undirected_pairs:
        forward = measurements.distances(i, j)
        backward = measurements.distances(j, i)
        both = np.concatenate([forward, backward])
        if forward.size and backward.size:
            if abs(np.median(forward) - np.median(backward)) > agreement_tolerance_m:
                continue
            weight = bidirectional_weight
        elif both.size >= 2 and np.ptp(both) <= agreement_tolerance_m:
            weight = repeated_weight
        else:
            weight = single_weight
        pairs.append((i, j))
        dists.append(float(np.median(both)))
        weights.append(weight)
    if not pairs:
        return EdgeList(
            pairs=np.zeros((0, 2), dtype=np.int64),
            distances=np.zeros(0),
            weights=np.zeros(0),
        )
    return EdgeList(
        pairs=np.asarray(pairs, dtype=np.int64),
        distances=np.asarray(dists),
        weights=np.asarray(weights),
    )
