"""Consistency checking across nodes (Section 3.5, "Consistency Checking").

Two checks, both operating on (already statistically filtered)
measurement sets:

* **Bidirectional** — "bidirectional range estimates between a pair of
  nodes are discarded if they are inconsistent."  Errors correlated on a
  single node (faulty hardware, persistent wide-band noise at one
  microphone) show up as disagreement between the two directions.
* **Triangle** — "if three nodes have measurements to each other, we use
  the triangle inequality to identify inconsistent one[s]": a triple
  where two sides sum to less than the third contains at least one bad
  estimate.

As the paper cautions, neither check can prove *which* measurement is
wrong, and discarding may be worse than keeping when data is scarce —
hence the ``keep_unpaired`` and ``drop_policy`` knobs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Set, Tuple

import numpy as np

from .._validation import check_non_negative
from ..core.measurements import MeasurementSet
from ..errors import ValidationError

__all__ = [
    "bidirectional_filter",
    "triangle_filter",
]


def bidirectional_filter(
    measurements: MeasurementSet,
    *,
    tolerance_m: float = 1.0,
    keep_unpaired: bool = True,
) -> MeasurementSet:
    """Drop pairs whose two directed estimates disagree.

    Parameters
    ----------
    measurements : MeasurementSet
        Input; multi-round estimates are collapsed with the median
        before comparison.
    tolerance_m : float
        Maximum allowed |d_ij - d_ji|.
    keep_unpaired : bool
        Whether to keep pairs measured in only one direction ("sometimes
        it may be beneficial to retain suspicious measurements due to
        the scarcity of available data").  Figure 7 sets this False —
        it restricts the histogram to bidirectional pairs only.
    """
    check_non_negative(tolerance_m, "tolerance_m")
    reduced = measurements.reduce("median")
    out = MeasurementSet()
    for (i, j) in reduced.undirected_pairs:
        forward = reduced.distances(i, j)
        backward = reduced.distances(j, i)
        if forward.size and backward.size:
            if abs(float(forward[0]) - float(backward[0])) <= tolerance_m:
                for m in reduced.get(i, j) + reduced.get(j, i):
                    out.add(m)
        elif keep_unpaired:
            for m in reduced.get(i, j) + reduced.get(j, i):
                out.add(m)
    return out


def triangle_filter(
    measurements: MeasurementSet,
    *,
    slack_m: float = 1.0,
    drop_policy: str = "greedy",
) -> MeasurementSet:
    """Flag or drop measurements violating the triangle inequality.

    For every node triple with all three undirected distances available,
    check ``a + b + slack >= c`` for each permutation.  Violating
    triples implicate all three edges; since the check "cannot identify
    which of the measurements is incorrect with complete certainty",
    two policies are offered:

    * ``"greedy"`` (default) — repeatedly drop the single edge
      implicated by the most violating triangles until no violations
      remain.  A bad edge violates several triangles at once while each
      of its innocent partners is implicated only through it, so the
      iterative argmax isolates culprits with minimal collateral damage
      (over- *and* under-estimates alike).
    * ``"suspect"`` — drop only the *longest* edge of each violating
      triple (provably the culprit for a single overestimate, but wrong
      for underestimates).
    * ``"all"`` — drop every edge of every violating triple.
    """
    check_non_negative(slack_m, "slack_m")
    if drop_policy not in ("greedy", "suspect", "all"):
        raise ValidationError("drop_policy must be 'greedy', 'suspect' or 'all'")
    reduced = measurements.symmetrized()
    pairs = reduced.undirected_pairs
    dist: Dict[Tuple[int, int], float] = {
        (i, j): float(reduced.distances(i, j)[0]) for (i, j) in pairs
    }
    nodes = reduced.node_ids
    neighbor_map: Dict[int, Set[int]] = {n: set() for n in nodes}
    for (i, j) in pairs:
        neighbor_map[i].add(j)
        neighbor_map[j].add(i)

    # Enumerate all triangles (triples with all three edges measured).
    triangles: List[Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]] = []
    for a in nodes:
        for b, c in combinations(sorted(neighbor_map[a]), 2):
            if a >= b:  # each triangle once, via its smallest vertex
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
            else:  # "all"
                bad_edges.update(triple)

    def edge_ok(m) -> bool:
        key = (min(m.source, m.receiver), max(m.source, m.receiver))
        return key not in bad_edges

    return measurements.filter(edge_ok)

