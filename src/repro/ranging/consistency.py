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

import numpy as np

from .._validation import check_non_negative
from ..core.measurements import EdgeList, MeasurementSet
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
    reduced = measurements.reduce()
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
    # One distance per undirected pair: the median of each direction,
    # then the mean of the two; pairs sorted by (min, max) node id.
    edges = EdgeList.from_directed(*measurements.columns())
    triangles = _triangles(edges.pairs)
    lengths = edges.distances[triangles]
    ordered = np.sort(lengths, axis=1)
    violating = ordered[:, 0] + ordered[:, 1] + slack_m < ordered[:, 2]
    bad = np.zeros(len(edges), dtype=bool)
    if drop_policy == "greedy":
        # Edge ids follow the (min, max) order, so among the edges with
        # the most votes the largest id is the largest pair.
        active = triangles[violating]
        while active.size:
            votes = np.bincount(active.ravel(), minlength=len(edges))
            worst = votes.size - 1 - int(np.argmax(votes[::-1]))
            bad[worst] = True
            active = active[(active != worst).all(axis=1)]
    elif drop_policy == "suspect":
        longest = np.argmax(lengths[violating], axis=1)
        bad[triangles[violating, longest]] = True
    else:  # "all"
        bad[triangles[violating]] = True
    return measurements.without_pairs(set(map(tuple, edges.pairs[bad].tolist())))


def _triangles(pairs: np.ndarray) -> np.ndarray:
    """Every triangle of the graph with edges *pairs* (``(m, 2)``, rows
    ``i < j`` sorted), as ``(t, 3)`` edge ids ``(a, b), (a, c), (b, c)``
    for ``a < b < c``, in ``(a, b, c)`` order.

    The candidates for edge ``(a, b)`` are the edges ``(a, c)`` after it
    in ``a``'s run; a candidate closes a triangle when ``(b, c)`` is an
    edge, found by a binary search of the sorted pair keys.  Memory grows
    with the candidates, not with the square of the node count.
    """
    if pairs.shape[0] == 0:
        return np.zeros((0, 3), dtype=np.int64)
    nodes, local = np.unique(pairs, return_inverse=True)
    a, b = local.reshape(pairs.shape).T
    keys = a * nodes.size + b
    later = np.searchsorted(a, a, side="right") - np.arange(a.size) - 1
    ab = np.repeat(np.arange(a.size), later)
    ac = ab + 1 + np.arange(ab.size) - np.repeat(np.cumsum(later) - later, later)
    wanted = b[ab] * nodes.size + b[ac]
    bc = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    found = keys[bc] == wanted
    return np.stack([ab[found], ac[found], bc[found]], axis=1)
