"""Range-measurement data model shared by ranging and localization.

The ranging service (Section 3) produces *directed* distance
measurements: node ``i`` chirps, node ``j`` detects, yielding an estimate
of ``d_ij`` at ``j``.  Several estimates may exist per ordered pair (the
paper makes multiple rounds and filters with median/mode), and the
bidirectional consistency check compares the ``(i, j)`` and ``(j, i)``
estimates.  Localization (Section 4) consumes an *undirected* edge list
``(pairs, distances, weights)``.

:class:`MeasurementSet` holds the directed multi-measurements and
produces the undirected view; it is the interchange type across the
library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .._validation import check_non_negative
from ..errors import ValidationError

__all__ = [
    "RangeMeasurement",
    "EdgeList",
    "MeasurementSet",
    "as_edge_list",
    "as_graph_edges",
    "check_edge_distances",
    "check_graph_edges",
]


@dataclass(frozen=True)
class RangeMeasurement:
    """One directed distance estimate.

    Attributes
    ----------
    source : int
        Node that emitted the chirp.
    receiver : int
        Node that detected the chirp and computed the distance.
    distance : float
        Estimated distance in meters.
    true_distance : float or None
        Ground-truth distance when known (simulation only); ``None`` for
        field-style data.  Used for error analyses, never by algorithms.
    round_index : int
        Which measurement round produced this estimate.
    """

    source: int
    receiver: int
    distance: float
    true_distance: Optional[float] = None
    round_index: int = 0

    def __post_init__(self):
        if self.source == self.receiver:
            raise ValidationError("source and receiver must differ")
        if self.source < 0 or self.receiver < 0:
            raise ValidationError("node ids must be non-negative")
        check_non_negative(self.distance, "distance")

    @property
    def error(self) -> Optional[float]:
        """Signed ranging error (estimate minus truth), if truth is known."""
        if self.true_distance is None:
            return None
        return self.distance - self.true_distance


@dataclass(frozen=True)
class EdgeList:
    """Undirected measurement view consumed by localization algorithms."""

    pairs: np.ndarray  # (m, 2) int64, i < j
    distances: np.ndarray  # (m,)
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        if self.pairs.shape[0] != self.distances.shape[0] or self.pairs.shape[0] != self.weights.shape[0]:
            raise ValidationError("pairs, distances and weights must have equal length")

    def __len__(self) -> int:
        return int(self.pairs.shape[0])

    def subset(self, keep: np.ndarray) -> "EdgeList":
        """The rows *keep* (a boolean mask or an index array) selects."""
        return EdgeList(
            pairs=self.pairs[keep], distances=self.distances[keep], weights=self.weights[keep]
        )

    @classmethod
    def from_directed(cls, sources, receivers, distances, *, weight_fn=None) -> "EdgeList":
        """Collapse directed estimates, given as parallel arrays, to edges.

        The estimates of each ordered pair reduce to their median (the
        mean of the two middle values for an even count), and the two
        directions of a pair then average.  Edges come out sorted by
        ``(min, max)`` node id.  *weight_fn*, if given, maps each
        collapsed distance to a weight; the default weight is 1.  This
        is :meth:`MeasurementSet.to_edge_list` on arrays: the reduction
        runs in float64 over one sort, with no per-pair loop.
        """
        sources = np.asarray(sources, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        distances = np.asarray(distances, dtype=float)
        if not sources.shape == receivers.shape == distances.shape or sources.ndim != 1:
            raise ValidationError("sources, receivers and distances must be equal-length 1-D arrays")
        if sources.size == 0:
            return cls(
                pairs=np.zeros((0, 2), dtype=np.int64),
                distances=np.zeros(0),
                weights=np.zeros(0),
            )
        lo = np.minimum(sources, receivers)
        hi = np.maximum(sources, receivers)
        backward = sources > receivers
        order = np.lexsort((distances, backward, hi, lo))
        lo, hi, backward, values = lo[order], hi[order], backward[order], distances[order]
        # One group per ordered pair; its median is read off the sorted run.
        new_pair = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        starts = np.flatnonzero(np.concatenate(([True], new_pair | (backward[1:] != backward[:-1]))))
        counts = np.diff(np.append(starts, values.size))
        middle = starts + counts // 2
        medians = values[middle]
        even = counts % 2 == 0
        medians[even] = (values[middle[even] - 1] + values[middle[even]]) / 2
        # One group per unordered pair: its one or two direction medians.
        edge_starts = np.flatnonzero(np.concatenate(([True], new_pair[starts[1:] - 1])))
        collapsed = medians[edge_starts]
        both = np.diff(np.append(edge_starts, starts.size)) == 2
        collapsed[both] = (medians[edge_starts[both]] + medians[edge_starts[both] + 1]) / 2
        first = starts[edge_starts]
        if weight_fn is None:
            weights = np.ones(collapsed.size)
        else:
            weights = np.array([float(weight_fn(d)) for d in collapsed])
        return cls(
            pairs=np.stack([lo[first], hi[first]], axis=1),
            distances=collapsed,
            weights=weights,
        )


class MeasurementSet:
    """A mutable collection of directed range measurements.

    Supports the reduction and filtering pipeline of Section 3.5
    (statistical filtering, bidirectional and triangle consistency
    checks live in :mod:`repro.ranging`, operating on this type) and
    exports the undirected edge list for localization.
    """

    def __init__(self, measurements: Iterable[RangeMeasurement] = ()) -> None:
        self._directed: Dict[Tuple[int, int], List[RangeMeasurement]] = {}
        for m in measurements:
            self.add(m)

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------

    def add(self, measurement: RangeMeasurement) -> None:
        """Add one directed measurement."""
        key = (measurement.source, measurement.receiver)
        self._directed.setdefault(key, []).append(measurement)

    def add_distance(
        self,
        source: int,
        receiver: int,
        distance: float,
        *,
        true_distance: Optional[float] = None,
        round_index: int = 0,
    ) -> None:
        """Convenience wrapper building a :class:`RangeMeasurement`."""
        self.add(
            RangeMeasurement(
                source=source,
                receiver=receiver,
                distance=distance,
                true_distance=true_distance,
                round_index=round_index,
            )
        )

    def merge(self, other: "MeasurementSet") -> "MeasurementSet":
        """Return a new set containing measurements from both sets."""
        merged = MeasurementSet(self)
        for m in other:
            merged.add(m)
        return merged

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[RangeMeasurement]:
        for measurements in self._directed.values():
            yield from measurements

    def __len__(self) -> int:
        return sum(len(v) for v in self._directed.values())

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return tuple(pair) in self._directed

    @property
    def directed_pairs(self) -> List[Tuple[int, int]]:
        """Ordered (source, receiver) pairs with at least one estimate."""
        return sorted(self._directed)

    @property
    def undirected_pairs(self) -> List[Tuple[int, int]]:
        """Unordered node pairs (i < j) with at least one estimate in
        either direction."""
        seen: Set[Tuple[int, int]] = set()
        for (i, j) in self._directed:
            seen.add((min(i, j), max(i, j)))
        return sorted(seen)

    @property
    def node_ids(self) -> List[int]:
        """All node ids appearing in any measurement, sorted."""
        ids: Set[int] = set()
        for (i, j) in self._directed:
            ids.add(i)
            ids.add(j)
        return sorted(ids)

    def get(self, source: int, receiver: int) -> List[RangeMeasurement]:
        """Directed measurements for an ordered pair ([] when absent)."""
        return list(self._directed.get((source, receiver), []))

    def distances(self, source: int, receiver: int) -> np.ndarray:
        """Distance estimates for an ordered pair as an array."""
        return np.array([m.distance for m in self.get(source, receiver)])

    def has_bidirectional(self, i: int, j: int) -> bool:
        """True when estimates exist in both directions for the pair."""
        return (i, j) in self._directed and (j, i) in self._directed

    def neighbors(self, node: int) -> List[int]:
        """Nodes sharing an undirected measurement with *node*."""
        out: Set[int] = set()
        for (i, j) in self._directed:
            if i == node:
                out.add(j)
            elif j == node:
                out.add(i)
        return sorted(out)

    def degree_histogram(self) -> Dict[int, int]:
        """Map node id -> number of undirected measurement partners."""
        return {node: len(self.neighbors(node)) for node in self.node_ids}

    # ------------------------------------------------------------------
    # Reduction / export
    # ------------------------------------------------------------------

    def reduce(self, statistic: str = "median") -> "MeasurementSet":
        """Collapse multi-round estimates per directed pair to one value.

        ``statistic`` is ``"median"``, ``"mode"`` or ``"mean"``; the
        paper uses the median for few measurements and the mode when
        many are available (Section 3.5, Statistical Filtering).  The
        mode here is the paper's coarse-bin variant: estimates are
        quantized to 0.5 m bins and the densest bin's member mean wins.
        """
        reduced = MeasurementSet()
        for (i, j), measurements in self._directed.items():
            values = np.array([m.distance for m in measurements])
            truths = [m.true_distance for m in measurements]
            truth = truths[0] if all(t == truths[0] for t in truths) else None
            if statistic == "median":
                value = float(np.median(values))
            elif statistic == "mean":
                value = float(values.mean())
            elif statistic == "mode":
                value = _binned_mode(values)
            else:
                raise ValidationError(f"unknown statistic {statistic!r}")
            reduced.add_distance(i, j, value, true_distance=truth)
        return reduced

    def symmetrized(self) -> "MeasurementSet":
        """Average the two directions of bidirectional pairs.

        Pairs with only one direction keep their single estimate.  The
        result contains exactly one directed measurement per undirected
        pair, stored as (min, max).
        """
        single = self.reduce("median")
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

    def to_edge_list(
        self,
        *,
        weight_fn=None,
    ) -> EdgeList:
        """Export the undirected edge list for localization.

        Multi-round and bidirectional estimates collapse as in
        :meth:`symmetrized`: the median per direction, then the mean of
        the two directions (see :meth:`EdgeList.from_directed`).
        *weight_fn*, if given, maps an undirected pair's collapsed
        distance to a weight; the default assigns the paper's constant
        weight 1.
        """
        counts = [len(group) for group in self._directed.values()]
        directed = np.array(list(self._directed), dtype=np.int64).reshape(-1, 2)
        distances = np.fromiter(
            (m.distance for group in self._directed.values() for m in group),
            dtype=float,
            count=sum(counts),
        )
        return EdgeList.from_directed(
            np.repeat(directed[:, 0], counts),
            np.repeat(directed[:, 1], counts),
            distances,
            weight_fn=weight_fn,
        )

    def filter(self, predicate) -> "MeasurementSet":
        """New set keeping measurements for which *predicate(m)* is true."""
        return MeasurementSet(m for m in self if predicate(m))

    def restrict_to_nodes(self, nodes: Iterable[int]) -> "MeasurementSet":
        """New set keeping measurements whose endpoints are both in *nodes*."""
        allowed = set(int(n) for n in nodes)
        return self.filter(lambda m: m.source in allowed and m.receiver in allowed)

    def signed_errors(self) -> np.ndarray:
        """Signed errors for all measurements with known ground truth."""
        errs = [m.error for m in self if m.error is not None]
        return np.asarray(errs, dtype=float)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_arrays(
        cls,
        pairs,
        distances,
        *,
        true_distances=None,
    ) -> "MeasurementSet":
        """Build a set from parallel arrays of pairs and distances."""
        pairs = np.asarray(pairs, dtype=np.int64)
        distances = np.asarray(distances, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError(f"pairs must have shape (m, 2); got {pairs.shape}")
        if distances.shape != (pairs.shape[0],):
            raise ValidationError("distances length must match pairs")
        if true_distances is not None:
            true_distances = np.asarray(true_distances, dtype=float)
            if true_distances.shape != (pairs.shape[0],):
                raise ValidationError("true_distances length must match pairs")
        out = cls()
        for k in range(pairs.shape[0]):
            truth = None if true_distances is None else float(true_distances[k])
            out.add_distance(
                int(pairs[k, 0]), int(pairs[k, 1]), float(distances[k]), true_distance=truth
            )
        return out


def as_edge_list(measurements) -> EdgeList:
    """*measurements* as an :class:`EdgeList`.

    A :class:`MeasurementSet` collapses through
    :meth:`MeasurementSet.to_edge_list`; an :class:`EdgeList` passes
    through unchanged.
    """
    if isinstance(measurements, MeasurementSet):
        return measurements.to_edge_list()
    if isinstance(measurements, EdgeList):
        return measurements
    raise ValidationError(
        f"measurements must be a MeasurementSet or EdgeList; got {type(measurements)!r}"
    )


def check_graph_edges(pairs: np.ndarray, n_nodes: int) -> None:
    """Reject edge pairs that a graph over *n_nodes* nodes would misread.

    Every graph builder (a scipy CSR matrix, a dense weight stack, a
    pair-keyed lookup) needs node ids in ``[0, n_nodes)``, no self-loops
    and each undirected pair at most once.  They disagree on what a
    repeated pair means: CSR construction sums the entries, a dict keeps
    the last and a dense stack the last write.  So a repeat, in either
    order, is an error rather than a choice.
    """
    if np.any(pairs < 0) or np.any(pairs >= n_nodes):
        raise ValidationError("edge endpoints outside [0, n_nodes)")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    if np.any(lo == hi):
        raise ValidationError("self-loop edge: a node cannot measure itself")
    # A sort and a neighbor compare: a quarter of np.unique's cost on
    # trial-sized lists, and every localizer call pays it.
    keys = np.sort(lo * n_nodes + hi)
    if np.any(keys[1:] == keys[:-1]):
        raise ValidationError("duplicate edge: each undirected pair may appear once")


def as_graph_edges(measurements, n_nodes: int) -> EdgeList:
    """*measurements* as an :class:`EdgeList` over nodes ``[0, n_nodes)``.

    :func:`as_edge_list`, then :func:`check_graph_edges`.  Every
    localizer takes its measurements through here; whether an empty
    list is an error is each caller's rule.
    """
    edges = as_edge_list(measurements)
    check_graph_edges(edges.pairs, n_nodes)
    return edges


def check_edge_distances(distances: np.ndarray) -> None:
    """Reject edge lengths a shortest-path search cannot use.

    Shortest paths need finite, non-negative lengths: scipy's Dijkstra
    does not stop on a negative edge (it keeps allocating), and min-plus
    relaxation has no fixed point on one.
    """
    if not np.all(np.isfinite(distances)) or np.any(distances < 0):
        raise ValidationError("edge distances must be finite and >= 0")


def _binned_mode(values: np.ndarray, bin_width: float = 0.5) -> float:
    """Mode of *values* by densest 0.5 m bin, as used by the paper's
    statistical filter when many estimates are available."""
    if values.size == 1:
        return float(values[0])
    bins = np.floor(values / bin_width).astype(np.int64)
    unique, counts = np.unique(bins, return_counts=True)
    best_bin = unique[np.argmax(counts)]
    members = values[bins == best_bin]
    return float(members.mean())
