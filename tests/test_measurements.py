"""Tests for the measurement data model (repro.core.measurements)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _edge_oracle import assert_same_edges, per_pair_edge_list
from repro.core.measurements import EdgeList, MeasurementSet, RangeMeasurement, check_graph_edges
from repro.errors import ValidationError


class TestRangeMeasurement:
    def test_basic_fields(self):
        m = RangeMeasurement(0, 1, 9.5, true_distance=9.0, round_index=2)
        assert m.source == 0 and m.receiver == 1
        assert m.error == pytest.approx(0.5)

    def test_error_none_without_truth(self):
        assert RangeMeasurement(0, 1, 5.0).error is None

    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError):
            RangeMeasurement(3, 3, 1.0)

    def test_negative_node_rejected(self):
        with pytest.raises(ValidationError):
            RangeMeasurement(-1, 0, 1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            RangeMeasurement(0, 1, -2.0)

    def test_zero_distance_allowed(self):
        # Garbage detections at buffer start produce 0.0 estimates.
        assert RangeMeasurement(0, 1, 0.0).distance == 0.0

    @pytest.mark.parametrize("zero", [-0.0, np.float64(-0.0)], ids=["float", "float64"])
    def test_negative_zero_stored_as_zero(self, zero):
        distance = RangeMeasurement(0, 1, zero).distance
        assert not np.signbit(distance)
        assert type(distance) is type(zero)

    def test_integer_zero_kept(self):
        assert type(RangeMeasurement(0, 1, 0).distance) is int


class TestMeasurementSetBasics:
    def test_empty(self):
        ms = MeasurementSet()
        assert len(ms) == 0
        assert ms.undirected_pairs == []
        assert ms.node_ids == []

    def test_add_and_len(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0)
        ms.add_distance(0, 1, 5.2)
        ms.add_distance(1, 0, 4.9)
        assert len(ms) == 3
        assert ms.directed_pairs == [(0, 1), (1, 0)]
        assert ms.undirected_pairs == [(0, 1)]

    def test_contains(self):
        ms = MeasurementSet()
        ms.add_distance(2, 7, 3.0)
        assert (2, 7) in ms
        assert (7, 2) not in ms

    def test_get_and_distances(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0)
        ms.add_distance(0, 1, 6.0)
        assert list(ms.distances(0, 1)) == [5.0, 6.0]
        assert ms.distances(1, 0).size == 0

    def test_neighbors(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        ms.add_distance(2, 0, 1.0)
        ms.add_distance(3, 4, 1.0)
        assert ms.neighbors(0) == [1, 2]
        assert ms.neighbors(3) == [4]
        assert ms.neighbors(9) == []

    def test_has_bidirectional(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        assert not ms.has_bidirectional(0, 1)
        ms.add_distance(1, 0, 1.0)
        assert ms.has_bidirectional(0, 1)
        assert ms.has_bidirectional(1, 0)

    def test_degree_histogram(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        ms.add_distance(0, 2, 1.0)
        assert ms.degree_histogram() == {0: 2, 1: 1, 2: 1}

    def test_merge(self):
        a = MeasurementSet()
        a.add_distance(0, 1, 1.0)
        b = MeasurementSet()
        b.add_distance(1, 2, 2.0)
        merged = a.merge(b)
        assert len(merged) == 2
        assert len(a) == 1 and len(b) == 1  # originals untouched

    def test_iteration_yields_all(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        ms.add_distance(0, 1, 2.0)
        ms.add_distance(2, 3, 3.0)
        assert sorted(m.distance for m in ms) == [1.0, 2.0, 3.0]

    def test_filter(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        ms.add_distance(0, 2, 10.0)
        kept = ms.filter(lambda m: m.distance < 5)
        assert len(kept) == 1

    def test_restrict_to_nodes(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        ms.add_distance(1, 2, 1.0)
        ms.add_distance(2, 3, 1.0)
        sub = ms.restrict_to_nodes([0, 1, 2])
        assert sub.undirected_pairs == [(0, 1), (1, 2)]

    def test_signed_errors(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0, true_distance=4.0)
        ms.add_distance(1, 2, 3.0)  # no truth
        errs = ms.signed_errors()
        assert errs == pytest.approx([1.0])


class TestReduce:
    def test_median(self):
        ms = MeasurementSet()
        for d in (5.0, 100.0, 5.2):
            ms.add_distance(0, 1, d)
        reduced = ms.reduce()
        assert len(reduced) == 1
        assert reduced.distances(0, 1)[0] == pytest.approx(5.2)

    def test_even_count_takes_mean_of_middle_values(self):
        ms = MeasurementSet()
        for d in (9.0, 1.0, 4.0, 2.0):
            ms.add_distance(0, 1, d)
        assert ms.reduce().distances(0, 1)[0] == 3.0

    def test_truth_preserved_when_consistent(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0, true_distance=5.5)
        ms.add_distance(0, 1, 5.4, true_distance=5.5)
        reduced = ms.reduce()
        assert reduced.get(0, 1)[0].true_distance == pytest.approx(5.5)

    def test_reduce_idempotent(self):
        ms = MeasurementSet()
        for d in (1.0, 2.0, 3.0):
            ms.add_distance(0, 1, d)
        once = ms.reduce()
        twice = once.reduce()
        assert once.distances(0, 1)[0] == twice.distances(0, 1)[0]


class TestColumns:
    def test_columns_follow_iteration_order(self):
        ms = MeasurementSet()
        ms.add_distance(3, 1, 2.5)
        ms.add_distance(0, 2, 4.0)
        ms.add_distance(3, 1, 1.5)
        sources, receivers, distances = ms.columns()
        assert [(m.source, m.receiver, m.distance) for m in ms] == list(
            zip(sources.tolist(), receivers.tolist(), distances.tolist())
        )
        assert (sources.dtype, receivers.dtype, distances.dtype) == (np.int64, np.int64, float)

    def test_empty_columns(self):
        assert [c.shape for c in MeasurementSet().columns()] == [(0,), (0,), (0,)]

    def test_without_pairs_drops_both_directions_and_keeps_order(self):
        ms = MeasurementSet()
        for source, receiver, d in ((2, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0), (1, 0, 4.0), (2, 1, 5.0)):
            ms.add_distance(source, receiver, d)
        out = ms.without_pairs({(0, 2)})
        assert [m.distance for m in out] == [2.0, 4.0, 5.0]
        out.add_distance(0, 1, 9.0)
        assert len(ms.get(0, 1)) == 1  # the copy does not share its lists


class TestEdgeList:
    def test_export(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0)
        ms.add_distance(1, 0, 7.0)
        ms.add_distance(2, 0, 3.0)
        edges = ms.to_edge_list()
        assert len(edges) == 2
        lookup = {tuple(p): d for p, d in zip(edges.pairs, edges.distances)}
        assert lookup[(0, 1)] == pytest.approx(6.0)
        assert lookup[(0, 2)] == pytest.approx(3.0)
        assert np.all(edges.weights == 1.0)

    def test_weight_fn(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        edges = ms.to_edge_list(weight_fn=lambda d: 1.0 / d)
        assert edges.weights[0] == pytest.approx(0.1)

    def test_empty_export(self):
        edges = MeasurementSet().to_edge_list()
        assert len(edges) == 0
        assert edges.pairs.shape == (0, 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            EdgeList(
                pairs=np.zeros((2, 2), dtype=np.int64),
                distances=np.zeros(3),
                weights=np.zeros(2),
            )


class TestCheckGraphEdgesPerProblem:
    """With problem ids, the pairs are a stack of graphs over n_nodes
    nodes each: range per graph, repeats only within a graph."""

    PAIRS = np.array([[0, 1], [1, 2], [0, 1]], dtype=np.int64)

    def test_same_pair_in_two_problems_is_fine(self):
        check_graph_edges(self.PAIRS, 3, np.array([0, 0, 1]))

    def test_repeat_within_a_problem_rejected(self):
        with pytest.raises(ValidationError, match="duplicate edge"):
            check_graph_edges(self.PAIRS, 3, np.array([0, 0, 0]))

    def test_id_past_its_problem_rejected(self):
        # Node 3 of problem 0 is not node 0 of problem 1.
        pairs = np.array([[0, 3], [0, 1]], dtype=np.int64)
        with pytest.raises(ValidationError, match=r"edge endpoints outside \[0, n_nodes\)"):
            check_graph_edges(pairs, 3, np.array([0, 1]))


class TestFromEdgeArrays:
    def test_roundtrip(self):
        pairs = np.array([[0, 1], [1, 2]])
        dists = np.array([3.0, 4.0])
        ms = MeasurementSet.from_edge_arrays(pairs, dists, true_distances=[3.1, 4.1])
        assert len(ms) == 2
        assert ms.get(0, 1)[0].true_distance == pytest.approx(3.1)

    def test_bad_shapes(self):
        with pytest.raises(ValidationError):
            MeasurementSet.from_edge_arrays(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValidationError):
            MeasurementSet.from_edge_arrays(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValidationError):
            MeasurementSet.from_edge_arrays(
                np.zeros((2, 2)) + [[0, 1], [1, 2]],
                np.zeros(2),
                true_distances=np.zeros(1),
            )


@given(
    distances=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=9),
)
@settings(max_examples=50, deadline=None)
def test_median_reduce_between_min_and_max(distances):
    ms = MeasurementSet()
    for d in distances:
        ms.add_distance(0, 1, d)
    value = ms.reduce().distances(0, 1)[0]
    assert min(distances) - 1e-9 <= value <= max(distances) + 1e-9


@given(
    forward=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=5),
    backward=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_edge_distance_between_direction_medians(forward, backward):
    ms = MeasurementSet()
    for d in forward:
        ms.add_distance(0, 1, d)
    for d in backward:
        ms.add_distance(1, 0, d)
    value = ms.to_edge_list().distances[0]
    lo = min(np.median(forward), np.median(backward))
    hi = max(np.median(forward), np.median(backward))
    assert lo - 1e-9 <= value <= hi + 1e-9


# A few repeated values make ties (and equal middle values) common.
_distance = st.one_of(
    st.sampled_from([0.0, 1.5, 7.25, 22.0]),
    st.floats(0.0, 60.0, allow_nan=False),
)


@st.composite
def _measurement_sets(draw):
    """Multi-round sets over up to six nodes.

    Each pair gets 0-4 estimates per direction, so the sets mix one-way
    and bidirectional pairs and even and odd group sizes; insertion
    order is shuffled so the export cannot rely on it.
    """
    n_nodes = draw(st.integers(2, 6))
    rows = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            for source, receiver in ((i, j), (j, i)):
                for value in draw(st.lists(_distance, max_size=4)):
                    rows.append((source, receiver, value))
    rows = draw(st.permutations(rows))
    ms = MeasurementSet()
    for round_index, (source, receiver, value) in enumerate(rows):
        ms.add_distance(source, receiver, value, round_index=round_index % 3)
    return ms


@given(ms=_measurement_sets(), weighted=st.booleans())
@settings(max_examples=300, deadline=None)
def test_grouped_edge_list_matches_per_pair_oracle(ms, weighted):
    weight_fn = (lambda d: 1.0 / (1.0 + d)) if weighted else None
    assert_same_edges(
        ms.to_edge_list(weight_fn=weight_fn), per_pair_edge_list(ms, weight_fn=weight_fn)
    )


class TestGroupedEdgeList:
    """Hand-built cases the property covers only by chance."""

    def test_even_group_takes_mean_of_middle_values(self):
        ms = MeasurementSet()
        for d in (9.0, 1.0, 4.0, 2.0):
            ms.add_distance(3, 1, d)
        edges = ms.to_edge_list()
        assert edges.pairs.tolist() == [[1, 3]]
        assert edges.distances[0] == 3.0  # (2 + 4) / 2

    def test_directions_average_their_medians(self):
        ms = MeasurementSet()
        for d in (5.0, 6.0, 100.0):
            ms.add_distance(0, 1, d)
        for d in (8.0, 7.0):
            ms.add_distance(1, 0, d)
        assert_same_edges(ms.to_edge_list(), per_pair_edge_list(ms))
        assert ms.to_edge_list().distances[0] == (6.0 + 7.5) / 2

    def test_from_directed_rejects_ragged_arrays(self):
        with pytest.raises(ValidationError):
            EdgeList.from_directed([0, 1], [1], [2.0, 3.0])

    def test_from_directed_empty_is_int64_pairs(self):
        edges = EdgeList.from_directed([], [], [])
        assert edges.pairs.shape == (0, 2) and edges.pairs.dtype == np.int64
        assert len(edges.distances) == len(edges.weights) == 0
