"""Tests for repro.core.mds (classical MDS / MDS-MAP baselines)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distributed import _mds_initials
from repro.core.evaluation import align_to_reference, localization_errors
from repro.core.geometry import pairwise_distances
from repro.core.mds import classical_mds, complete_distances, mds_map, mds_map_stack
from repro.core.measurements import EdgeList, MeasurementSet
from repro.errors import (
    GraphDisconnectedError,
    InsufficientDataError,
    ValidationError,
)

from _oracles import mds_initial


@pytest.fixture
def config_points():
    rng = np.random.default_rng(7)
    return rng.uniform(0, 30, (8, 2))


class TestClassicalMds:
    def test_recovers_configuration(self, config_points):
        dist = pairwise_distances(config_points)
        coords = classical_mds(dist)
        aligned = align_to_reference(coords, config_points)
        assert localization_errors(aligned, config_points).max() < 1e-6

    def test_output_centered(self, config_points):
        coords = classical_mds(pairwise_distances(config_points))
        assert np.allclose(coords.mean(axis=0), 0.0, atol=1e-8)

    def test_one_component(self):
        # Points on a line embed perfectly in 1-D.
        line = np.stack([np.arange(5) * 3.0, np.zeros(5)], axis=1)
        coords = classical_mds(pairwise_distances(line), n_components=1)
        recovered = np.abs(coords[:, 0] - coords[0, 0])
        assert np.allclose(sorted(recovered), np.arange(5) * 3.0, atol=1e-8)

    def test_asymmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            classical_mds(bad)

    def test_nonzero_diagonal_rejected(self):
        bad = np.eye(3)
        with pytest.raises(ValidationError):
            classical_mds(bad)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValidationError):
            classical_mds(np.zeros((2, 3)))

    def test_bad_component_count(self, config_points):
        dist = pairwise_distances(config_points)
        with pytest.raises(ValidationError):
            classical_mds(dist, n_components=0)
        with pytest.raises(ValidationError):
            classical_mds(dist, n_components=99)

    def test_noisy_distances_still_close(self, config_points):
        rng = np.random.default_rng(1)
        dist = pairwise_distances(config_points)
        noise = rng.normal(0, 0.1, dist.shape)
        noisy = np.abs(dist + (noise + noise.T) / 2)
        np.fill_diagonal(noisy, 0.0)
        coords = classical_mds(noisy)
        aligned = align_to_reference(coords, config_points)
        assert localization_errors(aligned, config_points).mean() < 1.0


class TestCompleteDistances:
    def test_full_graph_passthrough(self, config_points):
        dist = pairwise_distances(config_points)
        n = len(config_points)
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
        edges = EdgeList(
            pairs=pairs,
            distances=np.array([dist[i, j] for i, j in pairs]),
            weights=np.ones(len(pairs)),
        )
        full = complete_distances(edges, n)
        assert np.allclose(full, dist, atol=1e-9)

    def test_path_completion(self):
        # Chain 0-1-2: missing (0,2) filled with the path sum.
        edges = EdgeList(
            pairs=np.array([[0, 1], [1, 2]]),
            distances=np.array([3.0, 4.0]),
            weights=np.ones(2),
        )
        full = complete_distances(edges, 3)
        assert full[0, 2] == pytest.approx(7.0)

    def test_shortest_path_chosen(self):
        # Two routes 0->2: direct 10 or 0-1-2 = 3+4.
        edges = EdgeList(
            pairs=np.array([[0, 1], [1, 2], [0, 2]]),
            distances=np.array([3.0, 4.0, 10.0]),
            weights=np.ones(3),
        )
        full = complete_distances(edges, 3)
        assert full[0, 2] == pytest.approx(7.0)

    def test_disconnected_raises(self):
        edges = EdgeList(
            pairs=np.array([[0, 1]]),
            distances=np.array([1.0]),
            weights=np.ones(1),
        )
        with pytest.raises(GraphDisconnectedError):
            complete_distances(edges, 3)

    def test_empty_raises(self):
        empty = EdgeList(
            pairs=np.zeros((0, 2), dtype=np.int64),
            distances=np.zeros(0),
            weights=np.zeros(0),
        )
        with pytest.raises(InsufficientDataError):
            complete_distances(empty, 3)

    def test_measurement_set_input(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 2.0)
        ms.add_distance(1, 2, 2.0)
        full = complete_distances(ms, 3)
        assert full[0, 2] == pytest.approx(4.0)

    def test_invalid_type(self):
        with pytest.raises(ValidationError):
            complete_distances([(0, 1, 2.0)], 3)

    @pytest.mark.parametrize("repeat", [(0, 1), (1, 0)], ids=["same-order", "reversed"])
    def test_duplicate_pair_rejected(self, repeat):
        # The CSR graph would sum the two entries: D[0, 1] == 6.0.
        edges = _edges([(0, 1), (1, 2), repeat], [3.0, 4.0, 3.0])
        with pytest.raises(ValidationError, match="duplicate edge"):
            complete_distances(edges, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            complete_distances(_edges([(0, 1), (1, 1)], [3.0, 0.0]), 3)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            complete_distances(_edges([(0, 1), (1, 3)], [3.0, 4.0]), 3)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_distance_rejected(self, bad):
        # scipy's Dijkstra does not terminate on a negative edge.
        with pytest.raises(ValidationError, match="finite and >= 0"):
            complete_distances(_edges([(0, 1), (1, 2)], [3.0, bad]), 3)

    def test_zero_length_edge_is_an_edge(self):
        full = complete_distances(_edges([(0, 1), (1, 2)], [0.0, 4.0]), 3)
        assert full[0, 2] == 4.0


class TestMdsMap:
    def test_dense_graph_accurate(self, config_points):
        dist = pairwise_distances(config_points)
        n = len(config_points)
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if dist[i, j] < 25.0:
                    pairs.append((i, j))
        pairs = np.asarray(pairs)
        edges = EdgeList(
            pairs=pairs,
            distances=np.array([dist[i, j] for i, j in pairs]),
            weights=np.ones(len(pairs)),
        )
        coords = mds_map(edges, n)
        aligned = align_to_reference(coords, config_points)
        assert localization_errors(aligned, config_points).mean() < 3.0

    def test_returns_requested_shape(self, config_points):
        dist = pairwise_distances(config_points)
        n = len(config_points)
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
        edges = EdgeList(
            pairs=pairs,
            distances=np.array([dist[i, j] for i, j in pairs]),
            weights=np.ones(len(pairs)),
        )
        assert mds_map(edges, n).shape == (n, 2)
        assert mds_map(edges, n, n_components=3).shape == (n, 3)


def _edges(pairs, distances, weights=None):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    distances = np.asarray(distances, dtype=float)
    weights = np.ones(len(distances)) if weights is None else np.asarray(weights, dtype=float)
    return EdgeList(pairs=pairs, distances=distances, weights=weights)


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMdsMapStack:
    def _dense(self, points, max_range=25.0):
        dist = pairwise_distances(points)
        n = len(points)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if dist[i, j] < max_range]
        return _edges(pairs, [dist[i, j] for i, j in pairs])

    def test_matches_mds_map_bytewise(self, config_points):
        rng = np.random.default_rng(3)
        stack = [self._dense(config_points)] + [
            self._dense(rng.uniform(0, 30, (8, 2))) for _ in range(4)
        ]
        coords, connected = mds_map_stack(stack, 8)
        assert coords.shape == (5, 8, 2)
        for edges, row, ok in zip(stack, coords, connected):
            try:
                expected = mds_map(edges, 8)
            except GraphDisconnectedError:
                assert not ok and np.isnan(row).all()
                continue
            assert ok and _same_bytes(row, expected)

    def test_disconnected_and_empty_problems(self):
        chain = _edges([(0, 1), (1, 2)], [3.0, 4.0])
        split = _edges([(0, 1)], [3.0])
        empty = _edges([], [])
        coords, connected = mds_map_stack([chain, split, empty], 3)
        assert connected.tolist() == [True, False, False]
        assert _same_bytes(coords[0], mds_map(chain, 3))
        assert np.isnan(coords[1:]).all()

    def test_tied_path_lengths(self):
        # A unit square: both routes between opposite corners sum to 2.
        square = _edges([(0, 1), (1, 2), (2, 3), (3, 0)], [1.0, 1.0, 1.0, 1.0])
        coords, connected = mds_map_stack([square], 4)
        assert connected[0]
        assert _same_bytes(coords[0], mds_map(square, 4))

    def test_path_sums_keep_dijkstra_order(self):
        # 0.1 + 0.2 + 0.3 rounds differently from 0.1 + (0.2 + 0.3).
        chain = _edges([(0, 1), (1, 2), (2, 3)], [0.1, 0.2, 0.3])
        coords, _ = mds_map_stack([chain], 4)
        assert _same_bytes(coords[0], mds_map(chain, 4))

    def test_empty_stack(self):
        coords, connected = mds_map_stack([], 4)
        assert coords.shape == (0, 4, 2) and connected.shape == (0,)

    @pytest.mark.parametrize("repeat", [(0, 1), (1, 0)], ids=["same-order", "reversed"])
    def test_duplicate_pair_rejected(self, repeat):
        clean = _edges([(0, 1), (1, 2)], [3.0, 4.0])
        doubled = _edges([(0, 1), (1, 2), repeat], [3.0, 4.0, 9.0])
        with pytest.raises(ValidationError, match="duplicate edge"):
            mds_map_stack([clean, doubled], 3)

    def test_same_pair_in_two_problems_is_fine(self):
        chain = _edges([(0, 1), (1, 2)], [3.0, 4.0])
        _, connected = mds_map_stack([chain, chain], 3)
        assert connected.all()

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            mds_map_stack([_edges([(0, 1), (2, 2)], [3.0, 0.0])], 3)

    def test_out_of_range_index_rejected(self):
        # Node 3 of a 3-node problem would alias node 0 of the next.
        with pytest.raises(ValidationError, match="outside"):
            mds_map_stack([_edges([(0, 3)], [3.0]), _edges([(0, 1)], [3.0])], 3)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_distance_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            mds_map_stack([_edges([(0, 1), (1, 2)], [3.0, bad])], 3)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValidationError):
            mds_map_stack([], 1)


#: Range values that make exact ties (small integers) and sums whose
#: rounding depends on their order (tenths).
_LENGTHS = st.one_of(
    st.integers(0, 6).map(float),
    st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7]),
    st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False),
)
#: 0.25 is uncorroborated, 0.5 and 1.0 corroborated.
_WEIGHT_MODES = {
    "mixed": [0.25, 0.5, 1.0],
    "uncorroborated": [0.25],
    "corroborated": [0.5, 1.0],
}


@st.composite
def _local_problem(draw):
    """One ``(owner, members, local_edges)`` neighborhood problem.

    Edges are any subset of the pairs (so the graph may be
    disconnected or empty) in either orientation, with weights drawn
    from one of :data:`_WEIGHT_MODES`.
    """
    n = draw(st.integers(3, 7))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.lists(st.sampled_from(all_pairs), unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [(j, i) if flip else (i, j) for (i, j), flip in zip(pairs, flips)]
    lengths = draw(st.lists(_LENGTHS, min_size=len(pairs), max_size=len(pairs)))
    levels = _WEIGHT_MODES[draw(st.sampled_from(sorted(_WEIGHT_MODES)))]
    weights = draw(
        st.lists(st.sampled_from(levels), min_size=len(pairs), max_size=len(pairs))
    )
    return 0, list(range(n)), _edges(pairs, lengths, weights)


def _assert_seeds_match_scalar(problems):
    got = _mds_initials(problems)
    assert len(got) == len(problems)
    for (_, members, local_edges), seed in zip(problems, got):
        expected = mds_initial(local_edges, len(members))
        if expected is None:
            assert seed is None
        else:
            assert seed is not None and _same_bytes(seed, expected)


@given(problems=st.lists(_local_problem(), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
@example(
    problems=[
        (0, [0, 1, 2, 3], _edges([(0, 1), (1, 2), (2, 3), (3, 0)], [1.0] * 4, [0.25] * 4)),
        (0, [0, 1, 2], _edges([(0, 1)], [2.0], [1.0])),
        (0, [0, 1, 2], _edges([(0, 1), (1, 2)], [0.1, 0.2], [0.25, 1.0])),
        (0, [0, 1, 2, 3], _edges([], [])),
    ]
)
def test_stacked_seeds_are_bytewise_mds_initial(problems):
    """The batched local-map seeds are the scalar oracle's, byte for byte.

    Covers mixed node counts in one call, disconnected and empty graphs,
    graphs whose corroborated edges do not connect (the all-edges
    fallback), graphs with no corroborated edge, and tied path lengths.
    """
    _assert_seeds_match_scalar(problems)
