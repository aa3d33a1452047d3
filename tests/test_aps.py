"""Tests for the APS baselines (repro.core.aps)."""

import numpy as np
import pytest

from repro.core import evaluate_localization
from repro.core.aps import dv_distance_localize, dv_hop_localize
from repro.core.measurements import EdgeList, MeasurementSet
from repro.deploy import spread_anchors, square_grid
from repro.errors import InsufficientDataError, ValidationError
from repro.ranging import gaussian_ranges


@pytest.fixture(scope="module")
def grid_scenario():
    positions = square_grid(5, 5, spacing_m=10.0)
    ranges = gaussian_ranges(positions, max_range_m=12.0, sigma_m=0.1, rng=3)
    anchor_idx = spread_anchors(positions, 5)
    anchors = {int(i): positions[i] for i in anchor_idx}
    return positions, ranges, anchors


class TestDvHop:
    def test_localizes_grid(self, grid_scenario):
        positions, ranges, anchors = grid_scenario
        result = dv_hop_localize(ranges, anchors, len(positions))
        loc = result.localized & ~result.is_anchor
        assert loc.sum() == (~result.is_anchor).sum()
        report = evaluate_localization(result.positions[loc], positions[loc])
        # Hop-count granularity: error within about half a hop length.
        assert report.average_error < 6.0

    def test_anchor_rows_exact(self, grid_scenario):
        positions, ranges, anchors = grid_scenario
        result = dv_hop_localize(ranges, anchors, len(positions))
        for a, pos in anchors.items():
            assert np.allclose(result.positions[a], pos)

    def test_needs_three_anchors(self, grid_scenario):
        positions, ranges, anchors = grid_scenario
        two = dict(list(anchors.items())[:2])
        with pytest.raises(InsufficientDataError):
            dv_hop_localize(ranges, two, len(positions))

    def test_disconnected_node_unlocalized(self):
        positions = np.array(
            [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0], [500.0, 500.0]]
        )
        ms = MeasurementSet()
        for i, j in [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (1, 2)]:
            d = float(np.hypot(*(positions[i] - positions[j])))
            ms.add_distance(i, j, d)
        anchors = {0: positions[0], 1: positions[1], 2: positions[2]}
        result = dv_hop_localize(ms, anchors, 5)
        assert result.localized[3]
        assert not result.localized[4]

    def test_invalid_anchor_id(self, grid_scenario):
        positions, ranges, _ = grid_scenario
        with pytest.raises(ValidationError):
            dv_hop_localize(
                ranges, {0: (0, 0), 1: (1, 0), 99: (2, 0)}, len(positions)
            )

    def test_isolated_anchors_rejected(self):
        ms = MeasurementSet()
        ms.add_distance(3, 4, 5.0)
        anchors = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (0.0, 10.0)}
        with pytest.raises(InsufficientDataError):
            dv_hop_localize(ms, anchors, 5)


class TestDvDistance:
    def test_localizes_grid(self, grid_scenario):
        positions, ranges, anchors = grid_scenario
        result = dv_distance_localize(ranges, anchors, len(positions))
        loc = result.localized & ~result.is_anchor
        assert loc.sum() >= (~result.is_anchor).sum() // 2

    def test_one_hop_neighbors_accurate(self, grid_scenario):
        positions, ranges, anchors = grid_scenario
        result = dv_distance_localize(ranges, anchors, len(positions))
        # Nodes adjacent to >=3 anchors see near-exact distances.
        # At minimum, the algorithm must not distort them grossly.
        loc = result.localized & ~result.is_anchor
        report = evaluate_localization(result.positions[loc], positions[loc])
        assert report.average_error < 15.0

    def test_path_distance_overestimates(self):
        # Straight-line chain: DV-distance to a far anchor equals the
        # path sum, which for a bent path exceeds the Euclidean truth.
        positions = np.array(
            [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]
        )
        ms = MeasurementSet()
        for i, j in [(0, 1), (1, 2), (2, 3)]:  # a bent path, no shortcuts
            d = float(np.hypot(*(positions[i] - positions[j])))
            ms.add_distance(i, j, d)
        anchors = {0: positions[0], 1: positions[1], 2: positions[2]}
        result = dv_distance_localize(ms, anchors, 4)
        # Node 3's estimated distance to anchor 0 is 30 m (path) vs
        # 10 m (true): position error must reflect that bias.
        assert result.localized[3]
        err = float(np.hypot(*(result.positions[3] - positions[3])))
        assert err > 1.0

    def test_invalid_measurements_type(self, grid_scenario):
        positions, _, anchors = grid_scenario
        with pytest.raises(ValidationError):
            dv_distance_localize([(0, 1, 5.0)], anchors, len(positions))


class TestEdgeValidation:
    """The hop/distance graph is a CSR matrix, which sums repeated
    entries: a pair listed twice would double its hop count or path
    distance without a word, so such edge lists are refused."""

    POSITIONS = np.array(
        [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0], [20.0, 10.0]]
    )
    PAIRS = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)]
    ANCHORS = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (0.0, 10.0)}

    def _edges(self, pairs):
        pairs = np.asarray(pairs, dtype=np.int64)
        dists = np.hypot(*(self.POSITIONS[pairs[:, 0]] - self.POSITIONS[pairs[:, 1]]).T)
        return EdgeList(pairs=pairs, distances=dists, weights=np.ones(len(pairs)))

    @pytest.mark.parametrize("localizer", [dv_hop_localize, dv_distance_localize])
    def test_distinct_pairs_accepted(self, localizer):
        result = localizer(self._edges(self.PAIRS), self.ANCHORS, 5)
        assert result.localized.all()

    @pytest.mark.parametrize("localizer", [dv_hop_localize, dv_distance_localize])
    @pytest.mark.parametrize(
        "extra", [(2, 3), (3, 2)], ids=["same-order", "reversed"]
    )
    def test_duplicate_pair_rejected(self, localizer, extra):
        with pytest.raises(ValidationError, match="duplicate edge"):
            localizer(self._edges(self.PAIRS + [extra]), self.ANCHORS, 5)

    @pytest.mark.parametrize("localizer", [dv_hop_localize, dv_distance_localize])
    def test_self_loop_rejected(self, localizer):
        pairs = np.asarray(self.PAIRS + [(3, 3)], dtype=np.int64)
        edges = EdgeList(
            pairs=pairs,
            distances=np.append(self._edges(self.PAIRS).distances, 0.0),
            weights=np.ones(len(pairs)),
        )
        with pytest.raises(ValidationError, match="self-loop"):
            localizer(edges, self.ANCHORS, 5)


class TestEdgeDistanceValidation:
    """DV-distance sums measured lengths with scipy's Dijkstra, which does
    not stop on a negative edge (it keeps allocating), so such lengths
    are refused before the search.  DV-hop counts hops and reads none."""

    POSITIONS = TestEdgeValidation.POSITIONS
    ANCHORS = TestEdgeValidation.ANCHORS

    def _edges(self, bad):
        edges = TestEdgeValidation()._edges(TestEdgeValidation.PAIRS)
        distances = edges.distances.copy()
        distances[2] = bad
        return EdgeList(pairs=edges.pairs, distances=distances, weights=edges.weights)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_dv_distance_rejects_before_the_search(self, bad, monkeypatch):
        from repro.core import aps

        def no_search(*args, **kwargs):
            raise AssertionError("shortest-path search reached with an unusable length")

        monkeypatch.setattr(aps, "_shortest_paths", no_search)
        with pytest.raises(ValidationError, match="finite and >= 0"):
            dv_distance_localize(self._edges(bad), self.ANCHORS, 5)

    def test_dv_hop_ignores_lengths(self):
        edges = TestEdgeValidation()._edges(TestEdgeValidation.PAIRS)
        expected = dv_hop_localize(edges, self.ANCHORS, 5)
        result = dv_hop_localize(self._edges(-1.0), self.ANCHORS, 5)
        assert result.positions.tobytes() == expected.positions.tobytes()
        assert (result.localized == expected.localized).all()


class TestAnisotropyClaim:
    def test_dv_hop_degrades_on_bent_topology(self):
        """Section 2's claim: DV-hop suffers on anisotropic layouts."""
        positions = square_grid(6, 6, spacing_m=10.0)
        n = len(positions)
        iso_ranges = gaussian_ranges(positions, max_range_m=12.0, sigma_m=0.1, rng=3)
        iso_anchors = {int(i): positions[i] for i in spread_anchors(positions, 6)}
        iso = dv_hop_localize(iso_ranges, iso_anchors, n)
        iso_loc = iso.localized & ~iso.is_anchor
        iso_err = evaluate_localization(
            iso.positions[iso_loc], positions[iso_loc]
        ).average_error

        keep = [
            i
            for i in range(n)
            if not (15.0 < positions[i][0] < 45.0 and positions[i][1] > 15.0)
        ]
        c_pos = positions[keep]
        c_ranges = gaussian_ranges(c_pos, max_range_m=12.0, sigma_m=0.1, rng=3)
        c_anchors = {int(i): c_pos[i] for i in spread_anchors(c_pos, 6)}
        aniso = dv_hop_localize(c_ranges, c_anchors, len(c_pos))
        a_loc = aniso.localized & ~aniso.is_anchor
        aniso_err = evaluate_localization(
            aniso.positions[a_loc], c_pos[a_loc]
        ).average_error

        assert aniso_err > 1.5 * iso_err
