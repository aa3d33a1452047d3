"""Property-based tests of core algorithmic invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.evaluation import align_to_reference, localization_errors
from repro.core.geometry import apply_transform, pairwise_distances, rigid_transform_matrix
from repro.core.lss import lss_error, lss_gradient
from repro.core.measurements import EdgeList, MeasurementSet
from repro.core.mds import classical_mds
from repro.ranging.consistency import bidirectional_filter, triangle_filter
from repro.ranging.detection import detect_signal, first_windows

coords = st.floats(-100.0, 100.0, allow_nan=False)
angles = st.floats(-3.14159, 3.14159, allow_nan=False)


def _edges_for(points, max_range):
    n = len(points)
    pairs, dists = [], []
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.hypot(*(points[i] - points[j])))
            if d <= max_range:
                pairs.append((i, j))
                dists.append(d)
    if not pairs:
        return None
    return EdgeList(
        pairs=np.asarray(pairs, dtype=np.int64),
        distances=np.asarray(dists),
        weights=np.ones(len(pairs)),
    )


class TestLssObjectiveInvariances:
    @given(
        seed=st.integers(0, 1000),
        theta=angles,
        tx=coords,
        ty=coords,
        reflect=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_stress_invariant_under_rigid_motion(self, seed, theta, tx, ty, reflect):
        """E_w depends only on inter-point distances, so any rigid
        motion of a configuration leaves it unchanged."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 50, (6, 2))
        edges = _edges_for(pts, max_range=80.0)
        moved = apply_transform(pts, rigid_transform_matrix(theta, tx, ty, reflect))
        perturbed = pts + rng.normal(0, 1.0, pts.shape)
        e_orig = lss_error(perturbed, edges)
        e_moved = lss_error(
            apply_transform(perturbed, rigid_transform_matrix(theta, tx, ty, reflect)),
            edges,
        )
        assert e_moved == pytest.approx(e_orig, rel=1e-6, abs=1e-6)

    @given(seed=st.integers(0, 1000), scale=st.floats(0.5, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_gradient_scales_with_weights(self, seed, scale):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 50, (5, 2))
        edges = _edges_for(pts, max_range=80.0)
        moved = pts + rng.normal(0, 2.0, pts.shape)
        g1 = lss_gradient(moved, edges)
        heavier = EdgeList(
            pairs=edges.pairs,
            distances=edges.distances,
            weights=edges.weights * scale,
        )
        g2 = lss_gradient(moved, heavier)
        assert np.allclose(g2, scale * g1, rtol=1e-9, atol=1e-9)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_truth_is_stationary(self, seed):
        """Exact measurements: ground truth has zero stress gradient."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 50, (6, 2))
        edges = _edges_for(pts, max_range=80.0)
        assert lss_error(pts, edges) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(lss_gradient(pts, edges), 0.0, atol=1e-9)


class TestAlignmentInvariances:
    @given(seed=st.integers(0, 1000), theta=angles, tx=coords, ty=coords)
    @settings(max_examples=40, deadline=None)
    def test_alignment_recovers_any_rigid_motion(self, seed, theta, tx, ty):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 30, (5, 2))
        assume(np.max(pairwise_distances(pts)) > 1.0)
        moved = apply_transform(pts, rigid_transform_matrix(theta, tx, ty))
        aligned = align_to_reference(moved, pts)
        assert localization_errors(aligned, pts).max() < 1e-5


class TestMdsInvariances:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_mds_preserves_distances_exactly(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 40, (6, 2))
        assume(np.max(pairwise_distances(pts)) > 1.0)
        coords_out = classical_mds(pairwise_distances(pts))
        assert np.allclose(
            pairwise_distances(coords_out), pairwise_distances(pts), atol=1e-6
        )


class TestFilterProperties:
    @given(
        values=st.lists(st.floats(0.1, 30.0), min_size=1, max_size=6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_filters_never_add_measurements(self, values, seed):
        rng = np.random.default_rng(seed)
        ms = MeasurementSet()
        nodes = [0, 1, 2, 3]
        for k, v in enumerate(values):
            i, j = rng.choice(nodes, size=2, replace=False)
            ms.add_distance(int(i), int(j), float(v), round_index=k)
        for filtered in (
            bidirectional_filter(ms),
            triangle_filter(ms),
        ):
            assert len(filtered) <= len(ms)
            # Only existing pairs survive.
            assert set(filtered.undirected_pairs) <= set(ms.undirected_pairs)

    @given(values=st.lists(st.floats(1.0, 20.0), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_triangle_filter_output_is_consistent(self, values):
        """After filtering, no remaining triangle violates the check."""
        ms = MeasurementSet()
        ms.add_distance(0, 1, values[0])
        ms.add_distance(0, 2, values[1])
        ms.add_distance(1, 2, values[2])
        out = triangle_filter(ms, slack_m=0.5)
        remaining = {tuple(p) for p in out.undirected_pairs}
        if len(remaining) == 3:
            sides = sorted(values)
            assert sides[0] + sides[1] + 0.5 >= sides[2]


class TestDetectionProperties:
    @given(
        data=st.lists(st.integers(0, 10), min_size=40, max_size=120),
    )
    @settings(max_examples=50, deadline=None)
    def test_detection_implies_criterion(self, data):
        buf = np.asarray(data, dtype=np.int64)
        idx = detect_signal(buf, k=4, m=16, threshold=3)
        if idx >= 0:
            window = buf[idx : idx + 16]
            assert buf[idx] >= 3
            assert (window >= 3).sum() >= 4
        else:
            # No window may satisfy the criterion.
            for s in range(len(buf) - 16 + 1):
                w = buf[s : s + 16]
                assert not (buf[s] >= 3 and (w >= 3).sum() >= 4)

    @given(data=st.lists(st.integers(0, 3), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_first_hit_is_first(self, data):
        buf = np.asarray(data, dtype=np.int64)
        # The baseline service's detection: windows of one sample.
        idx = int(first_windows(buf[None], k=1, m=1, threshold=2)[0])
        if idx >= 0:
            assert buf[idx] >= 2
            assert np.all(buf[:idx] < 2)
        else:
            assert np.all(buf < 2)
