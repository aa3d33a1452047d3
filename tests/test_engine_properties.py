"""Property-style invariance tests on randomized seeded inputs.

Invariants the localization stack must honor regardless of input
presentation:

* the intersection consistency filter depends on the anchor *set*, not
  the order anchors are listed in (permutation equivariance);
* ``lss_localize_robust`` depends on the network, not on how nodes are
  numbered — relabeling nodes relabels the solution;
* the evaluation error metrics are invariant under rigid motion of an
  aligned (anchor-free) estimate, since the paper's protocol aligns
  before measuring.
"""

import numpy as np
import pytest

from repro.core import evaluate_localization, lss_localize_robust, LssConfig
from repro.core.geometry import apply_transform, rigid_transform_matrix
from repro.core.measurements import EdgeList
from repro.core.multilateration import intersection_consistency_filter
from repro.deploy import uniform_random_layout
from repro.engine.batch import _batch_consistency_keep
from repro.ranging import gaussian_ranges


def _batched_filter(anchors, dists):
    """The network solver's batched consistency filter on a batch of one."""
    valid = np.ones((1, anchors.shape[0]), dtype=bool)
    return np.flatnonzero(_batch_consistency_keep(anchors[None], dists[None], valid, 1.0)[0])


def _anchor_problem(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(4, 8))
    anchors = rng.uniform(0, 30, (k, 2))
    target = rng.uniform(5, 25, 2)
    dists = np.abs(np.hypot(*(anchors - target).T) + rng.normal(0, 0.3, k))
    if rng.random() < 0.5:
        dists[int(rng.integers(k))] *= 1.4
    return rng, anchors, dists


class TestConsistencyFilterPermutationInvariance:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "filter_fn", [intersection_consistency_filter, _batched_filter]
    )
    def test_kept_set_is_permutation_equivariant(self, seed, filter_fn):
        rng, anchors, dists = _anchor_problem(seed)
        kept = filter_fn(anchors, dists)
        perm = rng.permutation(anchors.shape[0])
        kept_perm = filter_fn(anchors[perm], dists[perm])
        # Map permuted indices back to original labels.
        assert sorted(perm[kept_perm]) == sorted(kept)


def _lss_problem(seed, n_nodes=14):
    rng = np.random.default_rng(seed)
    positions = uniform_random_layout(
        n_nodes, width_m=40.0, height_m=40.0, min_separation_m=4.0, rng=rng
    )
    ranges = gaussian_ranges(positions, max_range_m=20.0, sigma_m=0.3, rng=rng)
    edges = ranges.to_edge_list()
    initial = positions + rng.normal(0, 2.0, positions.shape)
    return positions, edges, initial


def _relabel_edges(edges, perm):
    """Relabel edge endpoints by node permutation, keeping row order."""
    pairs = perm[edges.pairs]
    pairs = np.sort(pairs, axis=1)
    return EdgeList(pairs=pairs, distances=edges.distances, weights=edges.weights)


class TestLssRobustNodeOrderInvariance:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_relabeling_nodes_relabels_solution(self, seed):
        positions, edges, initial = _lss_problem(seed)
        n = positions.shape[0]
        config = LssConfig(min_spacing_m=4.0, restarts=1, max_epochs=400)
        base = lss_localize_robust(edges, n, config=config, initial=initial, rng=0)

        rng = np.random.default_rng(seed + 100)
        perm = rng.permutation(n)  # old label i -> new label perm[i]
        permuted_initial = np.empty_like(initial)
        permuted_initial[perm] = initial
        permuted = lss_localize_robust(
            _relabel_edges(edges, perm),
            n,
            config=config,
            initial=permuted_initial,
            rng=0,
        )
        assert permuted.positions[perm] == pytest.approx(base.positions, abs=1e-6)
        assert permuted.error == pytest.approx(base.error, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_error_metrics_invariant_under_relabeling(self, seed):
        positions, edges, initial = _lss_problem(seed)
        n = positions.shape[0]
        config = LssConfig(min_spacing_m=4.0, restarts=1, max_epochs=400)
        base = lss_localize_robust(edges, n, config=config, initial=initial, rng=0)
        report = evaluate_localization(base.positions, positions, align=True)

        rng = np.random.default_rng(seed + 200)
        perm = rng.permutation(n)
        # Permuting estimate and truth together (relabeling the nodes)
        # leaves every statistic unchanged.
        shuffled = evaluate_localization(
            base.positions[perm], positions[perm], align=True
        )
        assert shuffled.average_error == pytest.approx(report.average_error, rel=1e-9)
        assert shuffled.median_error == pytest.approx(report.median_error, rel=1e-9)
        assert shuffled.max_error == pytest.approx(report.max_error, rel=1e-9)


class TestErrorMetricRigidMotionInvariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_aligned_error_invariant_under_rigid_motion(self, seed):
        """Translating/rotating/reflecting an anchor-free estimate must
        not change the post-alignment error statistics."""
        positions, edges, initial = _lss_problem(seed)
        n = positions.shape[0]
        config = LssConfig(min_spacing_m=4.0, restarts=1, max_epochs=300)
        result = lss_localize_robust(edges, n, config=config, initial=initial, rng=0)
        report = evaluate_localization(result.positions, positions, align=True)

        rng = np.random.default_rng(seed + 300)
        transform = rigid_transform_matrix(
            theta=float(rng.uniform(-np.pi, np.pi)),
            tx=float(rng.uniform(-50, 50)),
            ty=float(rng.uniform(-50, 50)),
            reflect=bool(rng.random() < 0.5),
        )
        moved = apply_transform(result.positions, transform)
        moved_report = evaluate_localization(moved, positions, align=True)
        assert moved_report.average_error == pytest.approx(
            report.average_error, rel=1e-6, abs=1e-9
        )
        assert moved_report.median_error == pytest.approx(
            report.median_error, rel=1e-6, abs=1e-9
        )
        assert moved_report.max_error == pytest.approx(
            report.max_error, rel=1e-6, abs=1e-9
        )
