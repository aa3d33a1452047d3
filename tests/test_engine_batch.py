"""Seeded equivalence tests: batched engine vs scalar reference paths.

The engine's parity contract (see ``repro/engine/__init__.py``) says a
batched solve and the scalar reference solve of the same problem follow
identical per-problem update rules, so their results may differ only by
floating-point reduction error.  These tests pin that contract on
fixed-seed networks across grid, random, and sparse layouts for
multilateration (``localize_network``), LSS (``lss_localize`` /
``lss_localize_multistart``), and the APS baselines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LssConfig, dv_distance_localize, dv_hop_localize, localize_network, lss_localize
from repro.core.multilateration import intersection_consistency_filter
from repro.deploy import random_anchors, square_grid, uniform_random_layout
from repro.engine.batch import (
    batch_gradient_descent,
    batch_lss_error,
    batch_lss_gradient,
    consistency_filter_fast,
    lss_localize_multistart,
    solve_multilateration_batch,
)
from repro.errors import ValidationError
from repro.ranging import gaussian_ranges

from _backend_fixtures import sha256_bytes


def _layout(kind: str, rng):
    """Fixed-seed network layouts spanning the paper's regimes."""
    if kind == "grid":
        positions = square_grid(6, 6, spacing_m=10.0)
        max_range = 16.0
    elif kind == "random":
        positions = uniform_random_layout(
            32, width_m=60.0, height_m=60.0, min_separation_m=4.0, rng=rng
        )
        max_range = 22.0
    elif kind == "sparse":
        positions = uniform_random_layout(
            30, width_m=70.0, height_m=70.0, min_separation_m=5.0, rng=rng
        )
        max_range = 15.0
    else:  # pragma: no cover - test-internal
        raise AssertionError(kind)
    ranges = gaussian_ranges(positions, max_range_m=max_range, sigma_m=0.33, rng=rng)
    return positions, ranges


LAYOUTS = ["grid", "random", "sparse"]


class TestLocalizeNetworkParity:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_batched_matches_scalar(self, layout, seed):
        rng = np.random.default_rng(seed)
        positions, ranges = _layout(layout, rng)
        n = len(positions)
        anchor_idx = random_anchors(n, max(3, n // 4), rng=rng)
        anchors = {int(i): positions[i] for i in anchor_idx}
        batched = localize_network(ranges, anchors, n)
        scalar = localize_network(ranges, anchors, n, solver="scalar")
        assert np.array_equal(batched.localized, scalar.localized)
        assert np.array_equal(batched.anchors_per_node, scalar.anchors_per_node)
        mask = batched.localized & ~batched.is_anchor
        assert batched.positions[mask] == pytest.approx(
            scalar.positions[mask], abs=1e-5
        )

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_progressive_coverage_matches_scalar(self, layout):
        # Jacobi (batched, round-wise) vs Gauss-Seidel (scalar, in-round)
        # promotion: intermediate estimates legitimately differ, but both
        # must extend the plain coverage and land on (nearly) the same
        # localized set within the round budget.
        rng = np.random.default_rng(3)
        positions, ranges = _layout(layout, rng)
        n = len(positions)
        anchor_idx = random_anchors(n, 5, rng=rng)
        anchors = {int(i): positions[i] for i in anchor_idx}
        plain = localize_network(ranges, anchors, n)
        batched = localize_network(ranges, anchors, n, progressive=True)
        scalar = localize_network(ranges, anchors, n, progressive=True, solver="scalar")
        assert np.all(batched.localized[plain.localized])
        assert np.all(scalar.localized[plain.localized])
        assert int((batched.localized != scalar.localized).sum()) <= 2

    def test_unknown_solver_rejected(self):
        rng = np.random.default_rng(0)
        positions, ranges = _layout("grid", rng)
        with pytest.raises(ValidationError):
            localize_network(ranges, {0: positions[0]}, len(positions), solver="sgd")

    @pytest.mark.parametrize("solver", ["gradient", "scalar", "lm"])
    def test_min_anchors_below_three_rejected(self, solver):
        # The batched path must enforce the same planar-solvability
        # floor as the scalar path (a 2-anchor fix is ambiguous).
        rng = np.random.default_rng(0)
        positions, ranges = _layout("grid", rng)
        with pytest.raises(ValidationError):
            localize_network(
                ranges, {0: positions[0]}, len(positions),
                solver=solver, min_anchors=2,
            )


class TestBatchKernelParity:
    def test_batch_descent_matches_scalar_solver(self):
        from repro.core.multilateration import _gradient_descent_solve

        rng = np.random.default_rng(5)
        n_problems, max_k = 12, 7
        anchor_counts = rng.integers(3, max_k + 1, size=n_problems)
        anchors = np.zeros((n_problems, max_k, 2))
        dists = np.zeros((n_problems, max_k))
        weights = np.zeros((n_problems, max_k))
        valid = np.zeros((n_problems, max_k), dtype=bool)
        initial = np.zeros((n_problems, 2))
        expected = []
        for b in range(n_problems):
            k = int(anchor_counts[b])
            a = rng.uniform(0, 40, (k, 2))
            target = rng.uniform(5, 35, 2)
            d = np.hypot(*(a - target).T) + rng.normal(0, 0.2, k)
            d = np.abs(d)
            w = rng.uniform(0.5, 1.5, k)
            start = a.mean(axis=0)
            anchors[b, :k] = a
            dists[b, :k] = d
            weights[b, :k] = w
            valid[b, :k] = True
            initial[b] = start
            expected.append(_gradient_descent_solve(a, d, w, start))
        pos, res = batch_gradient_descent(anchors, dists, weights, valid, initial)
        for b in range(n_problems):
            assert pos[b] == pytest.approx(expected[b][0], abs=1e-6)
            assert res[b] == pytest.approx(expected[b][1], rel=1e-6, abs=1e-9)

    def test_solve_batch_flags_degenerate_problems(self):
        line = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        good = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]])
        target = np.array([7.0, 11.0])
        good_d = np.hypot(*(good - target).T)
        pos, solved, res = solve_multilateration_batch(
            [line, good],
            [np.array([5.0, 5.0, 15.0]), good_d],
            [np.ones(3), np.ones(4)],
            consistency_check=False,
        )
        assert not solved[0] and np.isnan(pos[0]).all()
        assert solved[1] and pos[1] == pytest.approx(target, abs=1e-4)
        assert np.isfinite(res[1])


class TestConsistencyFilterParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_fast_filter_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 8))
        anchors = rng.uniform(0, 30, (k, 2))
        target = rng.uniform(5, 25, 2)
        dists = np.hypot(*(anchors - target).T) + rng.normal(0, 0.3, k)
        dists = np.abs(dists)
        if rng.random() < 0.5:
            dists[int(rng.integers(k))] *= 1.5  # plant an outlier range
        reference = intersection_consistency_filter(anchors, dists)
        fast = consistency_filter_fast(anchors, dists)
        assert list(fast) == list(reference)


class TestLssParity:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_gd_backend_matches_gd_scalar(self, layout):
        rng = np.random.default_rng(2)
        positions, ranges = _layout(layout, rng)
        n = len(positions)
        batched_cfg = LssConfig(min_spacing_m=8.0, restarts=2, max_epochs=400)
        scalar_cfg = LssConfig(
            min_spacing_m=8.0, restarts=2, max_epochs=400, backend="gd-scalar"
        )
        batched = lss_localize(ranges, n, config=batched_cfg, rng=11)
        scalar = lss_localize(ranges, n, config=scalar_cfg, rng=11)
        assert batched.error == pytest.approx(scalar.error, rel=1e-9)
        assert batched.positions == pytest.approx(scalar.positions, abs=1e-7)
        assert batched.epochs_run == scalar.epochs_run
        assert np.asarray(batched.error_trace) == pytest.approx(
            np.asarray(scalar.error_trace), rel=1e-9
        )

    def test_batch_objective_and_gradient_match_scalar(self):
        from repro.core.lss import _constraint_pairs, lss_error, lss_gradient

        rng = np.random.default_rng(9)
        positions, ranges = _layout("random", rng)
        n = len(positions)
        edges = ranges.to_edge_list()
        pairs = _constraint_pairs(n, edges.pairs)
        configs = rng.uniform(0, 60, (4, n, 2))
        errors = batch_lss_error(
            configs, edges, constraint_pairs=pairs, min_spacing_m=6.0
        )
        grads = batch_lss_gradient(
            configs, edges, constraint_pairs=pairs, min_spacing_m=6.0
        )
        for b in range(4):
            assert errors[b] == pytest.approx(
                lss_error(configs[b], edges, constraint_pairs=pairs, min_spacing_m=6.0),
                rel=1e-12,
            )
            assert grads[b] == pytest.approx(
                lss_gradient(
                    configs[b], edges, constraint_pairs=pairs, min_spacing_m=6.0
                ),
                rel=1e-9,
                abs=1e-9,
            )

    def test_multistart_matches_sequential_runs(self):
        rng = np.random.default_rng(4)
        positions, ranges = _layout("grid", rng)
        n = len(positions)
        config = LssConfig(min_spacing_m=8.0, restarts=3, max_epochs=300)
        seeds = [21, 22, 23]
        stacked = lss_localize_multistart(ranges, n, config=config, seeds=seeds)
        for result, seed in zip(stacked, seeds):
            reference = lss_localize(ranges, n, config=config, rng=seed)
            assert result.error == pytest.approx(reference.error, rel=1e-9)
            assert result.positions == pytest.approx(reference.positions, abs=1e-6)
            assert result.round_boundaries == reference.round_boundaries
            assert result.epochs_run == reference.epochs_run

    def test_multistart_validates_inputs(self):
        rng = np.random.default_rng(4)
        positions, ranges = _layout("grid", rng)
        n = len(positions)
        with pytest.raises(ValidationError):
            lss_localize_multistart(ranges, n, seeds=[])
        with pytest.raises(ValidationError):
            lss_localize_multistart(
                ranges, n, config=LssConfig(backend="lbfgs"), seeds=[1]
            )

    def test_multistart_respects_pins(self):
        rng = np.random.default_rng(4)
        positions, ranges = _layout("grid", rng)
        n = len(positions)
        config = LssConfig(min_spacing_m=8.0, restarts=2, max_epochs=200)
        fixed = {0: positions[0], 1: positions[1]}
        results = lss_localize_multistart(
            ranges, n, config=config, seeds=[5, 6], fixed_positions=fixed
        )
        for result in results:
            assert np.allclose(result.positions[0], positions[0])
            assert np.allclose(result.positions[1], positions[1])


class TestApsParity:
    @pytest.mark.parametrize("localizer", [dv_hop_localize, dv_distance_localize])
    @pytest.mark.parametrize("layout", ["grid", "random"])
    def test_batched_gradient_matches_scalar(self, localizer, layout):
        rng = np.random.default_rng(13)
        positions, ranges = _layout(layout, rng)
        n = len(positions)
        anchor_idx = random_anchors(n, 6, rng=rng)
        anchors = {int(i): positions[i] for i in anchor_idx}
        batched = localizer(ranges, anchors, n, solver="gradient")
        scalar = localizer(ranges, anchors, n, solver="scalar")
        assert np.array_equal(batched.localized, scalar.localized)
        assert np.array_equal(batched.anchors_per_node, scalar.anchors_per_node)
        mask = batched.localized & ~batched.is_anchor
        assert batched.positions[mask] == pytest.approx(
            scalar.positions[mask], abs=1e-5
        )

    def test_unknown_solver_rejected(self):
        rng = np.random.default_rng(13)
        positions, ranges = _layout("grid", rng)
        n = len(positions)
        anchor_idx = random_anchors(n, 6, rng=rng)
        anchors = {int(i): positions[i] for i in anchor_idx}
        with pytest.raises(ValidationError):
            dv_hop_localize(ranges, anchors, n, solver="sgd")

    def test_min_anchors_below_three_rejected(self):
        rng = np.random.default_rng(13)
        positions, ranges = _layout("grid", rng)
        n = len(positions)
        anchor_idx = random_anchors(n, 6, rng=rng)
        anchors = {int(i): positions[i] for i in anchor_idx}
        with pytest.raises(ValidationError):
            dv_hop_localize(ranges, anchors, n, min_anchors=2)


class TestPaddedLssKernels:
    """Heterogeneous padded kernels vs the scalar LSS reference."""

    @staticmethod
    def _random_problems(rng, n_problems=5):
        from repro.core.measurements import EdgeList

        problems = []
        for _ in range(n_problems):
            n = int(rng.integers(4, 9))
            positions = rng.uniform(0.0, 20.0, size=(n, 2))
            iu = np.triu_indices(n, k=1)
            pairs = np.stack(iu, axis=1)
            keep = rng.random(pairs.shape[0]) < 0.7
            if keep.sum() < 3:
                keep[:3] = True
            pairs = pairs[keep]
            diff = positions[pairs[:, 0]] - positions[pairs[:, 1]]
            dists = np.hypot(diff[:, 0], diff[:, 1]) + rng.normal(0, 0.1, len(pairs))
            weights = rng.choice([0.5, 1.0], size=len(pairs))
            edges = EdgeList(
                pairs=pairs.astype(np.int64), distances=dists, weights=weights
            )
            problems.append((n, edges, rng.uniform(0.0, 20.0, size=(n, 2))))
        return problems

    @staticmethod
    def _pad(problems, min_spacing_m=None):
        from repro.core.lss import _constraint_pairs

        B = len(problems)
        N = max(p[0] for p in problems)
        E = max(len(p[1]) for p in problems)
        pts = np.zeros((B, N, 2))
        pairs = np.zeros((B, E, 2), dtype=np.int64)
        dists = np.zeros((B, E))
        weights = np.zeros((B, E))
        cpairs = cvalid = None
        if min_spacing_m is not None:
            constraints = [_constraint_pairs(n, e.pairs) for n, e, _ in problems]
            C = max(c.shape[0] for c in constraints)
            cpairs = np.zeros((B, C, 2), dtype=np.int64)
            cvalid = np.zeros((B, C), dtype=bool)
            for b, c in enumerate(constraints):
                cpairs[b, : c.shape[0]] = c
                cvalid[b, : c.shape[0]] = True
        for b, (n, edges, initial) in enumerate(problems):
            pts[b, :n] = initial
            pairs[b, : len(edges)] = edges.pairs
            dists[b, : len(edges)] = edges.distances
            weights[b, : len(edges)] = edges.weights
        return pts, pairs, dists, weights, cpairs, cvalid

    @pytest.mark.parametrize("min_spacing_m", [None, 6.0])
    def test_padded_error_and_gradient_match_scalar(self, min_spacing_m):
        from repro.core.lss import _constraint_pairs, lss_error, lss_gradient
        from repro.engine.batch import (
            batch_lss_error_padded,
            batch_lss_gradient_padded,
        )

        rng = np.random.default_rng(11)
        problems = self._random_problems(rng)
        pts, pairs, dists, weights, cpairs, cvalid = self._pad(
            problems, min_spacing_m
        )
        errors = batch_lss_error_padded(
            pts, pairs, dists, weights,
            constraint_pairs=cpairs, constraint_valid=cvalid,
            min_spacing_m=min_spacing_m,
        )
        grads = batch_lss_gradient_padded(
            pts, pairs, dists, weights,
            constraint_pairs=cpairs, constraint_valid=cvalid,
            min_spacing_m=min_spacing_m,
        )
        for b, (n, edges, initial) in enumerate(problems):
            constraints = (
                _constraint_pairs(n, edges.pairs) if min_spacing_m is not None else None
            )
            expected_error = lss_error(
                initial, edges,
                constraint_pairs=constraints, min_spacing_m=min_spacing_m,
            )
            expected_grad = lss_gradient(
                initial, edges,
                constraint_pairs=constraints, min_spacing_m=min_spacing_m,
            )
            assert errors[b] == pytest.approx(expected_error, rel=1e-12)
            np.testing.assert_allclose(grads[b, :n], expected_grad, atol=1e-9)
            # Padded node rows beyond each problem feel zero force.
            assert np.all(grads[b, n:] == 0.0)

    def test_padded_descend_matches_batch_of_one(self):
        from repro.engine.batch import batch_lss_descend, batch_lss_descend_padded

        rng = np.random.default_rng(5)
        problems = self._random_problems(rng, n_problems=3)
        pts, pairs, dists, weights, _, _ = self._pad(problems)
        out, errors, converged = batch_lss_descend_padded(
            pts, pairs, dists, weights, step_size=0.02, max_epochs=300,
            tolerance=1e-7,
        )
        for b, (n, edges, initial) in enumerate(problems):
            single, single_err, single_conv = batch_lss_descend(
                initial[None, :, :], edges, None,
                min_spacing_m=None, constraint_weight=0.0, step_size=0.02,
                max_epochs=300, tolerance=1e-7,
                free_mask=np.ones(n, dtype=bool),
            )
            assert errors[b] == pytest.approx(float(single_err[0]), rel=1e-6)
            np.testing.assert_allclose(out[b, :n], single[0], atol=1e-4)
            assert bool(converged[b]) == bool(single_conv[0])

    def test_solve_local_lss_stack_matches_sequential_lss(self):
        from repro.core import LssConfig, lss_localize
        from repro.engine.localmaps import LocalLssProblem, solve_local_lss_stack

        rng = np.random.default_rng(3)
        problems = self._random_problems(rng, n_problems=4)
        config = LssConfig(restarts=2, max_epochs=300)
        stack = [
            LocalLssProblem(n_nodes=n, edges=edges, initial=initial)
            for n, edges, initial in problems
        ]
        solutions = solve_local_lss_stack(stack, config=config, rng=7)
        # Same initial + same per-problem restart draws consumed in the
        # same (problem-major) order: the sequential reference is
        # lss_localize per problem sharing one generator.
        reference_rng = np.random.default_rng(7)
        for (n, edges, initial), solution in zip(problems, solutions):
            expected = lss_localize(
                edges, n, config=config, initial=initial, rng=reference_rng
            )
            assert solution.error == pytest.approx(expected.error, rel=1e-5)
            np.testing.assert_allclose(
                solution.positions, expected.positions, atol=1e-3
            )

    @pytest.mark.parametrize("n_problems", [2, 0])
    def test_constraint_pairs_without_mask_rejected(self, n_problems):
        from repro.engine.batch import (
            batch_lss_descend_padded,
            batch_lss_error_padded,
            batch_lss_gradient_padded,
        )

        rng = np.random.default_rng(2)
        problems = self._random_problems(rng, n_problems=2)
        stacks = self._pad(problems, min_spacing_m=6.0)[:5]
        # An empty stack is validated too, not returned early.
        pts, pairs, dists, weights, cpairs = (a[:n_problems] for a in stacks)
        for kernel in (
            batch_lss_error_padded,
            batch_lss_gradient_padded,
            batch_lss_descend_padded,
        ):
            with pytest.raises(ValidationError, match="constraint_valid"):
                kernel(
                    pts, pairs, dists, weights,
                    constraint_pairs=cpairs, min_spacing_m=6.0,
                )

    def test_stack_validates_inputs(self):
        from repro.core.measurements import EdgeList
        from repro.engine.localmaps import LocalLssProblem, solve_local_lss_stack

        assert solve_local_lss_stack([], rng=0) == []
        bad = LocalLssProblem(
            n_nodes=2,
            edges=EdgeList(
                pairs=np.array([[0, 5]]), distances=np.array([1.0]),
                weights=np.array([1.0]),
            ),
        )
        with pytest.raises(ValidationError):
            solve_local_lss_stack([bad], rng=0)


class TestLssDescentBytePins:
    """SHA-256 pins of descent paths the golden parity pins do not reach.

    Frozen from the two-pass kernels (separate gradient and objective
    passes, ``np.add.at`` scatter in the shared-edge family).  Any
    kernel rewrite must reproduce them byte for byte: trajectories,
    per-epoch traces and epoch/compaction counts included.
    """

    #: Constrained shared-edge descent with traces and a pinned node;
    #: B=1 is the ``town-lss`` path, B=4 the multistart path.
    SHARED_EDGE_PINS = {
        1: "f7a0bf9c71f6be7887bbd8f33b93212c2198742d8831c64a2e0adfe723fb3edb",
        4: "1b653a2d00e7fa43a077440d0be541f32337a2a7d235f24e0e12bb38b7c8e33a",
    }
    #: Constrained padded descent whose problems finish at different
    #: epochs, so the working batch is compacted several times.
    PADDED_PIN = "bdb8730e806a3e7f3704193bf8c090abd8f4076847eefb73e44af96d75ecd8a0"
    PADDED_COMPACTIONS = 7

    @staticmethod
    def _constrained_network():
        from repro.core.lss import _constraint_pairs, _prepare_edges

        rng = np.random.default_rng(2005)
        n_nodes = 14
        positions = rng.uniform(0.0, 30.0, size=(n_nodes, 2))
        edges = _prepare_edges(
            gaussian_ranges(positions, max_range_m=14.0, sigma_m=0.33, rng=rng),
            n_nodes,
        )
        return n_nodes, edges, _constraint_pairs(n_nodes, edges.pairs)

    @pytest.mark.parametrize("n_configs", [1, 4])
    def test_constrained_shared_edge_descent_pin(self, n_configs):
        from repro.engine.batch import batch_lss_descend

        n_nodes, edges, constraints = self._constrained_network()
        assert constraints.shape[0] > 0
        configs = np.random.default_rng(n_configs).uniform(
            0.0, 30.0, size=(n_configs, n_nodes, 2)
        )
        start = configs.copy()
        free_mask = np.ones(n_nodes, dtype=bool)
        free_mask[3] = False
        traces = [[] for _ in range(n_configs)]
        pts, err, conv = batch_lss_descend(
            configs,
            edges,
            constraints,
            min_spacing_m=8.0,
            constraint_weight=10.0,
            step_size=0.02,
            max_epochs=400,
            tolerance=1e-7,
            free_mask=free_mask,
            traces=traces,
        )
        # The pinned row never moves, and the input stack is not written.
        np.testing.assert_array_equal(pts[:, 3], start[:, 3])
        np.testing.assert_array_equal(configs, start)
        digest = sha256_bytes(
            pts,
            err,
            conv,
            np.array([len(t) for t in traces]),
            np.concatenate([np.asarray(t, dtype=float) for t in traces]),
        )
        assert digest == self.SHARED_EDGE_PINS[n_configs]

    def test_padded_descent_with_compactions_pin(self):
        from repro import telemetry
        from repro.engine.batch import batch_lss_descend_padded

        rng = np.random.default_rng(17)
        problems = TestPaddedLssKernels._random_problems(rng, n_problems=7)
        pts, pairs, dists, weights, cpairs, cvalid = TestPaddedLssKernels._pad(
            problems, min_spacing_m=6.0
        )
        with telemetry.recording() as rec:
            out, errors, converged = batch_lss_descend_padded(
                pts, pairs, dists, weights,
                constraint_pairs=cpairs, constraint_valid=cvalid,
                min_spacing_m=6.0, step_size=0.02, max_epochs=2000,
                tolerance=1e-7,
            )
        epochs = rec.counters["engine.batch.lss_padded_iterations"]
        compactions = rec.counters["engine.batch.lss_padded_compactions"]
        assert compactions == self.PADDED_COMPACTIONS
        assert sha256_bytes(out, errors, converged, np.array([epochs])) == self.PADDED_PIN


def _two_pass_shared_edge(pts_t, edges, constraint_pairs, min_spacing_m, constraint_weight):
    """Reference: objective and gradient as two separate passes, the
    gradient scattered by sequential ``np.add.at`` calls on ``i``, ``j``,
    ``ci`` and ``cj`` (node-major ``(n_nodes, B, 2)`` layout)."""
    i_idx, j_idx = edges.pairs[:, 0], edges.pairs[:, 1]
    diff = pts_t[i_idx] - pts_t[j_idx]
    comp = np.hypot(diff[..., 0], diff[..., 1])
    value = np.sum(edges.weights[:, None] * (comp - edges.distances[:, None]) ** 2, axis=0)
    grad_t = np.zeros(pts_t.shape)
    safe = np.maximum(comp, 1e-12)
    coeff = (2.0 * edges.weights[:, None]) * (comp - edges.distances[:, None]) / safe
    contrib = coeff[..., None] * diff
    np.add.at(grad_t, i_idx, contrib)
    np.add.at(grad_t, j_idx, -contrib)
    if min_spacing_m is not None and constraint_pairs is not None and constraint_pairs.size:
        ci, cj = constraint_pairs[:, 0], constraint_pairs[:, 1]
        cdiff = pts_t[ci] - pts_t[cj]
        ccomp = np.hypot(cdiff[..., 0], cdiff[..., 1])
        violation = np.minimum(ccomp, min_spacing_m) - min_spacing_m
        value = value + constraint_weight * np.sum(violation**2, axis=0)
        vcomp = np.maximum(ccomp, 1e-12)
        vcoeff = 2.0 * constraint_weight * (vcomp - min_spacing_m) / vcomp
        vcoeff = np.where(ccomp < min_spacing_m, vcoeff, 0.0)
        vcontrib = vcoeff[..., None] * cdiff
        np.add.at(grad_t, ci, vcontrib)
        np.add.at(grad_t, cj, -vcontrib)
    return value, grad_t


def _random_pairs(rng, n_nodes, count):
    """``count`` pairs of distinct nodes; endpoints and whole pairs repeat."""
    first = rng.integers(0, n_nodes, count)
    second = (first + rng.integers(1, n_nodes, count)) % n_nodes
    return np.stack([first, second], axis=1).astype(np.int64)


class TestFusedLssScatterOrder:
    """The fused body's ordered-bincount scatter adds every gradient
    bin's terms in the order of sequential ``np.add.at`` calls, so it is
    bytewise the two-pass reference."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(2, 9),
        n_configs=st.integers(1, 8),
        n_edges=st.integers(1, 30),
        n_constraints=st.integers(0, 20),
        min_spacing_m=st.sampled_from([None, 0.5, 8.0, 40.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_edge_fused_body_is_bytewise_two_pass(
        self, seed, n_nodes, n_configs, n_edges, n_constraints, min_spacing_m
    ):
        from repro.core.measurements import EdgeList
        from repro.engine.batch import _SharedEdgeLss

        rng = np.random.default_rng(seed)
        # Few nodes and many pairs: endpoints repeat within and across
        # the edge and constraint lists.
        edges = EdgeList(
            pairs=_random_pairs(rng, n_nodes, n_edges),
            distances=rng.uniform(0.0, 20.0, n_edges),
            weights=rng.choice([0.5, 1.0, 2.0], n_edges),
        )
        constraints = _random_pairs(rng, n_nodes, n_constraints)
        configs = rng.uniform(0.0, 20.0, size=(n_configs, n_nodes, 2))
        pts_t = np.ascontiguousarray(configs.transpose(1, 0, 2))
        # A spacing of 0.5 m is rarely violated, one of 40 m always is.
        fused = _SharedEdgeLss(
            edges, constraints, min_spacing_m, 10.0, n_nodes, n_configs
        )
        value, grad_t = fused.value_and_grad(pts_t)
        ref_value, ref_grad_t = _two_pass_shared_edge(
            pts_t, edges, constraints, min_spacing_m, 10.0
        )
        assert value.tobytes() == ref_value.tobytes()
        assert grad_t.tobytes() == ref_grad_t.tobytes()

        kwargs = dict(constraint_pairs=constraints, min_spacing_m=min_spacing_m)
        error = batch_lss_error(configs, edges, **kwargs)
        grad = batch_lss_gradient(configs, edges, **kwargs)
        assert error.tobytes() == value.tobytes()
        assert np.ascontiguousarray(grad.transpose(1, 0, 2)).tobytes() == grad_t.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_problems=st.integers(1, 8),
        min_spacing_m=st.sampled_from([None, 0.5, 8.0, 40.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_padded_fused_body_is_bytewise_two_pass(self, seed, n_problems, min_spacing_m):
        """Padded family: edge terms then constraint terms, each scattered
        per coordinate in input order, as the two-pass kernel did."""
        from repro.engine.batch import (
            _PaddedLss,
            batch_lss_error_padded,
            batch_lss_gradient_padded,
        )

        rng = np.random.default_rng(seed)
        n_nodes, n_edges, n_constraints = 6, 12, 8
        pts = rng.uniform(0.0, 20.0, size=(n_problems, n_nodes, 2))
        pairs = np.stack([_random_pairs(rng, n_nodes, n_edges) for _ in range(n_problems)])
        dists = rng.uniform(0.0, 20.0, size=(n_problems, n_edges))
        weights = rng.choice([0.0, 0.5, 1.0], size=(n_problems, n_edges))
        cpairs = np.stack([_random_pairs(rng, n_nodes, n_constraints) for _ in range(n_problems)])
        cvalid = rng.random((n_problems, n_constraints)) < 0.7

        base = np.arange(n_problems)[:, None] * n_nodes
        flat_pts = pts.reshape(-1, 2)
        fi, fj = base + pairs[..., 0], base + pairs[..., 1]
        diff = flat_pts[fi] - flat_pts[fj]
        comp = np.hypot(diff[..., 0], diff[..., 1])
        ref_value = np.sum(weights * (comp - dists) ** 2, axis=1)
        coeff = (2.0 * weights) * (comp - dists) / np.maximum(comp, 1e-12)
        terms = [(np.concatenate([fi.ravel(), fj.ravel()]), coeff[..., None] * diff)]
        if min_spacing_m is not None:
            cfi, cfj = base + cpairs[..., 0], base + cpairs[..., 1]
            cdiff = flat_pts[cfi] - flat_pts[cfj]
            ccomp = np.hypot(cdiff[..., 0], cdiff[..., 1])
            violation = np.where(cvalid, np.minimum(ccomp, min_spacing_m) - min_spacing_m, 0.0)
            ref_value = ref_value + 10.0 * np.sum(violation**2, axis=1)
            vcomp = np.maximum(ccomp, 1e-12)
            vcoeff = 2.0 * 10.0 * (vcomp - min_spacing_m) / vcomp
            vcoeff = np.where((ccomp < min_spacing_m) & cvalid, vcoeff, 0.0)
            terms.append((np.concatenate([cfi.ravel(), cfj.ravel()]), vcoeff[..., None] * cdiff))
        ref_grad = np.zeros_like(flat_pts)
        for scatter, contrib in terms:
            flat = contrib.reshape(-1, 2)
            for axis in range(2):
                signed = np.concatenate([flat[:, axis], -flat[:, axis]])
                ref_grad[:, axis] += np.bincount(
                    scatter, weights=signed, minlength=flat_pts.shape[0]
                )

        constrained = min_spacing_m is not None
        fused = _PaddedLss(
            pairs, dists, weights,
            cpairs if constrained else None, cvalid if constrained else None,
            min_spacing_m, 10.0, n_nodes,
        )
        value, grad = fused.value_and_grad(pts)
        assert value.tobytes() == ref_value.tobytes()
        assert grad.tobytes() == ref_grad.reshape(pts.shape).tobytes()

        kwargs = dict(
            constraint_pairs=cpairs if constrained else None,
            constraint_valid=cvalid if constrained else None,
            min_spacing_m=min_spacing_m,
        )
        assert batch_lss_error_padded(pts, pairs, dists, weights, **kwargs).tobytes() == value.tobytes()
        assert batch_lss_gradient_padded(pts, pairs, dists, weights, **kwargs).tobytes() == grad.tobytes()
