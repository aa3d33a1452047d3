"""Tests for repro.core.lss (centralized least squares scaling)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from repro.core import lss
from repro.core.evaluation import (
    align_to_reference,
    evaluate_localization,
    localization_errors,
)
from repro.core.lss import (
    LssConfig,
    lss_error,
    lss_gradient,
    lss_localize,
    lss_localize_robust,
)
from repro.core.measurements import EdgeList, MeasurementSet, as_edge_list
from repro.deploy import paper_grid
from repro.engine import batch
from repro.errors import InsufficientDataError, ValidationError
from repro.ranging import gaussian_ranges

from _oracles import per_configuration


def square_edges(side=10.0, with_diagonals=True):
    """Unit-square-ish test fixture: 4 nodes, known distances."""
    positions = np.array(
        [[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]]
    )
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
    if with_diagonals:
        pairs += [(0, 2), (1, 3)]
    pairs = np.asarray(pairs, dtype=np.int64)
    dists = np.hypot(
        *(positions[pairs[:, 0]] - positions[pairs[:, 1]]).T
    )
    edges = EdgeList(pairs=pairs, distances=dists, weights=np.ones(len(pairs)))
    return positions, edges


def lbfgs_localize(measurements, n_nodes, *, config, rng):
    """L-BFGS cross-check oracle for the gradient-descent solver.

    Runs :func:`lss_localize`'s own initialization and
    restart/perturbation rounds, but minimizes each round with scipy
    L-BFGS-B over :func:`lss_error` / :func:`lss_gradient` instead of
    the engine's descent (substituted for the restart driver's
    per-round seam, ``batch._lss_round``).
    """

    def lbfgs_round(pts, edges, constraint_pairs, config, trace, free_mask):
        n = pts.shape[0]
        frozen = pts.copy()
        kwargs = dict(
            constraint_pairs=constraint_pairs,
            min_spacing_m=config.min_spacing_m,
            constraint_weight=config.constraint_weight,
        )

        def fun(flat):
            p = flat.reshape(n, 2).copy()
            p[~free_mask] = frozen[~free_mask]
            value = lss_error(p, edges, **kwargs)
            grad = lss_gradient(p, edges, **kwargs)
            grad[~free_mask] = 0.0
            trace.append(value)
            return value, grad.ravel()

        result = minimize(
            fun,
            pts.ravel(),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": config.max_epochs},
        )
        out = result.x.reshape(n, 2).copy()
        out[~free_mask] = frozen[~free_mask]
        return out, float(result.fun), bool(result.success)

    with mock.patch.object(batch, "_lss_round", per_configuration(lbfgs_round)):
        return lss_localize(measurements, n_nodes, config=config, rng=rng)


class TestLssConfig:
    def test_defaults(self):
        config = LssConfig()
        assert config.min_spacing_m is None
        assert config.constraint_weight == 10.0

    def test_invalid_values(self):
        with pytest.raises(ValidationError):
            LssConfig(min_spacing_m=-1.0)
        with pytest.raises(ValidationError):
            LssConfig(max_epochs=0)
        with pytest.raises(ValidationError):
            LssConfig(restarts=0)
        with pytest.raises(ValidationError):
            LssConfig(step_size=0.0)


class TestErrorAndGradient:
    def test_error_zero_at_truth(self):
        positions, edges = square_edges()
        assert lss_error(positions, edges) == pytest.approx(0.0)

    def test_error_positive_off_truth(self):
        positions, edges = square_edges()
        assert lss_error(positions + [1.0, -2.0] * np.arange(4)[:, None], edges) > 0

    def test_error_weighted(self):
        positions, edges = square_edges()
        perturbed = positions.copy()
        perturbed[0] += [1.0, 0.0]
        base = lss_error(perturbed, edges)
        heavier = EdgeList(
            pairs=edges.pairs, distances=edges.distances, weights=edges.weights * 2
        )
        assert lss_error(perturbed, heavier) == pytest.approx(2 * base)

    def test_constraint_term_adds(self):
        positions, edges = square_edges()
        # Add a 5th node on top of node 0 with no measurements.
        pts = np.vstack([positions, positions[0] + [0.1, 0.0]])
        cpairs = np.array([[0, 4], [1, 4], [2, 4], [3, 4]])
        without = lss_error(pts, edges)
        with_constraint = lss_error(
            pts, edges, constraint_pairs=cpairs, min_spacing_m=5.0, constraint_weight=10.0
        )
        assert with_constraint > without

    def test_constraint_inactive_when_respected(self):
        positions, edges = square_edges()
        pts = np.vstack([positions, [[50.0, 50.0]]])
        cpairs = np.array([[0, 4]])
        base = lss_error(pts, edges)
        value = lss_error(
            pts, edges, constraint_pairs=cpairs, min_spacing_m=5.0, constraint_weight=10.0
        )
        assert value == pytest.approx(base)

    def test_gradient_zero_at_minimum(self):
        positions, edges = square_edges()
        grad = lss_gradient(positions, edges)
        assert np.allclose(grad, 0.0, atol=1e-9)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        positions, edges = square_edges()
        pts = positions + rng.normal(0, 1.0, positions.shape)
        cpairs = np.array([[0, 2]])
        kwargs = dict(constraint_pairs=cpairs, min_spacing_m=20.0, constraint_weight=10.0)
        grad = lss_gradient(pts, edges, **kwargs)
        eps = 1e-6
        for node in range(4):
            for axis in range(2):
                plus = pts.copy()
                plus[node, axis] += eps
                minus = pts.copy()
                minus[node, axis] -= eps
                numeric = (
                    lss_error(plus, edges, **kwargs) - lss_error(minus, edges, **kwargs)
                ) / (2 * eps)
                assert grad[node, axis] == pytest.approx(numeric, abs=1e-4)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_gradient_descent_direction_property(self, seed):
        rng = np.random.default_rng(seed)
        positions, edges = square_edges()
        pts = positions + rng.normal(0, 2.0, positions.shape)
        value = lss_error(pts, edges)
        grad = lss_gradient(pts, edges)
        if np.allclose(grad, 0):
            return
        stepped = pts - 1e-6 * grad
        assert lss_error(stepped, edges) <= value + 1e-12


class TestConstraintPairs:
    """The soft-constraint set is every unmeasured pair ``i < j``, in
    ``triu_indices`` order."""

    @pytest.mark.parametrize(
        "pairs",
        [
            [[0, 1], [1, 3], [2, 3]],
            [[1, 0], [3, 1], [3, 2]],
            [[1, 0], [1, 3], [3, 2], [0, 1]],
        ],
    )
    def test_measured_pairs_count_in_either_orientation(self, pairs):
        from repro.core.lss import _constraint_pairs

        got = _constraint_pairs(4, np.array(pairs))
        assert got.dtype == np.int64 and got.shape == (3, 2)
        assert got.tolist() == [[0, 2], [0, 3], [1, 2]]

    def test_reversed_edge_list_gets_the_canonical_set(self):
        """A caller-built ``EdgeList`` with ``(j, i)`` rows constrains
        the same pairs as its canonical twin: no measured pair is also
        a soft-constraint pair."""
        from repro.core.lss import _setup

        rng = np.random.default_rng(1)
        positions = rng.uniform(0.0, 30.0, size=(10, 2))
        edges = as_edge_list(gaussian_ranges(positions, max_range_m=15.0, sigma_m=0.3, rng=rng))
        reversed_edges = EdgeList(edges.pairs[:, ::-1].copy(), edges.distances, edges.weights)
        config = LssConfig(min_spacing_m=3.0)
        canonical = _setup(edges, 10, config, None, None).constraint_pairs
        flipped = _setup(reversed_edges, 10, config, None, None).constraint_pairs
        assert flipped.tobytes() == canonical.tobytes()
        measured = {tuple(sorted(p)) for p in edges.pairs.tolist()}
        assert measured.isdisjoint(map(tuple, flipped.tolist()))
        assert len(measured) + len(flipped) == 10 * 9 // 2

    def test_no_unmeasured_pair(self):
        from repro.core.lss import _constraint_pairs

        full = np.stack(np.triu_indices(4, k=1), axis=1)
        empty = _constraint_pairs(4, full)
        assert empty.shape == (0, 2) and empty.dtype == np.int64


class TestLssLocalize:
    def test_recovers_square(self):
        positions, edges = square_edges()
        result = lss_localize(edges, 4, rng=0)
        aligned = align_to_reference(result.positions, positions)
        assert localization_errors(aligned, positions).max() < 0.05

    def test_initial_configuration_used(self):
        positions, edges = square_edges()
        result = lss_localize(edges, 4, initial=positions, rng=0)
        assert result.error < 1e-6

    def test_initial_shape_checked(self):
        _, edges = square_edges()
        with pytest.raises(ValidationError):
            lss_localize(edges, 4, initial=np.zeros((3, 2)))

    def test_empty_measurements_rejected(self):
        empty = EdgeList(
            pairs=np.zeros((0, 2), dtype=np.int64),
            distances=np.zeros(0),
            weights=np.zeros(0),
        )
        with pytest.raises(InsufficientDataError):
            lss_localize(empty, 4)

    def test_edge_index_out_of_range(self):
        edges = EdgeList(
            pairs=np.array([[0, 9]]), distances=np.array([1.0]), weights=np.ones(1)
        )
        with pytest.raises(ValidationError):
            lss_localize(edges, 4)

    def test_measurement_set_input(self):
        positions, edges = square_edges()
        ms = MeasurementSet.from_edge_arrays(edges.pairs, edges.distances)
        result = lss_localize(ms, 4, rng=0)
        aligned = align_to_reference(result.positions, positions)
        assert localization_errors(aligned, positions).max() < 0.05

    def test_invalid_measurement_type(self):
        with pytest.raises(ValidationError):
            lss_localize({"pairs": []}, 4)

    def test_trace_monotone_within_round(self):
        positions, edges = square_edges()
        config = LssConfig(restarts=1, max_epochs=200)
        result = lss_localize(edges, 4, config=config, rng=0)
        trace = result.error_trace
        assert len(trace) > 1
        # The per-epoch best error never increases inside a round.
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))

    def test_round_boundaries_recorded(self):
        _, edges = square_edges()
        config = LssConfig(restarts=3, max_epochs=50)
        result = lss_localize(edges, 4, config=config, rng=0)
        assert len(result.round_boundaries) == 3
        assert result.round_boundaries[0] == 0

    def test_fixed_positions_pinned(self):
        positions, edges = square_edges()
        fixed = {0: positions[0], 1: positions[1]}
        result = lss_localize(edges, 4, fixed_positions=fixed, rng=0)
        assert np.allclose(result.positions[0], positions[0])
        assert np.allclose(result.positions[1], positions[1])
        # With two pins the solution is anchored up to reflection about
        # the pinned axis; distances must still be honored.
        assert result.stress < 1e-4

    def test_fixed_position_bad_id(self):
        _, edges = square_edges()
        with pytest.raises(ValidationError):
            lss_localize(edges, 4, fixed_positions={7: (0, 0)})

    def test_fixed_position_bad_shape(self):
        _, edges = square_edges()
        with pytest.raises(ValidationError):
            lss_localize(edges, 4, fixed_positions={0: (0, 0, 0)})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_fixed_position_must_be_finite(self, bad):
        """Centralized and multi-seed LSS share one setup, so both reject
        a non-finite pin before any draw."""
        from repro.engine import lss_localize_multistart

        _, edges = square_edges()
        with pytest.raises(ValidationError, match="finite"):
            lss_localize(edges, 4, fixed_positions={0: (bad, 0.0)})
        with pytest.raises(ValidationError, match="finite"):
            lss_localize_multistart(edges, 4, seeds=[0, 1], fixed_positions={0: (0.0, bad)})

    def test_lbfgs_oracle_agrees(self):
        positions, edges = square_edges()
        result = lbfgs_localize(edges, 4, config=LssConfig(restarts=8), rng=0)
        aligned = align_to_reference(result.positions, positions)
        assert localization_errors(aligned, positions).max() < 0.05

    def test_gd_agrees_with_lbfgs_oracle_on_paper_grid(self):
        """Gradient descent (paper) and L-BFGS reach the same optimum
        on the 47-node grid."""
        positions = paper_grid(47)
        ranges = gaussian_ranges(positions, max_range_m=22.0, sigma_m=0.33, rng=7)
        n = len(positions)
        config = LssConfig(min_spacing_m=9.0)
        gd = lss_localize(ranges, n, config=config, rng=7)
        lbfgs = lbfgs_localize(ranges, n, config=config, rng=7)
        err_gd = evaluate_localization(gd.positions, positions, align=True).average_error
        err_lb = evaluate_localization(lbfgs.positions, positions, align=True).average_error
        assert err_gd < 1.0 and err_lb < 1.0
        assert abs(err_gd - err_lb) < 0.5

    def test_stress_excludes_constraint(self):
        positions, edges = square_edges()
        config = LssConfig(min_spacing_m=9.0, restarts=2, max_epochs=300)
        result = lss_localize(edges, 4, config=config, rng=0)
        assert result.stress <= result.error + 1e-9

    def test_deterministic_given_seed(self):
        _, edges = square_edges()
        a = lss_localize(edges, 4, rng=123)
        b = lss_localize(edges, 4, rng=123)
        assert np.allclose(a.positions, b.positions)

    def test_constraint_helps_on_sparse_grid(self):
        # 4x4 grid with only nearest-neighbor distances: the constraint
        # pins the global structure where plain stress wanders.
        xs, ys = np.meshgrid(np.arange(4) * 10.0, np.arange(4) * 10.0)
        positions = np.stack([xs.ravel(), ys.ravel()], axis=1)
        pairs = []
        for i in range(16):
            for j in range(i + 1, 16):
                if np.hypot(*(positions[i] - positions[j])) <= 15.0:
                    pairs.append((i, j))
        pairs = np.asarray(pairs)
        dists = np.hypot(*(positions[pairs[:, 0]] - positions[pairs[:, 1]]).T)
        edges = EdgeList(pairs=pairs, distances=dists, weights=np.ones(len(pairs)))
        con = lss_localize(
            edges, 16, config=LssConfig(min_spacing_m=10.0, restarts=6), rng=3
        )
        aligned = align_to_reference(con.positions, positions)
        assert localization_errors(aligned, positions).mean() < 1.0


class TestRobustLss:
    def test_trims_garbage_edge(self):
        positions, edges = square_edges()
        # Append a garbage low-confidence edge.
        bad = EdgeList(
            pairs=np.vstack([edges.pairs, [[0, 2]]]),
            distances=np.append(edges.distances, 1.0),  # true diagonal ~14.1
            weights=np.append(edges.weights, 0.15),
        )
        result = lss_localize_robust(bad, 4, trim_residual_m=3.0, rng=0)
        aligned = align_to_reference(result.positions, positions)
        assert localization_errors(aligned, positions).max() < 0.5

    def test_no_trim_needed_matches_plain(self):
        positions, edges = square_edges()
        robust = lss_localize_robust(edges, 4, rng=0)
        plain = lss_localize(edges, 4, rng=0)
        assert robust.error == pytest.approx(plain.error, abs=1e-6)

    def test_invalid_threshold(self):
        _, edges = square_edges()
        with pytest.raises(ValidationError):
            lss_localize_robust(edges, 4, trim_residual_m=0.0)

    @pytest.mark.parametrize("threshold", [-1.0, float("nan"), float("inf")])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        """A NaN threshold used to pass the ``<= 0`` check and disable
        trimming."""
        _, edges = square_edges()
        with pytest.raises(ValidationError, match="trim_residual_m"):
            lss_localize_robust(edges, 4, trim_residual_m=threshold)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("threshold", [0.5, 2.0, 3.0])
    def test_robust_and_local_maps_trim_the_same_edges(self, threshold, seed, monkeypatch):
        """``lss_localize_robust`` (at its default ``trim_max_weight`` of
        1) and the distributed local-map refit drop the same edges of the
        same fit: one rule, ``lss._trim_mask``."""
        from repro.core.distributed import _trim_local_edges

        rng = np.random.default_rng(seed)
        n_nodes = 10
        positions = rng.uniform(0.0, 30.0, (n_nodes, 2))
        i, j = np.triu_indices(n_nodes, k=1)
        true = np.hypot(*(positions[i] - positions[j]).T)
        edges = EdgeList(
            pairs=np.stack([i, j], axis=1),
            distances=np.abs(true + rng.normal(0.0, 2.0 * threshold, true.size)),
            weights=rng.choice([0.15, 0.5, 1.0, 2.0], true.size),
        )
        fits = []

        def fit(edges, n_nodes, **kwargs):
            fits.append(edges)
            return lss.LssResult(positions, 0.0, 0.0, np.zeros(0))

        monkeypatch.setattr(lss, "lss_localize", fit)
        lss_localize_robust(edges, n_nodes, trim_residual_m=threshold, max_trim_rounds=1)
        local = _trim_local_edges(edges, positions, threshold)
        assert local is not None and 3 <= len(local) < len(edges)
        assert len(fits) == 2
        for field in ("pairs", "distances", "weights"):
            assert getattr(fits[1], field).tobytes() == getattr(local, field).tobytes()

    def test_invalid_rounds(self):
        _, edges = square_edges()
        with pytest.raises(ValidationError):
            lss_localize_robust(edges, 4, max_trim_rounds=-1)
