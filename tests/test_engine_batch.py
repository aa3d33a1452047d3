"""Seeded equivalence tests: batched engine vs scalar reference oracles.

The engine's parity contract (see ``repro/engine/__init__.py``) says a
batched solve and the scalar reference solve of the same problem follow
identical per-problem update rules.  The references are private oracles
that no production path calls; the tests substitute them for the engine
functions (``_scalar_multilateration`` below, and ``scalar_round`` from
``_oracles`` for the restart driver's per-round seam
``batch._lss_round``).  Unpadded LSS stacks are bytewise
the scalar oracle; multilateration, the APS baselines and padded LSS
objectives may differ only by floating-point reduction error.  These
tests pin that contract on fixed-seed networks across grid, random, and
sparse layouts for multilateration (``localize_network``), LSS
(``lss_localize`` / ``lss_localize_multistart``), and the APS baselines.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import LssConfig, dv_distance_localize, dv_hop_localize, localize_network, lss_localize
from repro.core.multilateration import intersection_consistency_filter
from repro.deploy import random_anchors, square_grid, uniform_random_layout
from repro.engine import batch as engine_batch
from repro.engine.batch import (
    batch_gradient_descent,
    batch_lss_error,
    batch_lss_gradient,
    lss_localize_multistart,
    solve_multilateration_batch,
)
from repro.errors import InsufficientDataError, ValidationError
from repro.ranging import gaussian_edges, gaussian_ranges

from _filter_oracle import padded_consistency_keep
from _oracles import descend_scalar, scalar_round, solve_batch_scalar
from _kernel_fixtures import sha256_bytes


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


def _scalar_multilateration():
    """Run ``localize_network`` and the APS baselines on the per-node
    reference: both look the engine function up at call time."""
    return mock.patch.object(
        engine_batch, "solve_multilateration_batch", solve_batch_scalar
    )


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
        with _scalar_multilateration():
            scalar = localize_network(ranges, anchors, n)
        assert np.array_equal(batched.localized, scalar.localized)
        assert np.array_equal(batched.anchors_per_node, scalar.anchors_per_node)
        mask = batched.localized & ~batched.is_anchor
        assert batched.positions[mask] == pytest.approx(
            scalar.positions[mask], abs=1e-5
        )

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_progressive_coverage_matches_scalar(self, layout):
        # Both paths promote a round's solutions together (Jacobi), so
        # both extend the plain coverage to the same localized set.
        rng = np.random.default_rng(3)
        positions, ranges = _layout(layout, rng)
        n = len(positions)
        anchor_idx = random_anchors(n, 5, rng=rng)
        anchors = {int(i): positions[i] for i in anchor_idx}
        plain = localize_network(ranges, anchors, n)
        batched = localize_network(ranges, anchors, n, progressive=True)
        with _scalar_multilateration():
            scalar = localize_network(ranges, anchors, n, progressive=True)
        assert np.all(batched.localized[plain.localized])
        assert np.all(scalar.localized[plain.localized])
        assert np.array_equal(batched.localized, scalar.localized)
        mask = batched.localized & ~batched.is_anchor
        assert batched.positions[mask] == pytest.approx(
            scalar.positions[mask], abs=1e-5
        )

    @pytest.mark.parametrize("solver", ["gradient", "scalar"])
    def test_min_anchors_below_three_rejected(self, solver):
        # The batched path must enforce the same planar-solvability
        # floor as the scalar oracle (a 2-anchor fix is ambiguous).
        rng = np.random.default_rng(0)
        positions, ranges = _layout("grid", rng)
        with _scalar_multilateration() if solver == "scalar" else nullcontext():
            with pytest.raises(ValidationError):
                localize_network(
                    ranges, {0: positions[0]}, len(positions), min_anchors=2
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
        k = int(rng.integers(3, 15))
        anchors = rng.uniform(0, 30, (k, 2))
        target = rng.uniform(5, 25, 2)
        dists = np.hypot(*(anchors - target).T) + rng.normal(0, 0.3, k)
        dists = np.abs(dists)
        if rng.random() < 0.5:
            dists[int(rng.integers(k))] *= 1.5  # plant an outlier range
        reference = intersection_consistency_filter(anchors, dists)
        fast = engine_batch._batch_consistency_keep(
            anchors[None], dists[None], np.ones((1, k), dtype=bool), 1.0
        )[0]
        assert list(np.flatnonzero(fast)) == list(reference)


@st.composite
def _filter_batches(draw):
    """Padded consistency-filter batches on an integer grid: 1-30
    problems, anchor counts 0-14, prefix or arbitrary valid masks.  The
    grid gives exact ties at the cluster radius, tangent circle pairs,
    coincident anchors and zero distances."""
    n_problems = draw(st.integers(1, 30))
    width = draw(st.integers(0, 14))
    grid = st.integers(0, 8)
    anchors = draw(hnp.arrays(np.int64, (n_problems, width, 2), elements=grid, fill=st.nothing()))
    dists = draw(hnp.arrays(np.int64, (n_problems, width), elements=grid, fill=st.nothing()))
    if draw(st.booleans()):
        counts = draw(hnp.arrays(np.int64, n_problems, elements=st.integers(0, width)))
        valid = np.arange(width) < counts[:, None]
    else:
        valid = draw(hnp.arrays(bool, (n_problems, width)))
    radius = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    return anchors.astype(float), dists.astype(float), valid, radius


def _axis_tie(anchors, dists, *, valid=None):
    """A batch of one grid problem whose keep mask hinges on two
    intersection points exactly 1 m apart along one axis: a strict box
    test (``<`` for ``<=``) drops that point pair."""
    dists = np.asarray(dists, dtype=float)
    valid = np.ones(dists.shape, dtype=bool) if valid is None else np.asarray(valid)
    return np.asarray(anchors, dtype=float)[None], dists[None], valid[None], 1.0


class TestConsistencyFilterIsThePaddedOracle:
    """The filter groups problems by anchor count and evaluates ``hypot``
    on box-test candidates only; its keep masks are bytewise those of
    the padded body it replaced (``tests/_filter_oracle.py``)."""

    @given(batch=_filter_batches(), chunk_elements=st.sampled_from([None, 1, 100, 5000]))
    @example(
        batch=_axis_tie([[1, 4], [2, 1], [2, 4], [3, 1]], [2, 5, 4, 5]),
        chunk_elements=None,
    )
    @example(
        batch=_axis_tie(
            [[2, 7], [0, 0], [7, 7], [7, 7], [4, 3], [5, 5], [6, 7]],
            [4, 3, 4, 6, 5, 2, 6],
            valid=[True, False, True, True, True, False, True],
        ),
        chunk_elements=100,
    )
    @example(
        batch=_axis_tie([[3, 4], [1, 6], [1, 0], [1, 0], [1, 6]], [2, 3, 2, 3, 2]),
        chunk_elements=1,
    )
    @settings(max_examples=150, deadline=None)
    def test_keep_mask_is_the_padded_oracle(self, batch, chunk_elements):
        anchors, dists, valid, radius = batch
        expected = padded_consistency_keep(anchors, dists, valid, radius)
        limit = chunk_elements or engine_batch._FILTER_CHUNK_ELEMENTS
        with mock.patch.object(engine_batch, "_FILTER_CHUNK_ELEMENTS", limit):
            keep = engine_batch._batch_consistency_keep(anchors, dists, valid, radius)
        assert keep.dtype == expected.dtype and keep.shape == expected.shape
        assert keep.tobytes() == expected.tobytes()

    def test_one_problem_over_the_bound_runs_in_row_tiles(self):
        """A 60-anchor problem's (2P, 2P) block is ~12.5M elements, over
        the bound: its rows run in tiles, so the call's peak traced
        memory stays a small multiple of the bound's bytes (a whole
        block is over 100 times them) and the keep mask is the
        oracle's."""
        import tracemalloc

        rng = np.random.default_rng(0)
        anchors = rng.uniform(0.0, 60.0, (60, 2))
        dists = np.abs(np.hypot(*(anchors - 30.0).T) + rng.normal(0.0, 0.33, 60))
        expected = padded_consistency_keep(
            anchors[None], dists[None], np.ones((1, 60), dtype=bool), 1.0
        )[0]
        limit = 250_000
        with mock.patch.object(engine_batch, "_FILTER_CHUNK_ELEMENTS", limit):
            tracemalloc.start()
            try:
                keep = engine_batch._batch_consistency_keep(
                    anchors[None], dists[None], np.ones((1, 60), dtype=bool), 1.0
                )[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert keep.tolist() == expected.tolist()
        assert peak <= 4 * 8 * limit

    def test_mask_cache_keeps_small_anchor_counts_only(self):
        """After a whole-block mask at every anchor count up to the
        largest whole block (k = 53), the process keeps the masks of
        k <= 23 only, about 1.3 MB; caching the last 32 counts kept
        83 MB."""
        import tracemalloc

        engine_batch._cached_later_pair.cache_clear()
        tracemalloc.start()
        try:
            for k in range(3, 54):
                engine_batch._later_pair(k)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2_000_000
        assert engine_batch._cached_later_pair.cache_info().currsize == 21
        # Built per call or cached, a mask is the same.
        for k in (23, 24):
            owner = np.arange(k * (k - 1)) // 2
            assert np.array_equal(engine_batch._later_pair(k), owner[:, None] < owner)

    def test_counters_show_the_padding_is_gone(self):
        """One counter bundle per filter call: the problems, the
        anchor-count groups solved, and the point pairs that passed the
        box test, far fewer than the padded point-pair matrices held."""
        from repro import telemetry
        from repro.scenarios import get_scenario, scenario_trial

        # The benchmark sweep's densest cell: a 22 m range and 40%
        # anchors give nodes up to eight anchors in reach.
        spec = get_scenario("uniform-sparse-multilateration").with_overrides(
            **{"ranging.max_range_m": 22.0, "anchors.fraction": 0.4}
        )
        calls = []
        original = engine_batch._batch_consistency_keep

        def recorded(anchors, dists, valid, radius):
            calls.append(valid.copy())
            return original(anchors, dists, valid, radius)

        with mock.patch.object(engine_batch, "_batch_consistency_keep", recorded):
            with telemetry.recording() as rec:
                scenario_trial(np.random.default_rng(2), spec=spec)
        assert calls
        counters = rec.counters
        prefix = "engine.batch.consistency"
        assert counters[f"{prefix}_problems"] == sum(v.shape[0] for v in calls)
        groups = {
            (i, int(k)) for i, v in enumerate(calls) for k in set(v.sum(axis=1)) if k >= 3
        }
        assert counters[f"{prefix}_groups"] == len(groups) > 1
        padded = sum(v.shape[0] * (v.shape[1] * (v.shape[1] - 1)) ** 2 for v in calls)
        assert 0 < counters[f"{prefix}_candidates"] < padded / 10


def _f64_bytes(value) -> bytes:
    return np.float64(value).tobytes()


def _assert_same_lss_result(result, reference):
    """Two ``LssResult``s are the same bytes, trace and rounds included."""
    assert result.positions.tobytes() == reference.positions.tobytes()
    assert _f64_bytes(result.error) == _f64_bytes(reference.error)
    assert _f64_bytes(result.stress) == _f64_bytes(reference.stress)
    assert result.error_trace.tobytes() == reference.error_trace.tobytes()
    assert result.round_boundaries == reference.round_boundaries
    assert result.epochs_run == reference.epochs_run
    assert result.converged == reference.converged


class TestLssParity:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_gd_matches_scalar_oracle(self, layout, monkeypatch):
        rng = np.random.default_rng(2)
        positions, ranges = _layout(layout, rng)
        n = len(positions)
        config = LssConfig(min_spacing_m=8.0, restarts=2, max_epochs=400)
        batched = lss_localize(ranges, n, config=config, rng=11)
        monkeypatch.setattr(engine_batch, "_lss_round", scalar_round)
        scalar = lss_localize(ranges, n, config=config, rng=11)
        _assert_same_lss_result(batched, scalar)

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
            expected_error = lss_error(
                configs[b], edges, constraint_pairs=pairs, min_spacing_m=6.0
            )
            expected_grad = lss_gradient(
                configs[b], edges, constraint_pairs=pairs, min_spacing_m=6.0
            )
            assert errors[b].tobytes() == _f64_bytes(expected_error)
            assert grads[b].tobytes() == expected_grad.tobytes()

    def test_multistart_matches_sequential_runs(self):
        rng = np.random.default_rng(4)
        positions, ranges = _layout("grid", rng)
        n = len(positions)
        config = LssConfig(min_spacing_m=8.0, restarts=3, max_epochs=300)
        seeds = [21, 22, 23]
        stacked = lss_localize_multistart(ranges, n, config=config, seeds=seeds)
        for result, seed in zip(stacked, seeds):
            reference = lss_localize(ranges, n, config=config, rng=seed)
            _assert_same_lss_result(result, reference)

    def test_multistart_validates_inputs(self):
        rng = np.random.default_rng(4)
        positions, ranges = _layout("grid", rng)
        n = len(positions)
        with pytest.raises(ValidationError):
            lss_localize_multistart(ranges, n, seeds=[])

    def test_multistart_respects_pins(self):
        rng = np.random.default_rng(4)
        positions, ranges = _layout("grid", rng)
        n = len(positions)
        config = LssConfig(min_spacing_m=8.0, restarts=2, max_epochs=200)
        fixed = {0: positions[0], 1: positions[1]}
        results = lss_localize_multistart(
            ranges, n, config=config, seeds=[5, 6], fixed_positions=fixed
        )
        for result, seed in zip(results, [5, 6]):
            assert np.allclose(result.positions[0], positions[0])
            assert np.allclose(result.positions[1], positions[1])
            reference = lss_localize(
                ranges, n, config=config, rng=seed, fixed_positions=fixed
            )
            _assert_same_lss_result(result, reference)


class TestApsParity:
    @pytest.mark.parametrize("localizer", [dv_hop_localize, dv_distance_localize])
    @pytest.mark.parametrize("layout", ["grid", "random"])
    def test_batched_gradient_matches_scalar(self, localizer, layout):
        rng = np.random.default_rng(13)
        positions, ranges = _layout(layout, rng)
        n = len(positions)
        anchor_idx = random_anchors(n, 6, rng=rng)
        anchors = {int(i): positions[i] for i in anchor_idx}
        batched = localizer(ranges, anchors, n)
        with _scalar_multilateration():
            scalar = localizer(ranges, anchors, n)
        assert np.array_equal(batched.localized, scalar.localized)
        assert np.array_equal(batched.anchors_per_node, scalar.anchors_per_node)
        mask = batched.localized & ~batched.is_anchor
        assert batched.positions[mask] == pytest.approx(
            scalar.positions[mask], abs=1e-5
        )

    def test_min_anchors_below_three_rejected(self):
        rng = np.random.default_rng(13)
        positions, ranges = _layout("grid", rng)
        n = len(positions)
        anchor_idx = random_anchors(n, 6, rng=rng)
        anchors = {int(i): positions[i] for i in anchor_idx}
        with pytest.raises(ValidationError):
            dv_hop_localize(ranges, anchors, n, min_anchors=2)


def _aps_outcome(localizer, edges, anchors, n_nodes):
    """The localization, or the class of the InsufficientDataError raised."""
    try:
        return localizer(edges, anchors, n_nodes)
    except InsufficientDataError as exc:
        return type(exc)


def _assert_aps_paths_agree(localizer, edges, anchors, n_nodes):
    batched = _aps_outcome(localizer, edges, anchors, n_nodes)
    with _scalar_multilateration():
        scalar = _aps_outcome(localizer, edges, anchors, n_nodes)
    if isinstance(scalar, type) or isinstance(batched, type):
        assert batched is scalar
        return
    assert np.array_equal(batched.localized, scalar.localized)
    assert np.array_equal(batched.anchors_per_node, scalar.anchors_per_node)
    assert np.array_equal(batched.is_anchor, scalar.is_anchor)
    mask = batched.localized
    assert np.all(np.abs(batched.positions[mask] - scalar.positions[mask]) <= 1e-5)


class TestApsRandomParity:
    """DV-hop and DV-distance run the engine in production; on random
    deployments, anchor sets and radio ranges they agree with the
    per-node scalar reference.  Short ranges disconnect the graph and
    leave nodes with fewer than three reachable anchors; two anchors,
    no edges, or anchors that reach no other anchor raise
    InsufficientDataError on both paths.  Deployments are uniform: on an
    exactly mirror-symmetric problem (DV-hop on a grid) the start lies
    on the symmetry axis, where rounding picks the mirror minimum or
    leaves the descent on the saddle, and the two summation orders may
    pick differently."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(4, 30),
        n_anchors=st.integers(2, 9),
        max_range_m=st.sampled_from([4.0, 9.0, 14.0, 22.0, 60.0]),
        sigma_m=st.sampled_from([0.0, 0.33, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_engine_matches_scalar_reference(
        self, seed, n_nodes, n_anchors, max_range_m, sigma_m
    ):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, 40.0, size=(n_nodes, 2))
        edges = gaussian_edges(positions, max_range_m=max_range_m, sigma_m=sigma_m, rng=rng)
        anchor_idx = rng.choice(n_nodes, size=min(n_anchors, n_nodes), replace=False)
        anchors = {int(i): positions[i] for i in anchor_idx}
        for localizer in (dv_hop_localize, dv_distance_localize):
            _assert_aps_paths_agree(localizer, edges, anchors, n_nodes)


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
            # Zero-valued padding can regroup the pairwise objective sum;
            # the gradient bins add exact zeros for it.
            assert errors[b] == pytest.approx(expected_error, rel=1e-12)
            assert grads[b, :n].tobytes() == expected_grad.tobytes()
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

    The shared-edge pins are the bytes of ``descend_scalar`` per
    configuration; the padded pin's gradient bins add their terms in
    ``lss_gradient``'s order.  Any kernel rewrite must reproduce them
    byte for byte: trajectories, per-epoch traces and epoch counts
    included.  The padded pin's compaction count follows the descent's
    compaction rule, not its output bytes.
    """

    #: Constrained shared-edge descent with traces and a pinned node;
    #: B=1 is the ``town-lss`` path, B=4 the multistart path.
    SHARED_EDGE_PINS = {
        1: "f7a0bf9c71f6be7887bbd8f33b93212c2198742d8831c64a2e0adfe723fb3edb",
        4: "39afd236f3c8ac3482b641db537814f398e55ca97020cc76d53f1302579904ca",
    }
    #: Constrained padded descent whose problems finish at different
    #: epochs, so the working batch is compacted several times.
    PADDED_PIN = "7ec083c8937e59ac5a5b4b748c73fe9f738eb4e6a9438b1dd1aad700fd476337"
    #: Its seven problems finish at seven epochs.  The stack of 7 waits
    #: for a second finisher (a quarter), the stack of 5 likewise; the
    #: stacks of 3 and 2 compact at once, and the last problem's finish
    #: in the tail counts too.
    PADDED_COMPACTIONS = 5

    @staticmethod
    def _constrained_network():
        from repro.core.lss import _constraint_pairs
        from repro.core.measurements import as_graph_edges

        rng = np.random.default_rng(2005)
        n_nodes = 14
        positions = rng.uniform(0.0, 30.0, size=(n_nodes, 2))
        edges = as_graph_edges(
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


def _random_pairs(rng, n_nodes, count):
    """``count`` pairs of distinct nodes; endpoints and whole pairs repeat."""
    first = rng.integers(0, n_nodes, count)
    second = (first + rng.integers(1, n_nodes, count)) % n_nodes
    return np.stack([first, second], axis=1).astype(np.int64)


def _random_edges(rng, n_nodes, n_edges):
    from repro.core.measurements import EdgeList

    return EdgeList(
        pairs=_random_pairs(rng, n_nodes, n_edges),
        distances=rng.uniform(0.0, 20.0, n_edges),
        weights=rng.choice([0.5, 1.0, 2.0], n_edges),
    )


class TestLssKernelsAreTheScalarOracle:
    """The LSS body sums the objective per row in ``lss_error``'s order
    and scatters the gradient in ``lss_gradient``'s ``add.at`` order, so
    without padding the batched kernels are the scalar oracle byte for
    byte.  Few nodes and many pairs make endpoints repeat within and
    across the edge and constraint lists; a spacing of 0.5 m is rarely
    violated, one of 40 m always is."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(2, 9),
        n_configs=st.integers(1, 8),
        n_edges=st.integers(1, 30),
        n_constraints=st.integers(0, 20),
        min_spacing_m=st.sampled_from([None, 0.5, 8.0, 40.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_edge_objective_and_gradient_are_the_oracle(
        self, seed, n_nodes, n_configs, n_edges, n_constraints, min_spacing_m
    ):
        from repro.core.lss import lss_error, lss_gradient

        rng = np.random.default_rng(seed)
        edges = _random_edges(rng, n_nodes, n_edges)
        constraints = _random_pairs(rng, n_nodes, n_constraints)
        configs = rng.uniform(0.0, 20.0, size=(n_configs, n_nodes, 2))
        kwargs = dict(constraint_pairs=constraints, min_spacing_m=min_spacing_m)
        errors = batch_lss_error(configs, edges, **kwargs)
        grads = batch_lss_gradient(configs, edges, **kwargs)
        for b in range(n_configs):
            assert errors[b].tobytes() == _f64_bytes(lss_error(configs[b], edges, **kwargs))
            assert grads[b].tobytes() == lss_gradient(configs[b], edges, **kwargs).tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_problems=st.integers(1, 8),
        min_spacing_m=st.sampled_from([None, 0.5, 8.0, 40.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_padded_gradient_is_the_oracle(self, seed, n_problems, min_spacing_m):
        """Padding adds exact zeros to the gradient bins, so the gradient
        stays bytewise; zero-valued padding slots can regroup the pairwise
        objective sum, so the objective agrees to reduction tolerance."""
        from repro.core.lss import _constraint_pairs, lss_error, lss_gradient
        from repro.engine.batch import batch_lss_error_padded, batch_lss_gradient_padded

        rng = np.random.default_rng(seed)
        problems = TestPaddedLssKernels._random_problems(rng, n_problems)
        pts, pairs, dists, weights, cpairs, cvalid = TestPaddedLssKernels._pad(
            problems, min_spacing_m
        )
        padded = dict(
            constraint_pairs=cpairs, constraint_valid=cvalid, min_spacing_m=min_spacing_m
        )
        errors = batch_lss_error_padded(pts, pairs, dists, weights, **padded)
        grads = batch_lss_gradient_padded(pts, pairs, dists, weights, **padded)
        for b, (n, edges, initial) in enumerate(problems):
            constraints = (
                _constraint_pairs(n, edges.pairs) if min_spacing_m is not None else None
            )
            kwargs = dict(constraint_pairs=constraints, min_spacing_m=min_spacing_m)
            assert grads[b, :n].tobytes() == lss_gradient(initial, edges, **kwargs).tobytes()
            assert np.all(grads[b, n:] == 0.0)
            assert errors[b] == pytest.approx(lss_error(initial, edges, **kwargs), rel=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(3, 9),
        n_configs=st.integers(1, 4),
        n_edges=st.integers(3, 25),
        n_constraints=st.integers(0, 20),
        min_spacing_m=st.sampled_from([None, 0.5, 8.0, 40.0]),
        pinned=st.integers(0, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_shared_edge_descent_is_the_scalar_round(
        self, seed, n_nodes, n_configs, n_edges, n_constraints, min_spacing_m, pinned
    ):
        """Points, error, converged flag and trace of every configuration
        are those of ``descend_scalar``, with a pinned row, while the
        stack compacts configurations that finish at different epochs."""
        from repro.engine.batch import batch_lss_descend

        rng = np.random.default_rng(seed)
        edges = _random_edges(rng, n_nodes, n_edges)
        constraints = _random_pairs(rng, n_nodes, n_constraints)
        configs = rng.uniform(0.0, 20.0, size=(n_configs, n_nodes, 2))
        config = LssConfig(min_spacing_m=min_spacing_m, max_epochs=150)
        free_mask = np.ones(n_nodes, dtype=bool)
        free_mask[pinned % n_nodes] = False
        traces = [[] for _ in range(n_configs)]
        pts, errors, converged = batch_lss_descend(
            configs,
            edges,
            constraints,
            min_spacing_m=min_spacing_m,
            constraint_weight=config.constraint_weight,
            step_size=config.step_size,
            max_epochs=config.max_epochs,
            tolerance=config.tolerance,
            free_mask=free_mask,
            traces=traces,
        )
        for b in range(n_configs):
            trace = []
            ref_pts, ref_error, ref_converged = descend_scalar(
                configs[b].copy(), edges, constraints, config, trace, free_mask
            )
            assert pts[b].tobytes() == ref_pts.tobytes()
            assert errors[b].tobytes() == _f64_bytes(ref_error)
            assert bool(converged[b]) == ref_converged
            assert np.asarray(traces[b]).tobytes() == np.asarray(trace, dtype=float).tobytes()


def _lss_path(path):
    """A scope forcing the LSS body's dense/sparse choice: ``"dense"``
    keeps every valid constraint pair, ``"sparse"`` always evaluates the
    Verlet candidate list."""
    from repro.engine import batch

    return mock.patch.object(batch, "_use_candidates", lambda n_valid, n_near: path == "sparse")


def _boundary_problems(rng, n_problems, d_min):
    """Random problems whose node pairs sit at ``d_min`` and at the
    candidate cutoff ``d_min + skin`` to within a few ulps, or at a
    random distance around them (``skin = d_min / 2``)."""
    from repro.core.measurements import EdgeList

    problems = []
    for _ in range(n_problems):
        n = int(rng.integers(3, 9))
        positions = np.zeros((n, 2))
        positions[0] = rng.uniform(0.0, 3.0 * d_min, 2)
        for k in range(1, n):
            anchor = positions[rng.integers(0, k)]
            scale = rng.choice([1.0, 1.5, rng.uniform(0.3, 2.5)])
            length = d_min * scale * (1.0 + int(rng.integers(-4, 5)) * 2.0**-52)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            positions[k] = anchor + length * np.array([np.cos(angle), np.sin(angle)])
        pairs = np.stack(np.triu_indices(n, k=1), axis=1)
        keep = rng.random(pairs.shape[0]) < 0.4
        keep[0] = True
        pairs = pairs[keep]
        diff = positions[pairs[:, 0]] - positions[pairs[:, 1]]
        dists = np.hypot(diff[:, 0], diff[:, 1]) + rng.normal(0.0, 0.5, len(pairs))
        edges = EdgeList(
            pairs=pairs.astype(np.int64),
            distances=dists,
            weights=rng.choice([0.5, 1.0, 2.0], size=len(pairs)),
        )
        problems.append((n, edges, positions))
    return problems


def _approach(rng, pts, d_min):
    """Move every node toward a random other node of its problem by a
    distance drawn from around the ``skin / 2`` rebuild boundary."""
    half_skin = 0.25 * d_min
    step = half_skin * rng.choice(
        [0.0, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.5],
        size=pts.shape[:2],
    )
    partner = pts[:, rng.integers(0, pts.shape[1], pts.shape[1])]
    toward = partner - pts
    norm = np.maximum(np.hypot(toward[..., 0], toward[..., 1]), 1e-12)
    return pts + (step / norm)[..., None] * toward


class TestSparseTermsAreTheDenseBody:
    """The body may leave out zero-weight edge slots and constraint pairs
    outside its Verlet candidate list only because each is an exact zero.
    The dense path (every valid pair) and the sparse path (the list) must
    therefore agree byte for byte, on stacks whose pairs sit at ``d_min``
    and at the list cutoff and whose nodes move by about the ``skin / 2``
    rebuild distance."""

    D_MIN = 4.0

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_problems=st.integers(1, 6),
        n_moves=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_sparse_body_is_the_dense_body(self, seed, n_problems, n_moves):
        from repro.engine.batch import _padded_body

        rng = np.random.default_rng(seed)
        problems = _boundary_problems(rng, n_problems, self.D_MIN)
        pts, pairs, dists, weights, cpairs, cvalid = TestPaddedLssKernels._pad(
            problems, self.D_MIN
        )
        args = (pairs, dists, weights, cpairs, cvalid, self.D_MIN, 10.0)
        with _lss_path("dense"):
            dense = _padded_body(pts, *args)
        with _lss_path("sparse"):
            sparse = _padded_body(pts, *args)
        for step in range(n_moves + 1):
            if step:
                pts = _approach(rng, pts, self.D_MIN)
            with _lss_path("dense"):
                value, grad = dense.value_and_grad(pts)
            with _lss_path("sparse"):
                sparse_value, sparse_grad = sparse.value_and_grad(pts)
            assert sparse_value.tobytes() == value.tobytes()
            assert sparse_grad.tobytes() == grad.tobytes()
        assert sparse.terms <= dense.terms

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_problems=st.integers(1, 6),
        shared=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_sparse_descent_is_the_dense_descent(self, seed, n_problems, shared):
        """Points, errors, converged flags, epochs, compactions and
        traces of ``_descend`` agree on both paths."""
        from repro.core.lss import _constraint_pairs
        from repro.engine.batch import _descend, _padded_body, _shared_edge_body

        rng = np.random.default_rng(seed)
        problems = _boundary_problems(rng, n_problems, self.D_MIN)
        if shared:
            n, edges, positions = problems[0]
            pts = positions + rng.normal(0.0, 0.5, size=(n_problems, n, 2))
            constraints = _constraint_pairs(n, edges.pairs)

            def body():
                return _shared_edge_body(pts, edges, constraints, self.D_MIN, 10.0)
        else:
            pts, *stacks = TestPaddedLssKernels._pad(problems, self.D_MIN)

            def body():
                return _padded_body(pts, *stacks, self.D_MIN, 10.0)

        runs = {}
        for path in ("dense", "sparse"):
            traces = [[] for _ in range(pts.shape[0])]
            with _lss_path(path):
                run = _descend(
                    body(), pts.copy(), step_size=0.02, max_epochs=150,
                    tolerance=1e-7, momentum=0.9, patience=50, traces=traces,
                )
            runs[path] = run, traces
        (dense, dense_traces), (sparse, sparse_traces) = runs["dense"], runs["sparse"]
        for name in ("configs", "errors", "converged"):
            assert getattr(sparse, name).tobytes() == getattr(dense, name).tobytes()
        assert (sparse.epochs_run, sparse.compactions) == (dense.epochs_run, dense.compactions)
        for ours, theirs in zip(sparse_traces, dense_traces):
            assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()
        assert sparse.terms <= dense.terms

    @staticmethod
    def _crossing_body():
        """Nodes 0 and 1 form the only constraint pair; the one edge
        joins nodes 2 and 3, so rows 0 and 1 feel only that pair."""
        from repro.engine.batch import _padded_body

        pairs = np.array([[[2, 3]]])
        stack = np.zeros((1, 4, 2))
        return _padded_body(
            stack, pairs, np.array([[1.0]]), np.array([[1.0]]),
            np.array([[[0, 1]]]), np.array([[True]]), 4.0, 10.0,
        )

    def test_pair_driven_inside_feels_force_in_the_epoch_it_crosses(self):
        """A pair starting just outside ``d_min + skin`` (4 + 2 m) closes
        in by ``skin / 4`` per epoch, both nodes moving.  The list is
        rebuilt when each node has moved ``skin / 2``, so the pair is
        listed before it crosses ``d_min`` and pushes back at once.
        Waiting for a displacement of ``skin`` would miss it."""
        start = 6.0 + 1e-9
        dense, sparse = self._crossing_body(), self._crossing_body()
        forces = []
        for epoch in range(7):
            shift = 0.25 * epoch
            pts = np.array(
                [[[-start / 2 + shift, 0.0], [start / 2 - shift, 0.0], [10.0, 0.0], [10.0, 1.0]]]
            )
            with _lss_path("dense"):
                value, grad = dense.value_and_grad(pts)
            with _lss_path("sparse"):
                sparse_value, sparse_grad = sparse.value_and_grad(pts)
            assert sparse_value.tobytes() == value.tobytes()
            assert sparse_grad.tobytes() == grad.tobytes()
            distance = pts[0, 1, 0] - pts[0, 0, 0]
            forces.append((distance < 4.0, bool(np.any(grad[0, :2] != 0.0))))
        # The pair crosses d_min in epoch 5 and pushes from that epoch on.
        assert forces == [(False, False)] * 5 + [(True, True)] * 2
        # Built at epoch 0, rebuilt when the nodes have moved 1 m (epoch 4).
        assert sparse.rebuilds == 2

    @pytest.mark.parametrize("overshoot", [-1e-7, 5e-7])
    def test_rebuild_displacement_is_not_above_half_skin(self, overshoot):
        """A pair exactly at the cutoff is not listed.  If both nodes move
        ``skin / 2 + x`` toward each other, it lands ``2x`` inside
        ``d_min`` for x > 0 and must push back on that very evaluation."""
        dense, sparse = self._crossing_body(), self._crossing_body()
        half = 1.0 + overshoot
        for shift in (0.0, half):
            pts = np.array(
                [[[-3.0 + shift, 0.0], [3.0 - shift, 0.0], [10.0, 0.0], [10.0, 1.0]]]
            )
            with _lss_path("dense"):
                value, grad = dense.value_and_grad(pts)
            with _lss_path("sparse"):
                sparse_value, sparse_grad = sparse.value_and_grad(pts)
            assert sparse_value.tobytes() == value.tobytes()
            assert sparse_grad.tobytes() == grad.tobytes()
        assert bool(np.any(grad[0, :2] != 0.0)) == (overshoot > 0)

    def test_pair_driven_inside_by_descent(self):
        """The same pair pulled together by a zero-length measurement:
        every epoch of the descent, trace included, is the dense one."""
        from repro.engine.batch import _descend, _padded_body

        pts = np.array([[[0.0, 0.0], [6.0 + 1e-9, 0.0]]])
        args = (
            np.array([[[0, 1]]]), np.array([[0.0]]), np.array([[1.0]]),
            np.array([[[0, 1]]]), np.array([[True]]), 4.0, 10.0,
        )
        runs = {}
        for path in ("dense", "sparse"):
            traces = [[]]
            with _lss_path(path):
                run = _descend(
                    _padded_body(pts, *args), pts.copy(), step_size=0.02,
                    max_epochs=300, tolerance=1e-7, momentum=0.9, patience=50,
                    traces=traces,
                )
            runs[path] = run, traces
        (dense, dense_trace), (sparse, sparse_trace) = runs["dense"], runs["sparse"]
        assert sparse.configs.tobytes() == dense.configs.tobytes()
        assert np.asarray(sparse_trace).tobytes() == np.asarray(dense_trace).tobytes()
        gap = sparse.configs[0, 1, 0] - sparse.configs[0, 0, 0]
        assert gap < 4.0 and sparse.rebuilds > 1

    @pytest.mark.parametrize("padded", [False, True])
    def test_empty_stack_returns_at_once(self, padded):
        from repro import telemetry
        from repro.engine.batch import batch_lss_descend, batch_lss_descend_padded

        edges = _random_edges(np.random.default_rng(0), 5, 4)
        configs = np.zeros((0, 5, 2))
        with telemetry.recording() as rec:
            if padded:
                pts, errors, converged = batch_lss_descend_padded(
                    configs, np.zeros((0, 3, 2), dtype=np.int64), np.zeros((0, 3)),
                    np.zeros((0, 3)), max_epochs=2000,
                )
                name = "lss_padded"
            else:
                pts, errors, converged = batch_lss_descend(
                    configs, edges, None, min_spacing_m=None, constraint_weight=10.0,
                    step_size=0.02, max_epochs=2000, tolerance=1e-7,
                    free_mask=np.ones(5, dtype=bool),
                )
                name = "lss"
        assert pts.shape == (0, 5, 2)
        assert errors.shape == (0,) and converged.shape == (0,)
        assert converged.dtype == bool
        assert rec.counters[f"engine.batch.{name}_iterations"] == 0
        assert rec.counters[f"engine.batch.{name}_terms"] == 0

    def test_counters_show_the_terms_left_out(self):
        """Per call, the kernel counts its list builds and the term slots
        its body evaluated; the sparse path evaluates fewer."""
        from repro import telemetry
        from repro.engine.batch import batch_lss_descend_padded

        rng = np.random.default_rng(17)
        problems = TestPaddedLssKernels._random_problems(rng, n_problems=7)
        pts, pairs, dists, weights, cpairs, cvalid = TestPaddedLssKernels._pad(
            problems, min_spacing_m=6.0
        )
        counters = {}
        for path in ("dense", "sparse"):
            with _lss_path(path), telemetry.recording() as rec:
                batch_lss_descend_padded(
                    pts, pairs, dists, weights,
                    constraint_pairs=cpairs, constraint_valid=cvalid,
                    min_spacing_m=6.0, step_size=0.02, max_epochs=2000,
                    tolerance=1e-7,
                )
            counters[path] = rec.counters
        prefix = "engine.batch.lss_padded"
        dense, sparse = counters["dense"], counters["sparse"]
        assert dense[f"{prefix}_iterations"] == sparse[f"{prefix}_iterations"]
        # A dense build stays dense through every compaction: one build
        # per call.
        assert dense[f"{prefix}_rebuilds"] == 1
        assert sparse[f"{prefix}_rebuilds"] >= dense[f"{prefix}_rebuilds"]
        assert 0 < sparse[f"{prefix}_terms"] < dense[f"{prefix}_terms"]


def _lazy_compactions(finish_epochs, n_problems):
    """The compactions of ``_descend`` for problems finishing at
    *finish_epochs* (finite points): the stack shrinks once a quarter of
    it has finished or one problem is left, and the finish that empties
    the stack, or the tail's, counts as one more."""
    stack = active = n_problems
    count = 0
    for epoch in sorted(set(finish_epochs)):
        if active == 1:
            return count + 1
        active -= finish_epochs.count(epoch)
        if active == 0:
            return count + 1
        if 4 * (stack - active) >= stack or active == 1:
            count += 1
            stack = active
    return count


class TestSingleProblemTail:
    """Once one problem is left to descend, ``_descend`` runs it on
    scalar step state.  That tail must be the stacked loop byte for
    byte: from a stack of one, after the last compaction, and when the
    epoch budget runs out inside it."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(3, 8),
        still=st.lists(st.booleans(), min_size=1, max_size=5),
        shared=st.booleans(),
        n_edges=st.integers(3, 20),
        n_constraints=st.integers(0, 12),
        min_spacing_m=st.sampled_from([None, 0.5, 8.0]),
        step_size=st.sampled_from([0.002, 0.02, 0.2]),
        tolerance=st.sampled_from([1e-7, 1e-3, 1.0]),
        max_epochs=st.integers(1, 60),
        pinned=st.one_of(st.none(), st.integers(0, 7)),
    )
    # Fixed cases for each way into and out of the tail: a stack of one
    # that finishes, a straggler that finishes and one that runs out of
    # epochs, a stack compacted twice with no tail at all, and a stack of
    # five whose first finisher stays frozen until the rest finish.
    @example(
        seed=1, n_nodes=6, still=[True], shared=True, n_edges=12, n_constraints=6,
        min_spacing_m=0.5, step_size=0.02, tolerance=1e-7, max_epochs=60, pinned=None,
    )
    @example(
        seed=1, n_nodes=6, still=[True, False], shared=True, n_edges=12, n_constraints=6,
        min_spacing_m=0.5, step_size=0.02, tolerance=1.0, max_epochs=60, pinned=2,
    )
    @example(
        seed=1, n_nodes=6, still=[False, True], shared=False, n_edges=12, n_constraints=6,
        min_spacing_m=0.5, step_size=0.02, tolerance=1e-7, max_epochs=45, pinned=None,
    )
    @example(
        seed=1, n_nodes=6, still=[True, False, True, False], shared=False, n_edges=12,
        n_constraints=6, min_spacing_m=0.5, step_size=0.02, tolerance=1.0, max_epochs=60,
        pinned=None,
    )
    @example(
        seed=1, n_nodes=6, still=[True, False, False, False, False], shared=False,
        n_edges=12, n_constraints=6, min_spacing_m=0.5, step_size=0.02, tolerance=1.0,
        max_epochs=60, pinned=None,
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_is_the_scalar_round(
        self, seed, n_nodes, still, shared, n_edges, n_constraints,
        min_spacing_m, step_size, tolerance, max_epochs, pinned,
    ):
        """Per problem, points, error, converged flag and trace are those
        of ``descend_scalar``; epochs and compactions count the stack.

        A *still* problem starts on a translate of the layout its edges
        measured exactly.  Unless a constraint pair is violated, every
        step it takes is rejected and it stops at epoch 38, 41 or 45 (by
        step size), while a tolerance of 1 stalls the others out at epoch
        50.  Problems therefore finish at different epochs, on either side
        of the epoch budget.  Coordinates lie on a 1/16 m grid, so
        translates keep every difference, and so every distance, exact."""
        from repro.core.measurements import EdgeList
        from repro.engine.batch import _descend, _padded_body, _shared_edge_body

        rng = np.random.default_rng(seed)
        n_problems = len(still)

        def grid(shape):
            return rng.integers(0, 320, size=shape) / 16.0

        problems, layouts = [], []
        for _ in range(1 if shared else n_problems):
            layout = grid((n_nodes, 2))
            edges = _random_edges(rng, n_nodes, n_edges)
            diff = layout[edges.pairs[:, 0]] - layout[edges.pairs[:, 1]]
            edges = EdgeList(edges.pairs, np.hypot(diff[:, 0], diff[:, 1]), edges.weights)
            problems.append((edges, _random_pairs(rng, n_nodes, n_constraints)))
            layouts.append(layout)
        starts = np.stack([
            layouts[0 if shared else b] + rng.integers(-50, 50, size=2) if s
            else grid((n_nodes, 2))
            for b, s in enumerate(still)
        ])
        if shared:
            edges, constraints = problems[0]
            problems *= n_problems
            lss = _shared_edge_body(starts, edges, constraints, min_spacing_m, 10.0)
        else:
            lss = _padded_body(
                starts,
                np.stack([e.pairs for e, _ in problems]),
                np.stack([e.distances for e, _ in problems]),
                np.stack([e.weights for e, _ in problems]),
                np.stack([c for _, c in problems]),
                np.ones((n_problems, n_constraints), dtype=bool),
                min_spacing_m,
                10.0,
            )
        free_mask = np.ones(n_nodes, dtype=bool)
        if pinned is not None:
            free_mask[pinned % n_nodes] = False
        traces = [[] for _ in range(n_problems)]
        run = _descend(
            lss, starts.copy(), step_size=step_size, max_epochs=max_epochs,
            tolerance=tolerance, momentum=0.9, patience=50,
            pinned=np.flatnonzero(~free_mask) if pinned is not None else None,
            traces=traces,
        )
        config = LssConfig(
            min_spacing_m=min_spacing_m, max_epochs=max_epochs,
            step_size=step_size, tolerance=tolerance,
        )
        for b, (edges, constraints) in enumerate(problems):
            trace = []
            ref_pts, ref_error, ref_converged = descend_scalar(
                starts[b].copy(), edges, constraints, config, trace, free_mask
            )
            assert run.configs[b].tobytes() == ref_pts.tobytes()
            assert run.errors[b].tobytes() == _f64_bytes(ref_error)
            assert bool(run.converged[b]) == ref_converged
            assert np.asarray(traces[b]).tobytes() == np.asarray(trace, dtype=float).tobytes()
        assert run.epochs_run == max(len(t) for t in traces)
        finished = [len(t) for t, c in zip(traces, run.converged) if c]
        assert run.compactions == _lazy_compactions(finished, n_problems)

    @pytest.mark.parametrize("padded", [False, True])
    def test_nan_start_rejects_every_epoch_until_the_step_underflows(self, padded):
        """A NaN coordinate makes every objective NaN, so no candidate is
        ever accepted: the step halves from 0.02 until it drops below
        1e-14 at epoch 41, which finishes the problem."""
        from repro.engine.batch import _descend, _padded_body, _shared_edge_body

        rng = np.random.default_rng(3)
        edges = _random_edges(rng, 6, 10)
        constraints = _random_pairs(rng, 6, 8)
        pts = rng.uniform(0.0, 20.0, size=(1, 6, 2))
        pts[0, 2, 1] = np.nan
        if padded:
            lss = _padded_body(
                pts, edges.pairs[None], edges.distances[None], edges.weights[None],
                constraints[None], np.ones((1, 8), dtype=bool), 4.0, 10.0,
            )
        else:
            lss = _shared_edge_body(pts, edges, constraints, 4.0, 10.0)
        traces = [[]]
        run = _descend(
            lss, pts.copy(), step_size=0.02, max_epochs=2000, tolerance=1e-7,
            momentum=0.9, patience=50, traces=traces,
        )
        assert (run.epochs_run, run.compactions) == (41, 1)
        assert bool(run.converged[0])
        assert np.isnan(run.errors[0])
        assert len(traces[0]) == 41 and np.all(np.isnan(traces[0]))
