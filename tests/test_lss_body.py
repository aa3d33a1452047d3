"""The LSS body and its single-problem tail against their reference.

``engine.batch._Lss`` evaluates every epoch into buffers it allocates
at each selection, and ``engine.batch._descend_one`` steps in buffers it
owns.  ``tests/_lss_body_oracle.py`` keeps the allocating body and tail
they replaced; substituted for the production names, they must give the
same bytes: values and gradients per evaluation, and points, errors,
converged flags, traces and counters per descent.  The stacks cover
shared-edge and padded layouts, zero-weight slots, dense, sparse and
empty candidate lists, pinned rows, coincident nodes, distances below
the ``1e-12`` floor and NaN rows.

Also here: returned configurations are never buffers a later epoch or
round overwrites, and out-of-range local indices are rejected when the
body is built.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LssConfig, lss
from repro.core.measurements import EdgeList
from repro.engine import batch
from repro.engine.batch import (
    _descend,
    _padded_body,
    _shared_edge_body,
    batch_lss_descend,
    batch_lss_descend_padded,
    batch_lss_error,
    batch_lss_error_padded,
    batch_lss_gradient,
    batch_lss_gradient_padded,
)
from repro.errors import ValidationError
from repro.ranging import gaussian_ranges

from _lss_body_oracle import OracleLss, descend_one

#: What the body's dense/sparse choice is forced to (``None``: its own).
PATHS = [None, "dense", "sparse"]


def _forced(path):
    """A scope forcing the candidate-list choice of every build."""
    if path is None:
        return ExitStack()
    return mock.patch.object(
        batch, "_use_candidates", lambda n_valid, n_near: path == "sparse"
    )


def _oracle():
    """A scope in which the body builders and ``_descend`` run the
    reference body and tail."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(batch, "_Lss", OracleLss))
    stack.enter_context(mock.patch.object(batch, "_descend_one", descend_one))
    return stack


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64).tobytes()


def _degenerate(rng, pts, kind):
    """Make one node of every problem coincide with another, sit within
    ``1e-12`` of it, or turn NaN."""
    if kind is None or pts.shape[1] < 2:
        return pts
    pts = pts.copy()
    for b in range(pts.shape[0]):
        i, j = rng.choice(pts.shape[1], size=2, replace=False)
        if kind == "coincident":
            pts[b, i] = pts[b, j]
        elif kind == "tiny":
            pts[b, i] = pts[b, j] + rng.uniform(1e-14, 5e-13, size=2)
        else:
            pts[b, i] = np.nan
    return pts


def _stacks(rng, shared, n_problems, n_nodes, n_edges, n_constraints, zero_frac, mask_frac):
    """Random edge and constraint stacks; endpoints repeat freely."""
    def pairs(count):
        first = rng.integers(0, n_nodes, count)
        second = (first + rng.integers(1, n_nodes, count)) % n_nodes
        return np.stack([first, second], axis=-1).astype(np.int64)

    def weights(shape):
        w = rng.choice([0.5, 1.0, 2.0], size=shape)
        w[rng.random(shape) < zero_frac] = 0.0
        return w

    if shared:
        edges = EdgeList(
            pairs=pairs(n_edges), distances=rng.uniform(0.0, 15.0, n_edges),
            weights=weights(n_edges),
        )
        return edges, pairs(n_constraints)
    shape = (n_problems, n_edges)
    cpairs = pairs((n_problems, n_constraints))
    cvalid = rng.random((n_problems, n_constraints)) >= mask_frac
    # Padded slots are conventionally (0, 0); they are never read.
    cpairs[~cvalid] = 0
    return (
        pairs(shape), rng.uniform(0.0, 15.0, shape), weights(shape), cpairs, cvalid,
    )


def _body(pts, shared, stacks, min_spacing_m):
    if shared:
        edges, constraints = stacks
        return _shared_edge_body(pts, edges, constraints, min_spacing_m, 10.0)
    return _padded_body(pts, *stacks, min_spacing_m, 10.0)


STACK = dict(
    seed=st.integers(0, 2**32 - 1),
    shared=st.booleans(),
    n_problems=st.integers(1, 5),
    n_nodes=st.integers(2, 8),
    n_edges=st.integers(1, 20),
    n_constraints=st.integers(0, 15),
    zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
    mask_frac=st.sampled_from([0.0, 0.4]),
    min_spacing_m=st.sampled_from([None, 1e-13, 0.5, 4.0, 40.0]),
    degenerate=st.sampled_from([None, "coincident", "tiny", "nan"]),
    path=st.sampled_from(PATHS),
)


class TestBodyIsTheOracle:
    @given(**STACK, n_moves=st.integers(0, 4), compact_at=st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_value_and_grad_are_the_oracle_bits(
        self, seed, shared, n_problems, n_nodes, n_edges, n_constraints,
        zero_frac, mask_frac, min_spacing_m, degenerate, path, n_moves, compact_at,
    ):
        """Every evaluation, at points that move by about the rebuild
        distance, before and after a compaction, is bit for bit the
        reference body's; so are the build and term counters."""
        rng = np.random.default_rng(seed)
        stacks = _stacks(
            rng, shared, n_problems, n_nodes, n_edges, n_constraints, zero_frac, mask_frac
        )
        pts = _degenerate(rng, rng.uniform(0.0, 12.0, (n_problems, n_nodes, 2)), degenerate)
        with _forced(path):
            body = _body(pts, shared, stacks, min_spacing_m)
            with _oracle():
                oracle = _body(pts, shared, stacks, min_spacing_m)
            assert type(oracle) is OracleLss
            for step in range(n_moves + 1):
                if step:
                    pts = pts + rng.normal(0.0, 1.0, pts.shape)
                if step == compact_at and pts.shape[0] > 1:
                    keep = rng.random(pts.shape[0]) < 0.6
                    keep[rng.integers(pts.shape[0])] = True
                    body, oracle, pts = body.compact(keep), oracle.compact(keep), pts[keep]
                value, grad = body.value_and_grad(pts)
                expected_value, expected_grad = oracle.value_and_grad(pts)
                assert _bits(value) == _bits(expected_value)
                assert _bits(grad) == _bits(expected_grad)
                assert (body.rebuilds, body.terms) == (oracle.rebuilds, oracle.terms)

    @given(
        **STACK,
        pinned=st.one_of(st.none(), st.integers(0, 7)),
        step_size=st.sampled_from([0.002, 0.02, 0.2]),
        tolerance=st.sampled_from([1e-7, 1e-3]),
        max_epochs=st.integers(1, 80),
    )
    @settings(max_examples=150, deadline=None)
    def test_descent_is_the_oracle_descent(
        self, seed, shared, n_problems, n_nodes, n_edges, n_constraints,
        zero_frac, mask_frac, min_spacing_m, degenerate, path, pinned,
        step_size, tolerance, max_epochs,
    ):
        """Points, errors, converged flags, traces, epochs, compactions,
        builds and terms of ``_descend``: the stacked loop, its
        compactions and the tail (from a stack of one or after the last
        compaction) all run the production body and tail."""
        rng = np.random.default_rng(seed)
        stacks = _stacks(
            rng, shared, n_problems, n_nodes, n_edges, n_constraints, zero_frac, mask_frac
        )
        pts = _degenerate(rng, rng.uniform(0.0, 12.0, (n_problems, n_nodes, 2)), degenerate)
        pins = None if pinned is None else np.array([pinned % n_nodes])
        runs = []
        for reference in (False, True):
            traces = [[] for _ in range(n_problems)]
            with _forced(path), _oracle() if reference else ExitStack():
                run = _descend(
                    _body(pts, shared, stacks, min_spacing_m), pts.copy(),
                    step_size=step_size, max_epochs=max_epochs, tolerance=tolerance,
                    momentum=0.9, patience=50, pinned=pins, traces=traces,
                )
            runs.append((run, traces))
        (run, traces), (expected, expected_traces) = runs
        assert _bits(run.configs) == _bits(expected.configs)
        assert _bits(run.errors) == _bits(expected.errors)
        assert run.converged.tobytes() == expected.converged.tobytes()
        assert run[3:] == expected[3:]
        for ours, theirs in zip(traces, expected_traces):
            assert _bits(ours) == _bits(theirs)
        if pins is not None:
            assert _bits(run.configs[:, pins]) == _bits(pts[:, pins])


#: Multiples of a boundary a move is drawn at: inside, a few ulps either
#: side of it, and past it.
BOUNDARY = [0.0, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.5]


def _closest_left_out(body) -> int:
    """The valid pair left out of *body*'s list that was closest at its
    build (-1 when none is finite)."""
    flat = body._ref.reshape(-1, 2)
    ends = body._valid_ends
    diff = flat[ends[:, 0]] - flat[ends[:, 1]]
    dist = np.hypot(diff[:, 0], diff[:, 1])
    dist[body._near] = np.inf
    k = int(np.argmin(dist)) if dist.size else -1
    return k if k >= 0 and np.isfinite(dist[k]) else -1


def _around_the_margin(rng, body, pts):
    """Points displaced from the list's reference points by about its
    margin: each node by a multiple of :data:`BOUNDARY` (or, half the
    time, of its values below 1) along an axis, a diagonal (where the prefilter's ``margin / sqrt(2)`` bound meets
    the Euclidean one) or a random direction, and the two ends of the
    closest pair left out head-on toward each other, so that they land
    about ``d_min`` apart.  Bodies without a list move at random."""
    if body._ref is None:
        return pts + rng.normal(0.0, 1.0, pts.shape)
    ref, margin = body._ref, body._limit
    kind = rng.integers(0, 3, size=pts.shape[:2])
    angle = np.where(
        kind == 0,
        rng.integers(0, 4, pts.shape[:2]) * (np.pi / 2),
        np.where(
            kind == 1,
            np.pi / 4 + rng.integers(0, 4, pts.shape[:2]) * (np.pi / 2),
            rng.uniform(0.0, 2.0 * np.pi, pts.shape[:2]),
        ),
    )
    # Half the time every node stays inside the boundary, so that only
    # the head-on pair below can force a rebuild.
    factors = BOUNDARY if rng.random() < 0.5 else [f for f in BOUNDARY if f < 1.0]
    step = margin * rng.choice(factors, size=pts.shape[:2])
    moved = ref + step[..., None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    k = _closest_left_out(body)
    if k >= 0:
        flat_ref, flat = ref.reshape(-1, 2), moved.reshape(-1, 2)
        i, j = body._valid_ends[k]
        toward = flat_ref[j] - flat_ref[i]
        toward = toward / np.hypot(*toward)
        step = margin * rng.choice(BOUNDARY)
        flat[i] = flat_ref[i] + step * toward
        flat[j] = flat_ref[j] - step * toward
    return moved


def _assert_close_pairs_listed(body, pts):
    """Every valid constraint pair closer than ``d_min`` at *pts* is in
    the list the body evaluates, or the body evaluates every valid pair."""
    if not body.constrained:
        return
    ends = body._valid_ends
    if body._near is None:
        assert body._ref is None
        assert body._con_ends.tobytes() == ends.tobytes()
        return
    flat = pts.reshape(-1, 2)
    diff = flat[ends[:, 0]] - flat[ends[:, 1]]
    close = np.flatnonzero(np.hypot(diff[:, 0], diff[:, 1]) < body.min_spacing_m)
    assert np.isin(close, body._near).all()
    assert body._con_ends.tobytes() == ends[body._near].tobytes()


class TestCloseValidPairsAreListed:
    """The Verlet invariant itself: after every evaluation, each valid
    constraint pair closer than ``d_min`` is in the live list, or the
    body is dense.  Moves sit around the build's margin and around the
    prefilter's ``margin / sqrt(2)`` per coordinate, on shared-edge and
    padded stacks, through compactions and non-finite rows; each
    evaluation is also bit for bit the dense body's."""

    @given(
        **{
            **STACK,
            "n_constraints": st.integers(1, 15),
            "min_spacing_m": st.sampled_from([1e-13, 0.5, 4.0, 40.0]),
            "path": st.sampled_from([None, "sparse"]),
        },
        n_moves=st.integers(1, 8),
        compact_at=st.integers(0, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_close_pairs_are_listed_after_every_evaluation(
        self, seed, shared, n_problems, n_nodes, n_edges, n_constraints,
        zero_frac, mask_frac, min_spacing_m, degenerate, path, n_moves, compact_at,
    ):
        rng = np.random.default_rng(seed)
        stacks = _stacks(
            rng, shared, n_problems, n_nodes, n_edges, n_constraints, zero_frac, mask_frac
        )
        pts = _degenerate(rng, rng.uniform(0.0, 12.0, (n_problems, n_nodes, 2)), degenerate)
        with _forced(path):
            body = _body(pts, shared, stacks, min_spacing_m)
        with _forced("dense"):
            dense = _body(pts, shared, stacks, min_spacing_m)
        for step in range(n_moves + 1):
            if step:
                pts = _around_the_margin(rng, body, pts)
            if step == compact_at and pts.shape[0] > 1:
                keep = rng.random(pts.shape[0]) < 0.6
                keep[rng.integers(pts.shape[0])] = True
                body, dense, pts = body.compact(keep), dense.compact(keep), pts[keep]
            with _forced(path):
                value, grad = body.value_and_grad(pts)
            _assert_close_pairs_listed(body, pts)
            with _forced("dense"):
                expected_value, expected_grad = dense.value_and_grad(pts)
            assert _bits(value) == _bits(expected_value)
            assert _bits(grad) == _bits(expected_grad)


class TestRebuildMargin:
    """The margin comes from the closest pair left out, the prefilter
    only ever defers to the exact test, and a build that finds the list
    it holds keeps its plan."""

    D_MIN = 4.0

    @staticmethod
    def _points(gap, move0=(0.0, 0.0), move1=(0.0, 0.0)):
        """Nodes 0 and 1 *gap* apart on the x axis, moved by *move0* and
        *move1*; nodes 2 and 3 stay put."""
        pts = np.array([[[-gap / 2, 0.0], [gap / 2, 0.0], [10.0, 0.0], [10.0, 1.0]]])
        pts[0, 0] += move0
        pts[0, 1] += move1
        return pts

    @classmethod
    def _pair_body(cls, gap):
        """Nodes 0 and 1 form the only constraint pair, *gap* apart at
        the first evaluation; the one edge joins nodes 2 and 3."""
        pts = cls._points(gap)
        body = _padded_body(
            pts, np.array([[[2, 3]]]), np.array([[1.0]]), np.array([[1.0]]),
            np.array([[[0, 1]]]), np.array([[True]]), cls.D_MIN, 10.0,
        )
        body.value_and_grad(pts)
        return body

    def test_margin_is_half_the_closest_gap_to_d_min(self):
        body = self._pair_body(10.0)
        assert body._near.size == 0
        assert body._limit == pytest.approx(3.0, rel=1e-8)
        assert body._limit < 3.0
        # A pair at the cutoff gives the fixed skin / 2.
        assert self._pair_body(6.0)._limit == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("overshoot", [-1e-7, 5e-7])
    def test_pair_closing_in_by_the_margin(self, overshoot):
        """A pair 10 m apart is left out with margin 3 (three times the
        fixed ``skin / 2``).  Both nodes move ``3 + x`` toward each
        other: for x > 0 the pair lands ``2x`` inside ``d_min``, and the
        list is rebuilt and pushes back on that very evaluation."""
        body = self._pair_body(10.0)
        _, grad = body.value_and_grad(self._points(10.0, (2.9, 0.0), (-2.9, 0.0)))
        assert body.rebuilds == 1 and not np.any(grad[0, :2])
        shift = 3.0 + overshoot
        _, grad = body.value_and_grad(self._points(10.0, (shift, 0.0), (-shift, 0.0)))
        assert body.rebuilds == 1 + (overshoot > 0)
        assert bool(np.any(grad[0, :2] != 0.0)) == (overshoot > 0)

    def test_prefilter_defers_to_the_exact_test(self):
        """A move inside ``margin / sqrt(2)`` per coordinate passes the
        prefilter.  One along an axis past it, but inside the margin,
        fails the prefilter and not the exact test: no rebuild, and the
        exact test runs from then on."""
        body = self._pair_body(10.0)
        inside = 0.999 * body._chebyshev
        body.value_and_grad(self._points(10.0, (inside, inside)))
        assert (body.rebuilds, body._exact) == (1, False)
        body.value_and_grad(self._points(10.0, (0.0, 0.9 * body._limit)))
        assert (body.rebuilds, body._exact) == (1, True)
        body.value_and_grad(self._points(10.0))
        assert (body.rebuilds, body._exact) == (1, True)
        body.value_and_grad(self._points(10.0, (0.0, 1.01 * body._limit)))
        assert (body.rebuilds, body._exact) == (2, False)

    def test_nan_rebuilds(self):
        body = self._pair_body(10.0)
        pts = self._points(10.0)
        pts[0, 2] = np.nan
        body.value_and_grad(pts)
        assert body.rebuilds == 2

    def test_a_build_that_finds_its_list_keeps_its_plan(self):
        """A rebuild that finds the same (here: empty) list keeps the
        gather plan and buffers and takes the new reference points and
        margin; a list that changes gets a new plan."""
        body = self._pair_body(20.0)
        plan, buffers = body._ends, body._gather
        # Apart by 9 m: past the margin of 8, and still left out.
        pts = self._points(20.0, (-9.0, 0.0))
        body.value_and_grad(pts)
        assert body.rebuilds == 2 and body._near.size == 0
        assert body._ends is plan and body._gather is buffers
        assert _bits(body._ref) == _bits(pts)
        assert body._limit == pytest.approx(12.5, rel=1e-8)
        # 3.8 m apart: listed, and the list keeps every pair.
        body.value_and_grad(self._points(20.0, (3.1, 0.0), (-13.1, 0.0)))
        assert body.rebuilds == 3 and body._near is None and body._ends is not plan


class TestReturnedPointsAreNotReused:
    def test_round_results_survive_later_lss_rounds(self, monkeypatch):
        """Every restart round's returned configuration of
        ``lss_localize`` is unchanged after the later rounds ran."""
        rng = np.random.default_rng(9)
        positions = rng.uniform(0.0, 30.0, size=(12, 2))
        ranges = gaussian_ranges(positions, max_range_m=16.0, sigma_m=0.3, rng=rng)
        rounds = []
        descend = batch._lss_round

        def recording(*args, **kwargs):
            out = descend(*args, **kwargs)
            rounds.append((out[0], out[0].copy()))
            return out

        monkeypatch.setattr(batch, "_lss_round", recording)
        result = lss.lss_localize(
            ranges, 12, config=LssConfig(min_spacing_m=3.0, restarts=4, max_epochs=300), rng=2
        )
        assert len(rounds) == 4
        for returned, copy in rounds:
            assert _bits(returned) == _bits(copy)
        assert any(_bits(result.positions) == _bits(copy[0]) for _, copy in rounds)


class TestLocalIndicesAreValidatedAtBuild:
    """A local index outside ``[0, N)`` used to read a neighbouring
    problem's node (or fail later, in ``bincount``, when negative); the
    body's gather no longer checks bounds, so it is rejected up front."""

    @staticmethod
    def _padded(edge=None, constraint=None):
        """Three problems of three nodes; *edge* / *constraint* put
        ``(problem, pair)`` into slot 0 of that problem's stack."""
        pts = np.arange(18, dtype=float).reshape(3, 3, 2)
        pairs = np.tile(np.array([[0, 1], [1, 2]]), (3, 1, 1))
        dists = np.ones((3, 2))
        weights = np.ones((3, 2))
        cpairs = np.tile(np.array([[0, 2]]), (3, 1, 1))
        cvalid = np.ones((3, 1), dtype=bool)
        if edge is not None:
            pairs[edge[0], 0] = edge[1]
        if constraint is not None:
            cpairs[constraint[0], 0] = constraint[1]
        return pts, pairs, dists, weights, cpairs, cvalid

    @pytest.mark.parametrize("problem", [0, 1, 2])
    @pytest.mark.parametrize("pair", [(0, 3), (5, 1), (-1, 2), (1, -3)])
    @pytest.mark.parametrize(
        "kernel", [batch_lss_error_padded, batch_lss_gradient_padded, batch_lss_descend_padded]
    )
    def test_padded_edge_index_out_of_range(self, kernel, problem, pair):
        pts, pairs, dists, weights, cpairs, cvalid = self._padded(edge=(problem, pair))
        with pytest.raises(ValidationError, match=f"edge pair .* of problem {problem} "):
            kernel(pts, pairs, dists, weights)
        with pytest.raises(ValidationError, match=f"edge pair .* of problem {problem} "):
            kernel(
                pts, pairs, dists, weights, constraint_pairs=cpairs,
                constraint_valid=cvalid, min_spacing_m=2.0,
            )

    @pytest.mark.parametrize("problem", [0, 1])
    @pytest.mark.parametrize("pair", [(0, 3), (-2, 1)])
    @pytest.mark.parametrize("kernel", [batch_lss_error_padded, batch_lss_gradient_padded])
    def test_padded_constraint_index_out_of_range(self, kernel, problem, pair):
        pts, pairs, dists, weights, cpairs, cvalid = self._padded(constraint=(problem, pair))
        with pytest.raises(ValidationError, match=f"constraint pair .* of problem {problem} "):
            kernel(
                pts, pairs, dists, weights, constraint_pairs=cpairs,
                constraint_valid=cvalid, min_spacing_m=2.0,
            )

    def test_slots_that_are_never_read_are_not_checked(self):
        """Zero-weight edge slots and masked constraint slots are left
        out of the body, so what they hold does not matter."""
        pts, pairs, dists, weights, cpairs, cvalid = self._padded(
            edge=(0, (0, 7)), constraint=(1, (-4, 9))
        )
        weights[0, 0] = 0.0
        cvalid[1, 0] = False
        kwargs = dict(constraint_pairs=cpairs, constraint_valid=cvalid, min_spacing_m=2.0)
        reference = self._padded()
        value = batch_lss_error_padded(pts, pairs, dists, weights, **kwargs)
        weights_ref, valid_ref = reference[3].copy(), reference[5].copy()
        weights_ref[0, 0] = 0.0
        valid_ref[1, 0] = False
        expected = batch_lss_error_padded(
            pts, reference[1], dists, weights_ref, constraint_pairs=reference[4],
            constraint_valid=valid_ref, min_spacing_m=2.0,
        )
        assert _bits(value) == _bits(expected)

    @pytest.mark.parametrize("pair", [(0, 3), (-1, 1)])
    @pytest.mark.parametrize("n_configs", [1, 3])
    def test_shared_edge_index_out_of_range(self, pair, n_configs):
        configs = np.zeros((n_configs, 3, 2))
        edges = EdgeList(
            pairs=np.array([[0, 1], pair]), distances=np.ones(2), weights=np.ones(2)
        )
        for kernel in (batch_lss_error, batch_lss_gradient):
            with pytest.raises(ValidationError, match="edge pair"):
                kernel(configs, edges)
        with pytest.raises(ValidationError, match="constraint pair"):
            batch_lss_error(
                configs, EdgeList(np.array([[0, 1]]), np.ones(1), np.ones(1)),
                constraint_pairs=np.array([[0, 2], pair]), min_spacing_m=1.0,
            )
        with pytest.raises(ValidationError, match="edge pair"):
            batch_lss_descend(
                configs, edges, None, min_spacing_m=None, constraint_weight=10.0,
                step_size=0.02, max_epochs=10, tolerance=1e-7,
                free_mask=np.ones(3, dtype=bool),
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("configs", np.zeros((2, 3, 2))),
            ("pairs", np.zeros((2, 2, 2), dtype=np.int64)),
            ("dists", np.ones((3, 1))),
            ("weights", np.ones((3, 2, 1))),
            ("constraint_pairs", np.zeros((3, 2, 2), dtype=np.int64)),
            ("constraint_valid", np.ones((2, 1), dtype=bool)),
        ],
    )
    def test_padded_stacks_must_describe_the_same_problems(self, field, value):
        """A stack of more problems than *configs* would gather past it."""
        names = ("configs", "pairs", "dists", "weights", "constraint_pairs", "constraint_valid")
        args = dict(zip(names, self._padded()))
        args[field] = value
        with pytest.raises(ValidationError, match="padded stacks"):
            batch_lss_error_padded(
                args["configs"], args["pairs"], args["dists"], args["weights"],
                constraint_pairs=args["constraint_pairs"],
                constraint_valid=args["constraint_valid"], min_spacing_m=2.0,
            )

    def test_compaction_does_not_check_again(self, monkeypatch):
        """``compact`` takes a subset of validated rows."""
        pts, pairs, dists, weights, cpairs, cvalid = self._padded()
        body = _padded_body(pts, pairs, dists, weights, cpairs, cvalid, 2.0, 10.0)
        checks = []
        monkeypatch.setattr(batch, "_check_local_pairs", lambda *args: checks.append(args))
        body.compact(np.array([True, False, True]))
        assert checks == []
