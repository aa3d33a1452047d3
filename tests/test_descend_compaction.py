"""Lazy, re-index-free compaction in the stacked LSS descent.

``engine.batch._descend`` keeps finished problems in the working stack,
frozen, until a quarter of it has finished, and ``_Lss.compact`` filters
the body's flat term arrays and carries its candidate list over instead
of indexing the kept rows again.  ``tests/_descend_oracle.py`` keeps the
loop that compacted at every finish and the compaction that re-indexed;
the production loop must give the same bytes: configurations, errors,
converged flags, traces and epoch counts, on shared-edge and padded
stacks of 2-60 problems with pins, constraints, dense and sparse
candidate lists, zero-weight and masked slots, and NaN starts.

A frozen row stands still at its returned configuration, so it never
makes the candidate list stale; a finished row whose points are not
finite is compacted out at once, so no evaluation after its finish sees
it.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.measurements import EdgeList
from repro.engine import batch
from repro.engine.batch import _descend, _padded_body, _shared_edge_body

import _descend_oracle
from _descend_oracle import ReindexedLss

#: The body's flat term arrays, which a compaction filters and shifts.
TERM_ARRAYS = (
    "_edge_real", "_edge_ends", "_edge_dists", "_edge_weights", "_edge_weights2",
    "_valid_slots", "_valid_ends",
)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64).tobytes()


def _forced(path):
    """A scope forcing the candidate-list choice of every build
    (``None``: the body's own)."""
    if path is None:
        return ExitStack()
    return mock.patch.object(batch, "_use_candidates", lambda n_valid, n_near: path == "sparse")


def _grid(rng, shape):
    """Coordinates on a 1/16 m grid: translates keep every distance exact."""
    return rng.integers(0, 320, size=shape) / 16.0


def _pairs(rng, n_nodes, shape):
    first = rng.integers(0, n_nodes, shape)
    second = (first + rng.integers(1, n_nodes, shape)) % n_nodes
    return np.stack([first, second], axis=-1).astype(np.int64)


def _problem(rng, n_nodes, n_edges, zero_frac):
    """A layout and edges that measure it exactly, some of zero weight."""
    layout = _grid(rng, (n_nodes, 2))
    pairs = _pairs(rng, n_nodes, n_edges)
    diff = layout[pairs[:, 0]] - layout[pairs[:, 1]]
    weights = rng.choice([0.5, 1.0, 2.0], n_edges)
    weights[rng.random(n_edges) < zero_frac] = 0.0
    return layout, EdgeList(pairs, np.hypot(diff[:, 0], diff[:, 1]), weights)


def _stack(rng, shared, n_problems, n_nodes, n_edges, n_constraints, zero_frac,
           mask_frac, still_frac, n_nan, min_spacing_m):
    """Starts and a body builder.  A *still* problem starts on a
    translate of the layout its edges measured, so it rejects every step
    (unless a constraint pushes) and finishes when its step underflows;
    the others start at random.  *n_nan* rows start with a NaN."""
    problems = [
        _problem(rng, n_nodes, n_edges, zero_frac) for _ in range(1 if shared else n_problems)
    ]
    starts = np.stack([
        problems[0 if shared else b][0] + rng.integers(-50, 50, size=2)
        if rng.random() < still_frac else _grid(rng, (n_nodes, 2))
        for b in range(n_problems)
    ])
    for b in rng.choice(n_problems, size=n_nan, replace=False):
        starts[b, rng.integers(n_nodes), rng.integers(2)] = np.nan
    if shared:
        edges = problems[0][1]
        constraints = _pairs(rng, n_nodes, n_constraints)

        def body():
            return _shared_edge_body(starts, edges, constraints, min_spacing_m, 10.0)
    else:
        cpairs = _pairs(rng, n_nodes, (n_problems, n_constraints))
        cvalid = rng.random((n_problems, n_constraints)) >= mask_frac
        # Padded slots are conventionally (0, 0); they are never read.
        cpairs[~cvalid] = 0
        stacks = (
            np.stack([e.pairs for _, e in problems]),
            np.stack([e.distances for _, e in problems]),
            np.stack([e.weights for _, e in problems]),
            cpairs,
            cvalid,
        )

        def body():
            return _padded_body(starts, *stacks, min_spacing_m, 10.0)
    return starts, body


class _Recorder(batch._Lss):
    """The production body, recording every stack it evaluates (one
    evaluation per epoch, the start point first)."""

    seen: list = []

    def value_and_grad(self, pts):
        self.seen.append(pts.copy())
        return super().value_and_grad(pts)


STACK = dict(
    seed=st.integers(0, 2**32 - 1),
    shared=st.booleans(),
    n_problems=st.integers(2, 60),
    n_nodes=st.integers(2, 8),
    n_edges=st.integers(1, 20),
    n_constraints=st.integers(0, 15),
    zero_frac=st.sampled_from([0.0, 0.3]),
    mask_frac=st.sampled_from([0.0, 0.4]),
    still_frac=st.sampled_from([0.0, 0.5, 1.0]),
    n_nan=st.integers(0, 2),
    min_spacing_m=st.sampled_from([None, 0.5, 4.0, 40.0]),
    path=st.sampled_from([None, "dense", "sparse"]),
)


class TestLazyDescentIsTheEagerDescent:
    @given(
        **STACK,
        pinned=st.one_of(st.none(), st.integers(0, 7)),
        step_size=st.sampled_from([0.002, 0.02, 0.2]),
        tolerance=st.sampled_from([1e-7, 1e-3, 1.0]),
        patience=st.sampled_from([3, 10, 50]),
        max_epochs=st.integers(1, 120),
    )
    # A constrained, sparse padded stack of 40 whose two NaN rows finish
    # at epoch 41 while the rest run on, and a shared-edge stack of 2.
    @example(
        seed=5, shared=False, n_problems=40, n_nodes=6, n_edges=12, n_constraints=10,
        zero_frac=0.3, mask_frac=0.4, still_frac=0.0, n_nan=2, min_spacing_m=4.0,
        path="sparse", pinned=None, step_size=0.02, tolerance=1e-7, patience=50,
        max_epochs=120,
    )
    @example(
        seed=1, shared=True, n_problems=2, n_nodes=6, n_edges=12, n_constraints=6,
        zero_frac=0.0, mask_frac=0.0, still_frac=0.5, n_nan=0, min_spacing_m=0.5,
        path=None, pinned=2, step_size=0.02, tolerance=1.0, patience=50, max_epochs=60,
    )
    @settings(max_examples=120, deadline=None)
    def test_descent_is_the_oracle_descent(
        self, seed, shared, n_problems, n_nodes, n_edges, n_constraints, zero_frac,
        mask_frac, still_frac, n_nan, min_spacing_m, path, pinned, step_size,
        tolerance, patience, max_epochs,
    ):
        """Configurations, errors, converged flags, traces and epochs are
        the eager loop's, bit for bit; frozen rows stand still, and no
        evaluation after a NaN row's finish holds that row."""
        rng = np.random.default_rng(seed)
        starts, body = _stack(
            rng, shared, n_problems, n_nodes, n_edges, n_constraints, zero_frac,
            mask_frac, still_frac, n_nan, min_spacing_m,
        )
        pins = None if pinned is None else np.array([pinned % n_nodes])
        kwargs = dict(
            step_size=step_size, max_epochs=max_epochs, tolerance=tolerance,
            momentum=0.9, patience=patience, pinned=pins,
        )
        traces = [[] for _ in range(n_problems)]
        expected_traces = [[] for _ in range(n_problems)]
        _Recorder.seen = []
        with _forced(path):
            with mock.patch.object(batch, "_Lss", _Recorder):
                run = _descend(body(), starts.copy(), traces=traces, **kwargs)
            with mock.patch.object(batch, "_Lss", ReindexedLss):
                expected = _descend_oracle.descend(
                    body(), starts.copy(), traces=expected_traces, **kwargs
                )
        assert _bits(run.configs) == _bits(expected.configs)
        assert _bits(run.errors) == _bits(expected.errors)
        assert run.converged.tobytes() == expected.converged.tobytes()
        assert run.epochs_run == expected.epochs_run
        for ours, theirs in zip(traces, expected_traces):
            assert _bits(ours) == _bits(theirs)
        assert run.compactions <= expected.compactions

        # Evaluation e is epoch e's.  A compaction keeps exactly the
        # problems still descending, in order, and until then a finished
        # problem's row is its returned configuration.  A NaN row never
        # is: it leaves the stack at its finish.
        finish = {b: len(traces[b]) for b in np.flatnonzero(run.converged)}
        members = list(range(n_problems))
        assert len(_Recorder.seen) == run.epochs_run + 1
        for epoch, stack in enumerate(_Recorder.seen):
            if stack.shape[0] < len(members):
                members = [b for b in members if finish.get(b, epoch) >= epoch]
            assert stack.shape[0] == len(members)
            for row, b in enumerate(members):
                if finish.get(b, epoch) < epoch:
                    assert np.array_equal(stack[row], run.configs[b])


class TestCompactIsTheReindexedBody:
    @given(
        **STACK,
        n_moves=st.integers(0, 4),
        n_compactions=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_term_arrays_and_evaluations_are_the_reindexed_ones(
        self, seed, shared, n_problems, n_nodes, n_edges, n_constraints, zero_frac,
        mask_frac, still_frac, n_nan, min_spacing_m, path, n_moves, n_compactions,
    ):
        """After evaluations at moving points, a compacted body's flat
        term arrays are those of a body indexed from the kept rows, and
        every later evaluation has the same bits."""
        rng = np.random.default_rng(seed)
        pts, body = _stack(
            rng, shared, n_problems, n_nodes, n_edges, n_constraints, zero_frac,
            mask_frac, still_frac, n_nan, min_spacing_m,
        )
        with _forced(path):
            ours = body()
            with mock.patch.object(batch, "_Lss", ReindexedLss):
                theirs = body()
            for compaction in range(n_compactions):
                for _ in range(n_moves):
                    pts = pts + rng.normal(0.0, 1.0, pts.shape)
                    ours.value_and_grad(pts)
                    theirs.value_and_grad(pts)
                keep = rng.random(pts.shape[0]) < 0.6
                keep[rng.integers(pts.shape[0])] = True
                ours, theirs, pts = ours.compact(keep), theirs.compact(keep), pts[keep]
                for name in TERM_ARRAYS:
                    if hasattr(theirs, name):
                        mine, reference = getattr(ours, name), getattr(theirs, name)
                        assert mine.dtype == reference.dtype
                        assert mine.tobytes() == reference.tobytes(), name
                for points in (pts, pts + rng.normal(0.0, 1.0, pts.shape)):
                    value, grad = ours.value_and_grad(points)
                    expected_value, expected_grad = theirs.value_and_grad(points)
                    assert _bits(value) == _bits(expected_value)
                    assert _bits(grad) == _bits(expected_grad)

    @pytest.mark.parametrize("path", ["dense", "sparse"])
    def test_the_candidate_list_carries_over(self, path):
        """A compaction builds no list: a dense body builds once per
        descent, and a sparse one keeps its list and reference points."""
        rng = np.random.default_rng(11)
        pts, body = _stack(rng, False, 8, 6, 12, 10, 0.0, 0.0, 0.0, 0, 4.0)
        with _forced(path):
            lss = body()
            lss.value_and_grad(pts)
            keep = np.array([True, False] * 4)
            compacted = lss.compact(keep)
            assert compacted.rebuilds == lss.rebuilds == 1
            compacted.value_and_grad(pts[keep])
            assert compacted.rebuilds == 1
        if path == "sparse":
            assert _bits(compacted._ref) == _bits(lss._ref[keep])


class TestFrozenRowsDoNotForceRebuilds:
    def test_nan_row_is_compacted_at_its_finish(self):
        """Two NaN starts reject every step and finish at epoch 41; until
        then their NaN displacement rebuilds the list every epoch.  No
        other problem finishes before epoch 130, yet the two leave the
        stack at their finish, though they are 2 of 40, so the rest of
        the descent rebuilds only as the other rows move."""
        rng = np.random.default_rng(5)
        starts, body = _stack(rng, False, 40, 6, 12, 10, 0.3, 0.4, 0.0, 2, 4.0)
        with _forced("sparse"):
            run = _descend(
                body(), starts, step_size=0.02, max_epochs=400, tolerance=1e-7,
                momentum=0.9, patience=50,
            )
        assert np.isnan(run.errors).sum() == 2
        assert run.epochs_run > 200
        # The start's build and one per NaN epoch, then a few more.
        assert 42 <= run.rebuilds < 42 + (run.epochs_run - 41) // 4
