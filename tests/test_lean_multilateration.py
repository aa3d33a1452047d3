"""The lean multilateration trial is bytewise its reference bodies.

Three layers of a multilateration trial were rewritten for speed with
no change to any output byte, and each is checked here against the
body it replaced, kept in the test suite:

* ``engine.batch.batch_gradient_descent`` keeps each problem's anchor
  offsets and ranges across iterations (``tests/_gd_oracle.py``);
* ``deploy.uniform_random_layout`` draws its candidates in blocks and
  replays the generator (``tests/_layout_oracle.py``);
* ``core.localize_network`` gathers each round's anchor problems from
  CSR arrays (``tests/_gather_oracle.py``).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import telemetry
from repro.core import localize_network
from repro.core.measurements import EdgeList
from repro.deploy import uniform_random_layout
from repro.engine import batch as engine_batch
from repro.errors import ValidationError

import _gather_oracle
import _gd_oracle
import _layout_oracle

# -- descent ----------------------------------------------------------------

#: The exactly mirror-symmetric problem (anchors (8, 0), (24, 8),
#: (16, 16), every distance 30): its centroid start lies on the
#: symmetry axis, where rounding decides the outcome.
MIRROR_ANCHORS = [[8.0, 0.0], [24.0, 8.0], [16.0, 16.0]]


def _mirror_stack(extra: int = 0):
    """The mirror problem, alone or followed by *extra* copies of a
    well-posed one (so it can be a straggler of a larger stack)."""
    anchors = np.array([MIRROR_ANCHORS] * (1 + extra))
    dists = np.full((1 + extra, 3), 30.0)
    if extra:
        anchors[1:] = [[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]]
        dists[1:] = np.hypot(*(anchors[1] - [7.0, 9.0]).T)
    weights = np.ones((1 + extra, 3))
    valid = np.ones((1 + extra, 3), dtype=bool)
    return anchors, dists, weights, valid, anchors.mean(axis=1), 2000, 1e-9


@st.composite
def _gd_stacks(draw):
    """Padded descent stacks: seeded uniform problems (noisy ranges to a
    hidden target, weights in [0.5, 1.5]) or integer-grid problems,
    whose exact ties and symmetric starts stress the accept rule; prefix
    or arbitrary valid masks; centroid or drawn starts; the default or a
    short iteration cap, so the straggler tail also runs out of
    iterations."""
    n_problems = draw(st.integers(1, 10))
    width = draw(st.integers(3, 9))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        anchors = rng.uniform(0.0, 40.0, (n_problems, width, 2))
        target = rng.uniform(5.0, 35.0, (n_problems, 1, 2))
        offset = anchors - target
        dists = np.abs(np.hypot(offset[..., 0], offset[..., 1]) + rng.normal(0, 0.5, (n_problems, width)))
        weights = rng.uniform(0.5, 1.5, (n_problems, width))
    else:
        grid = st.integers(0, 16)
        anchors = draw(hnp.arrays(np.int64, (n_problems, width, 2), elements=grid)).astype(float)
        dists = draw(hnp.arrays(np.int64, (n_problems, width), elements=st.integers(0, 30))).astype(float)
        weights = draw(hnp.arrays(np.int64, (n_problems, width), elements=st.integers(0, 2))).astype(float)
    if draw(st.booleans()):
        counts = draw(hnp.arrays(np.int64, n_problems, elements=st.integers(3, width)))
        valid = np.arange(width) < counts[:, None]
    else:
        valid = draw(hnp.arrays(bool, (n_problems, width)))
    if draw(st.booleans()):
        masked = np.where(valid[..., None], anchors, 0.0)
        initial = masked.sum(axis=1) / np.maximum(valid.sum(axis=1), 1)[:, None]
    else:
        initial = draw(hnp.arrays(np.int64, (n_problems, 2), elements=st.integers(-5, 45))).astype(float)
    max_iterations = draw(st.sampled_from([2000, 1, 7, 40]))
    tolerance = draw(st.sampled_from([1e-9, 1e-3]))
    return anchors, dists, weights, valid, initial, max_iterations, tolerance


def _descend(kernel, stack):
    anchors, dists, weights, valid, initial, max_iterations, tolerance = stack
    with telemetry.recording() as recorder:
        pos, res = kernel(
            anchors, dists, weights, valid, initial,
            max_iterations=max_iterations, tolerance=tolerance,
        )
    return pos, res, dict(recorder.counters)


class TestDescentIsTheOracle:
    """Positions, residuals and every counter (iterations, compactions,
    the straggler tail's problems and passes) are those of the body
    that recomputed offsets and ranges at every evaluation."""

    @given(stack=_gd_stacks())
    @example(stack=_mirror_stack())
    @example(stack=_mirror_stack(extra=3))
    @settings(max_examples=80, deadline=None)
    def test_descent_is_the_oracle(self, stack):
        pos, res, counters = _descend(engine_batch.batch_gradient_descent, stack)
        ref_pos, ref_res, ref_counters = _descend(_gd_oracle.batch_gradient_descent, stack)
        assert pos.tobytes() == ref_pos.tobytes()
        assert res.tobytes() == ref_res.tobytes()
        assert counters == ref_counters

    def test_tail_counters_account_for_the_stragglers(self):
        _, _, counters = _descend(engine_batch.batch_gradient_descent, _mirror_stack(extra=3))
        assert counters["engine.batch.gd_solves"] == 1
        assert 1 <= counters["engine.batch.gd_tail_problems"] <= 2
        assert counters["engine.batch.gd_tail_iterations"] >= counters["engine.batch.gd_tail_problems"]


# -- layout -----------------------------------------------------------------


def _state_bytes(state):
    """A bit generator's state with its arrays as bytes, comparable."""
    if isinstance(state, dict):
        return {key: _state_bytes(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return (state.dtype.str, state.shape, state.tobytes())
    return state


def _layout(fn, bit_generator, seed, n_nodes, side, separation, max_attempts):
    rng = np.random.Generator(bit_generator(seed))
    try:
        positions = fn(
            n_nodes, width_m=side, height_m=0.75 * side,
            min_separation_m=separation, rng=rng, max_attempts=max_attempts,
        )
        outcome = (positions.dtype.str, positions.shape, positions.tobytes())
    except ValidationError as exc:
        outcome = str(exc)
    return outcome, _state_bytes(rng.bit_generator.state)


_BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


class TestLayoutIsTheOracle:
    """Positions, the generator's end state, and the error at the
    attempt bound are those of drawing one candidate at a time."""

    @given(
        n_nodes=st.integers(1, 90),
        side=st.sampled_from([8.0, 30.0, 60.0]),
        separation=st.sampled_from([0.0, 0.5, 2.0, 4.0, 6.5]),
        seed=st.integers(0, 2**32 - 1),
        bit_generator=st.sampled_from(_BIT_GENERATORS),
        max_attempts=st.sampled_from([10_000, 0, 3, 60, 400]),
    )
    @example(
        n_nodes=64, side=60.0, separation=4.0, seed=0,
        bit_generator=np.random.PCG64, max_attempts=10_000,
    )
    @settings(max_examples=120, deadline=None)
    def test_layout_is_the_oracle(
        self, n_nodes, side, separation, seed, bit_generator, max_attempts
    ):
        args = (bit_generator, seed, n_nodes, side, separation, max_attempts)
        got = _layout(uniform_random_layout, *args)
        if separation == 0.0 and n_nodes > max_attempts + 1:
            # The per-candidate loop aborted here although nothing can
            # be rejected; the layout is now the plain block draw.
            rng = np.random.Generator(bit_generator(seed))
            draw = rng.uniform(0, [side, 0.75 * side], size=(n_nodes, 2))
            expected = (
                (draw.dtype.str, draw.shape, draw.tobytes()),
                _state_bytes(rng.bit_generator.state),
            )
        else:
            expected = _layout(_layout_oracle.uniform_random_layout, *args)
        assert got == expected

    def test_separation_zero_has_no_attempt_bound(self):
        n = 10_002
        rng = np.random.default_rng(11)
        positions = uniform_random_layout(n, width_m=50.0, height_m=40.0, rng=rng)
        ref = np.random.default_rng(11)
        expected = ref.uniform(0, [50.0, 40.0], size=(n, 2))
        assert positions.tobytes() == expected.tobytes()
        assert _state_bytes(rng.bit_generator.state) == _state_bytes(ref.bit_generator.state)

    def test_positive_separation_keeps_the_raise_point(self):
        # 3 candidates drawn and only one can fit in a 1 x 1 m field at
        # 5 m: the raise comes after max_attempts + 1 draws.
        rng = np.random.default_rng(4)
        with pytest.raises(ValidationError, match="could not place 2 nodes"):
            uniform_random_layout(
                2, width_m=1.0, height_m=1.0, min_separation_m=5.0, rng=rng,
                max_attempts=2,
            )
        ref = np.random.default_rng(4)
        ref.random(6)
        assert _state_bytes(rng.bit_generator.state) == _state_bytes(ref.bit_generator.state)


# -- gathers ----------------------------------------------------------------


@st.composite
def _networks(draw):
    """A uniform network with noisy ranges under a radio range, its
    edges listed in a shuffled order, each pair in either orientation
    (or the whole list reversed), no pair twice; anchors inserted in a
    shuffled order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    positions = rng.uniform(0.0, 40.0, (n, 2))
    radius = draw(st.sampled_from([8.0, 14.0, 22.0, 60.0]))
    i, j = np.triu_indices(n, k=1)
    true = np.hypot(*(positions[i] - positions[j]).T)
    keep = true <= radius
    pairs = np.stack([i[keep], j[keep]], axis=1)
    dists = np.abs(true[keep] + rng.normal(0.0, 0.3, keep.sum()))
    weights = rng.uniform(0.5, 1.5, keep.sum())
    order = rng.permutation(pairs.shape[0])
    pairs, dists, weights = pairs[order], dists[order], weights[order]
    flip = rng.random(pairs.shape[0]) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    if draw(st.booleans()):
        pairs, dists, weights = pairs[::-1], dists[::-1], weights[::-1]
    edges = EdgeList(
        pairs=np.ascontiguousarray(pairs), distances=dists.copy(), weights=weights.copy()
    )
    n_anchors = draw(st.integers(0, n))
    anchor_ids = rng.permutation(n)[:n_anchors]
    anchors = {int(a): positions[a] for a in anchor_ids}
    return edges, anchors, n


def _localize(fn, network, **kwargs):
    """*fn*'s result, and the problem sequences each round handed the
    solver, as bytes."""
    rounds = []
    solve = engine_batch.solve_multilateration_batch

    def record(anchor_sets, dist_sets, weight_sets, **options):
        rounds.append(
            (
                [(a.dtype.str, a.shape, a.tobytes()) for a in anchor_sets],
                [d.tobytes() for d in dist_sets],
                [w.tobytes() for w in weight_sets],
                sorted(options.items()),
            )
        )
        return solve(anchor_sets, dist_sets, weight_sets, **options)

    edges, anchors, n = network
    with mock.patch.object(engine_batch, "solve_multilateration_batch", record):
        result = fn(edges, anchors, n, **kwargs)
    fields = tuple(
        getattr(result, name).tobytes()
        for name in ("positions", "localized", "is_anchor", "anchors_per_node")
    )
    return fields, rounds


class TestGatherIsTheOracle:
    """Every round hands the solver the same problems, in the same node
    and anchor order, and every result field is the same bytes."""

    @given(
        network=_networks(),
        progressive=st.booleans(),
        consistency_check=st.booleans(),
        min_anchors=st.sampled_from([3, 4]),
    )
    @settings(max_examples=80, deadline=None)
    def test_gather_is_the_oracle(self, network, progressive, consistency_check, min_anchors):
        kwargs = dict(
            progressive=progressive, consistency_check=consistency_check,
            min_anchors=min_anchors,
        )
        got = _localize(localize_network, network, **kwargs)
        expected = _localize(_gather_oracle.localize_network, network, **kwargs)
        assert got == expected

    def test_edge_endpoint_outside_the_network_is_rejected(self):
        edges = EdgeList(
            pairs=np.array([[0, 1], [1, 5]]),
            distances=np.array([3.0, 4.0]),
            weights=np.ones(2),
        )
        with pytest.raises(ValidationError, match="edge endpoints"):
            localize_network(edges, {0: (0.0, 0.0)}, 3)
