"""The one perturbation-restart driver against the loops it replaced.

Centralized LSS, its multi-seed stack and the stacked local maps all
run their restart rounds through ``engine.batch._lss_restarts``.
``tests/_restart_oracle.py`` keeps the three loops they ran before;
every result field and the generators' end states must be the same
bytes, over stacks of one to four configurations or problems, one to
four rounds, given and drawn starts, pins (a ``-0.0`` coordinate
included), a seed list that repeats one ``Generator``, and padded stacks
that mix seeded and unseeded problems.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _restart_oracle as oracle
from repro.core import LssConfig, lss_localize
from repro.core.measurements import EdgeList
from repro.engine import LocalLssProblem, lss_localize_multistart, solve_local_lss_stack


def _f64(value) -> bytes:
    return np.float64(value).tobytes()


def _assert_same_result(ours, theirs):
    assert ours.positions.tobytes() == theirs.positions.tobytes()
    assert _f64(ours.error) == _f64(theirs.error)
    assert _f64(ours.stress) == _f64(theirs.stress)
    assert ours.error_trace.tobytes() == theirs.error_trace.tobytes()
    assert ours.round_boundaries == theirs.round_boundaries
    assert ours.epochs_run == theirs.epochs_run
    assert ours.converged == theirs.converged


def _edges(rng, n_nodes, keep_frac) -> EdgeList:
    """Noisy ranges over a random subset (at least one) of the pairs of
    a random layout, with mixed weights."""
    layout = rng.uniform(0.0, 20.0, (n_nodes, 2))
    i, j = np.triu_indices(n_nodes, k=1)
    keep = rng.random(i.size) < keep_frac
    keep[rng.integers(i.size)] = True
    i, j = i[keep], j[keep]
    true = np.hypot(*(layout[i] - layout[j]).T)
    return EdgeList(
        pairs=np.stack([i, j], axis=1).astype(np.int64),
        distances=np.abs(true + rng.normal(0.0, 0.5, i.size)),
        weights=rng.choice([0.15, 0.5, 1.0], i.size),
    )


def _config(restarts, max_epochs, min_spacing_m, init_span_m):
    return LssConfig(
        min_spacing_m=min_spacing_m,
        restarts=restarts,
        max_epochs=max_epochs,
        perturbation_m=2.0,
        init_span_m=init_span_m,
    )


_SHARED = dict(
    seed=st.integers(0, 2**16),
    n_nodes=st.integers(3, 8),
    keep_frac=st.sampled_from([0.3, 0.7, 1.0]),
    restarts=st.integers(1, 4),
    max_epochs=st.integers(1, 60),
    min_spacing_m=st.sampled_from([None, 3.0, 8.0]),
    init_span_m=st.sampled_from([None, 15.0]),
    given_initial=st.booleans(),
    pins=st.sampled_from(["none", "one", "negative_zero"]),
)


def _shared_problem(seed, n_nodes, keep_frac, given_initial, pins):
    rng = np.random.default_rng(seed)
    edges = _edges(rng, n_nodes, keep_frac)
    initial = rng.uniform(0.0, 20.0, (n_nodes, 2)) if given_initial else None
    fixed = {
        "none": None,
        "one": {n_nodes - 1: rng.uniform(0.0, 20.0, 2)},
        "negative_zero": {0: [-0.0, 5.0], n_nodes - 1: [3.0, -0.0]},
    }[pins]
    return edges, initial, fixed


class TestSharedEdgeStacks:
    @given(**_SHARED)
    @settings(max_examples=60, deadline=None)
    def test_lss_localize_is_the_frozen_loop(
        self, seed, n_nodes, keep_frac, restarts, max_epochs, min_spacing_m,
        init_span_m, given_initial, pins,
    ):
        edges, initial, fixed = _shared_problem(seed, n_nodes, keep_frac, given_initial, pins)
        config = _config(restarts, max_epochs, min_spacing_m, init_span_m)
        runs = []
        for localize in (lss_localize, oracle.lss_localize):
            rng = np.random.default_rng(seed + 1)
            result = localize(
                edges, n_nodes, config=config, initial=initial, fixed_positions=fixed, rng=rng
            )
            runs.append((result, rng.bit_generator.state))
        (ours, our_state), (theirs, their_state) = runs
        _assert_same_result(ours, theirs)
        assert our_state == their_state

    @given(
        n_batch=st.integers(1, 4),
        seeding=st.sampled_from(["ints", "generators", "one_generator_repeated"]),
        **_SHARED,
    )
    @settings(max_examples=60, deadline=None)
    def test_multistart_is_the_frozen_loop(
        self, n_batch, seeding, seed, n_nodes, keep_frac, restarts, max_epochs,
        min_spacing_m, init_span_m, given_initial, pins,
    ):
        edges, initial, fixed = _shared_problem(seed, n_nodes, keep_frac, given_initial, pins)
        config = _config(restarts, max_epochs, min_spacing_m, init_span_m)

        def seeds():
            if seeding == "ints":
                return [seed + b for b in range(n_batch)]
            if seeding == "generators":
                return [np.random.default_rng(seed + b) for b in range(n_batch)]
            return [np.random.default_rng(seed)] * n_batch

        runs = []
        for localize in (lss_localize_multistart, oracle.lss_localize_multistart):
            drawn = seeds()
            results = localize(
                edges, n_nodes, config=config, seeds=drawn, initial=initial,
                fixed_positions=fixed,
            )
            states = [
                s.bit_generator.state for s in drawn if isinstance(s, np.random.Generator)
            ]
            runs.append((results, states))
        (ours, our_states), (theirs, their_states) = runs
        assert len(ours) == len(theirs) == n_batch
        for a, b in zip(ours, theirs):
            _assert_same_result(a, b)
        assert our_states == their_states


class TestPaddedStacks:
    @given(
        seed=st.integers(0, 2**16),
        sizes=st.lists(st.integers(3, 7), min_size=1, max_size=4),
        seeded=st.lists(st.booleans(), min_size=4, max_size=4),
        keep_frac=st.sampled_from([0.4, 1.0]),
        restarts=st.integers(1, 4),
        max_epochs=st.integers(1, 60),
        min_spacing_m=st.sampled_from([None, 3.0, 8.0]),
        init_span_m=st.sampled_from([None, 15.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_local_map_stack_is_the_frozen_loop(
        self, seed, sizes, seeded, keep_frac, restarts, max_epochs, min_spacing_m,
        init_span_m,
    ):
        rng = np.random.default_rng(seed)
        problems = [
            LocalLssProblem(
                n_nodes=n,
                edges=_edges(rng, n, keep_frac),
                initial=rng.uniform(0.0, 20.0, (n, 2)) if with_seed else None,
            )
            for n, with_seed in zip(sizes, seeded)
        ]
        config = _config(restarts, max_epochs, min_spacing_m, init_span_m)
        runs = []
        for solve in (solve_local_lss_stack, oracle.solve_local_lss_stack):
            generator = np.random.default_rng(seed + 1)
            solutions = solve(problems, config=config, rng=generator)
            runs.append((solutions, generator.bit_generator.state))
        (ours, our_state), (theirs, their_state) = runs
        assert len(ours) == len(theirs) == len(problems)
        for a, b in zip(ours, theirs):
            assert a.positions.tobytes() == b.positions.tobytes()
            assert _f64(a.error) == _f64(b.error)
            assert _f64(a.stress) == _f64(b.stress)
            assert a.converged == b.converged
        assert our_state == their_state
