"""Benchmarks the batched engine against the scalar reference oracle.

The acceptance bar for the engine refactor: ``localize_network`` on the
Fig. 16 extended-network configuration must run at least 5x faster
through the batched solver than with the per-node scalar oracle
(``solve_batch_scalar`` in ``tests/_oracles.py``) substituted for the engine
function, while producing the same result (checked on its own, also on
CI).  Run with
``pytest benchmarks/test_bench_engine.py -s`` to see the measured ratio.
"""

from unittest import mock

import numpy as np
import pytest

import repro.engine.batch
from repro._validation import ensure_rng
from repro.core import localize_network
from repro.deploy import random_anchors
from repro.experiments import DEFAULT_SEED
from repro.experiments.localization_experiments import _grid_setup
from repro.ranging import augment_with_gaussian_ranges

from _oracles import solve_batch_scalar
from _timing import interleaved_best_of, quiet_machine_only

SPEEDUP_FLOOR = 5.0


@pytest.fixture(scope="module")
def fig16_problem():
    """The Fig. 16 extended-network configuration at the default seed."""
    positions, _, edges = _grid_setup(DEFAULT_SEED)
    rng = ensure_rng(DEFAULT_SEED)
    n = len(positions)
    anchor_idx = random_anchors(n, 13, rng=rng)
    anchors = {int(i): positions[i] for i in anchor_idx}
    extended = augment_with_gaussian_ranges(
        edges, positions, max_range_m=22.0, sigma_m=0.33, rng=rng
    )
    return extended, anchors, n


@pytest.fixture(scope="module")
def fig16_pipelines(fig16_problem):
    """The batched and scalar ``localize_network`` calls on Fig. 16 and
    one result of each, computed once for the whole module."""
    measurements, anchors, n = fig16_problem

    def batched():
        return localize_network(measurements, anchors, n)

    def scalar():
        with mock.patch.object(
            repro.engine.batch, "solve_multilateration_batch", solve_batch_scalar
        ):
            return localize_network(measurements, anchors, n)

    return batched, scalar, batched(), scalar()


def _assert_parity(b, s):
    assert np.array_equal(b.localized, s.localized)
    mask = b.localized & ~b.is_anchor
    np.testing.assert_allclose(b.positions[mask], s.positions[mask], atol=1e-5)


def test_engine_parity_on_fig16(fig16_pipelines):
    """Batched/scalar agreement on Fig. 16, independent of wall clock.

    The parity half of the speedup bar, kept un-skipped on CI: both
    solvers localize the identical node set at the same positions.
    """
    _, _, b, s = fig16_pipelines
    assert (b.localized & ~b.is_anchor).any()
    _assert_parity(b, s)


@quiet_machine_only
def test_engine_speedup_on_fig16(fig16_pipelines):
    batched, scalar, b, s = fig16_pipelines

    # Parity first: the speedup claim is meaningless if results differ.
    _assert_parity(b, s)

    batched_t, scalar_t = interleaved_best_of([batched, scalar], repeats=5)
    ratio = scalar_t / batched_t
    print(
        f"\nfig16 localize_network: scalar {scalar_t * 1000:.1f} ms, "
        f"batched {batched_t * 1000:.1f} ms -> {ratio:.1f}x"
    )
    assert ratio >= SPEEDUP_FLOOR, (
        f"batched engine only {ratio:.2f}x faster than scalar "
        f"(need >= {SPEEDUP_FLOOR}x)"
    )


@quiet_machine_only
def test_multistart_lss_faster_than_sequential():
    """Stacked multi-seed LSS beats an equivalent sequential loop."""
    from repro.core import LssConfig, lss_localize
    from repro.deploy import square_grid
    from repro.engine import lss_localize_multistart
    from repro.ranging import gaussian_ranges

    positions = square_grid(5, 5, spacing_m=10.0)
    n = len(positions)
    ranges = gaussian_ranges(positions, max_range_m=16.0, sigma_m=0.33, rng=1)
    config = LssConfig(min_spacing_m=10.0, restarts=2, max_epochs=400)
    seeds = [10, 11, 12, 13]

    stacked_t, sequential_t = interleaved_best_of(
        [
            lambda: lss_localize_multistart(ranges, n, config=config, seeds=seeds),
            lambda: [lss_localize(ranges, n, config=config, rng=s) for s in seeds],
        ],
        repeats=3,
    )
    ratio = sequential_t / stacked_t
    print(
        f"\n4-seed LSS: sequential {sequential_t * 1000:.0f} ms, "
        f"stacked {stacked_t * 1000:.0f} ms -> {ratio:.1f}x"
    )
    # Lockstep batching must at least clearly beat the loop; the exact
    # factor depends on how unevenly the seeds' rounds terminate.
    assert ratio >= 1.3
