"""Benchmarks the batched distributed-LSS pipeline against the scalar oracle.

The acceptance bar for the distributed-pipeline refactor:
``distributed_localize`` on a town-scale deployment (the
``town-distributed-lss`` scenario's geometry at its default size class)
must run at least 4x faster through the engine's stacked local-map
kernels than with the one-map-at-a-time oracle
(``solve_local_maps_scalar`` in ``tests/_oracles.py``) substituted for the batched
solve, while producing the same node coverage and the same accuracy to
solver tolerance.  Both sides fit the pairwise transforms in one
vectorized pass.  Run with ``pytest benchmarks/test_bench_distributed.py
-s`` to see the measured ratio.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import DistributedConfig, distributed, distributed_localize, evaluate_localization
from repro.deploy import town_layout
from repro.ranging import gaussian_ranges

from _oracles import solve_local_maps_scalar
from _timing import interleaved_best_of, quiet_machine_only

SPEEDUP_FLOOR = 4.0


@pytest.fixture(scope="module")
def town_runs():
    """Both pipelines on a town-scale deployment with the paper's
    synthetic ranging model, timed once for the whole module.

    Returns ``(positions, batched, batched_s, scalar, scalar_s)``; each
    time is the best of three runs taken in turn with the other side's.
    """
    positions = town_layout(59, min_separation_m=6.0, rng=7)
    ranges = gaussian_ranges(positions, max_range_m=22.0, sigma_m=0.33, rng=8)
    centroid = positions.mean(axis=0)
    root = int(np.argmin(np.hypot(*(positions - centroid).T)))
    n = len(positions)
    config = DistributedConfig(min_spacing_m=6.0)
    results = {}

    def batched():
        results["batched"] = distributed_localize(ranges, n, root, config=config, rng=2)

    def scalar():
        with mock.patch.object(distributed, "_solve_local_maps_batched", solve_local_maps_scalar):
            results["scalar"] = distributed_localize(ranges, n, root, config=config, rng=2)

    batched_s, scalar_s = interleaved_best_of([batched, scalar], repeats=3)
    return positions, results["batched"], batched_s, results["scalar"], scalar_s


def _assert_parity(positions, batched, scalar):
    assert np.array_equal(batched.localized, scalar.localized)
    rep_b = evaluate_localization(
        batched.positions, positions, localized_mask=batched.localized, align=True
    )
    rep_s = evaluate_localization(
        scalar.positions, positions, localized_mask=scalar.localized, align=True
    )
    assert abs(rep_b.average_error - rep_s.average_error) < 0.75


@quiet_machine_only
def test_distributed_speedup_on_town(town_runs):
    positions, batched, batched_t, scalar, scalar_t = town_runs

    # Parity first: the speedup claim is meaningless if results differ.
    _assert_parity(positions, batched, scalar)

    ratio = scalar_t / batched_t
    print(
        f"\ntown distributed_localize: scalar {scalar_t * 1000:.0f} ms, "
        f"batched {batched_t * 1000:.0f} ms -> {ratio:.1f}x"
    )
    assert ratio >= SPEEDUP_FLOOR, (
        f"batched distributed pipeline only {ratio:.2f}x faster than scalar "
        f"(need >= {SPEEDUP_FLOOR}x)"
    )


def test_batched_distributed_parity_pinned(town_runs):
    """Batched/oracle local-map agreement, independent of wall clock.

    This is the tolerance-parity half of the acceptance bar, kept
    un-skipped on CI: both paths must localize the identical node set
    and agree on town-scale accuracy to solver tolerance.
    """
    positions, batched, _, scalar, _ = town_runs
    _assert_parity(positions, batched, scalar)


def test_default_distributed_pipeline_localizes_town(town_runs):
    """The production (batched) path localizes most of the town."""
    positions, batched, _, _, _ = town_runs
    assert batched.localized.sum() > len(positions) // 2
