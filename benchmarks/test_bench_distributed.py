"""Benchmarks the batched distributed-LSS pipeline against the scalar path.

The acceptance bar for the distributed-pipeline refactor:
``distributed_localize`` on a town-scale deployment (the
``town-distributed-lss`` scenario's geometry at its default size class)
must run at least 4x faster through the engine's stacked local-map and
transform kernels than through the per-problem scalar path, while
producing the same node coverage and the same accuracy to solver
tolerance.  Run with ``pytest benchmarks/test_bench_distributed.py -s``
to see the measured ratio.
"""

import numpy as np
import pytest

from repro.core import DistributedConfig, distributed_localize, evaluate_localization
from repro.deploy import town_layout
from repro.ranging import gaussian_ranges

from _timing import best_of, quiet_machine_only

SPEEDUP_FLOOR = 4.0


@pytest.fixture(scope="module")
def town_runs():
    """Both pipelines on a town-scale deployment with the paper's
    synthetic ranging model, run once for the whole module.

    Returns ``(positions, batched, batched_s, scalar, scalar_s)``; the
    batched time is the best of two runs, the scalar time a single run.
    """
    positions = town_layout(59, min_separation_m=6.0, rng=7)
    ranges = gaussian_ranges(positions, max_range_m=22.0, sigma_m=0.33, rng=8)
    centroid = positions.mean(axis=0)
    root = int(np.argmin(np.hypot(*(positions - centroid).T)))
    n = len(positions)

    def timed(solver, repeats):
        config = DistributedConfig(min_spacing_m=6.0, solver=solver)
        results = []
        seconds = best_of(
            lambda: results.append(
                distributed_localize(ranges, n, root, config=config, rng=2)
            ),
            repeats=repeats,
        )
        return results[-1], seconds

    batched, batched_s = timed("batched", repeats=2)
    scalar, scalar_s = timed("scalar", repeats=1)
    return positions, batched, batched_s, scalar, scalar_s


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
    """Batched/scalar local-map agreement, independent of wall clock.

    This is the tolerance-parity half of the acceptance bar, kept
    un-skipped on CI: both paths must localize the identical node set
    and agree on town-scale accuracy to solver tolerance.
    """
    positions, batched, _, scalar, _ = town_runs
    _assert_parity(positions, batched, scalar)


def test_default_distributed_pipeline_localizes_town(town_runs):
    """The default configuration takes the batched path, and that path
    localizes most of the town."""
    positions, batched, _, _, _ = town_runs
    assert DistributedConfig(min_spacing_m=6.0).solver == "batched"
    assert batched.localized.sum() > len(positions) // 2
