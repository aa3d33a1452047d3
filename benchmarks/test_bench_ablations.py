"""Ablation benchmarks for the pipeline's design choices.

Each ablation compares two implementations of the same stage on
identical inputs and prints the accuracy trade-off:

* Pairwise transform estimator: closed-form (mote-tractable) vs full
  minimization.
* Alignment tree: the paper's plain flood (BFS) vs the minimum-residual
  tree extension.
* Soft-constraint weight ``w_D``: the paper fixed 10; sweep it.

It also checks the paper's LSS gradient descent on the 47-node grid.
"""

import numpy as np
import pytest

from repro.core import (
    DistributedConfig,
    LssConfig,
    distributed_localize,
    estimate_transform_closed_form,
    evaluate_localization,
    lss_localize,
)
from repro.core.geometry import apply_transform, rigid_transform_matrix
from repro.deploy import paper_grid
from repro.ranging import augment_with_gaussian_ranges, gaussian_ranges
from repro.experiments.common import DEFAULT_SEED, grass_campaign_edges, grid_positions

from _oracles import estimate_transform_minimize


@pytest.fixture(scope="module")
def grid_ranges():
    positions = paper_grid(47)
    ranges = gaussian_ranges(positions, max_range_m=22.0, sigma_m=0.33, rng=7)
    return positions, ranges


def test_lss_gradient_descent(grid_ranges):
    """Accuracy of the paper's gradient descent on the 47-node grid.

    Its agreement with an L-BFGS oracle on the same problem is checked
    in ``tests/test_lss.py``.
    """
    positions, ranges = grid_ranges
    n = len(positions)
    gd = lss_localize(ranges, n, config=LssConfig(min_spacing_m=9.0), rng=7)
    err_gd = evaluate_localization(gd.positions, positions, align=True).average_error
    print(f"\n  gd: avg error {err_gd:.3f} m, objective {gd.error:.2f}")
    assert err_gd < 1.0


def test_transform_method_ablation():
    """Closed-form vs minimization transform estimation accuracy."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(60):
        src = rng.uniform(0, 20, (6, 2))
        t = rigid_transform_matrix(
            rng.uniform(-np.pi, np.pi), *rng.uniform(-10, 10, 2), rng.random() < 0.5
        )
        tgt = apply_transform(src, t) + rng.normal(0, 0.2, (6, 2))
        cases.append((src, tgt))

    closed = [estimate_transform_closed_form(s, t).rmse for s, t in cases]
    minimized = [estimate_transform_minimize(s, t).rmse for s, t in cases]
    print(f"\n  closed-form rmse: median {np.median(closed):.4f}")
    print(f"  minimize    rmse: median {np.median(minimized):.4f}")
    # The paper's claim: closed form is "slightly less accurate".
    assert np.median(closed) <= 1.5 * np.median(minimized) + 1e-6


def test_alignment_tree_ablation():
    """BFS flood (paper) vs minimum-residual alignment tree."""
    positions = np.asarray(grid_positions(47))
    _, edges = grass_campaign_edges(n_nodes=47, seed=DEFAULT_SEED)
    rng = np.random.default_rng(DEFAULT_SEED)
    extended = augment_with_gaussian_ranges(
        edges, positions, max_range_m=22.0, sigma_m=0.33, n_extra=370, rng=rng
    )
    n = len(positions)
    bfs_cfg = DistributedConfig(min_spacing_m=9.14, tree="bfs")
    bfs = distributed_localize(extended, n, root=24, config=bfs_cfg, rng=5)
    best_cfg = DistributedConfig(min_spacing_m=9.14, tree="best")
    best = distributed_localize(extended, n, root=24, config=best_cfg, rng=5)
    err_bfs = evaluate_localization(
        bfs.positions, positions, localized_mask=bfs.localized, align=True
    ).average_error
    err_best = evaluate_localization(
        best.positions, positions, localized_mask=best.localized, align=True
    ).average_error
    print(f"\n  bfs tree:  avg error {err_bfs:.3f} m")
    print(f"  best tree: avg error {err_best:.3f} m")
    assert err_best <= 2.0 * err_bfs + 0.5


def test_constraint_weight_sweep(grid_ranges):
    """Sweep w_D around the paper's value of 10."""
    positions, ranges = grid_ranges
    n = len(positions)
    results = {}
    for weight in (1.0, 10.0, 100.0):
        config = LssConfig(min_spacing_m=9.0, constraint_weight=weight, restarts=4)
        res = lss_localize(ranges, n, config=config, rng=7)
        report = evaluate_localization(res.positions, positions, align=True)
        results[weight] = report.average_error
    print()
    for weight, err in results.items():
        print(f"  w_D = {weight:>6.1f}: avg error {err:.3f} m")
    # The paper's choice (10) must be in the working regime.
    assert results[10.0] < 1.5
