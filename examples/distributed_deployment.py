"""Distributed localization for large-scale deployments (Section 4.3).

The centralized algorithm needs every measurement at one node; the
distributed variant runs LSS per neighborhood, stitches the local
coordinate systems with rigid transforms estimated from shared
neighbors, and floods the root's frame through the network.  In the
simulator both heavy steps run through the engine's batched kernels:
every local map of the round descends in one stacked minimization and
every pairwise transform is fitted in one vectorized pass.

This example reproduces the paper's finding end-to-end:

* sparse field measurements -> bad pairwise transforms whose errors are
  amplified down the alignment tree (Figure 24),
* add synthetic ranges for unmeasured pairs -> sub-meter accuracy
  (Figure 25),
* the "best-tree" extension (prefer low-residual transforms) as a
  mitigation the paper lists as future work,

and finishes at the scenario front door: the same pipeline as a
registered Monte-Carlo workload (``grid-distributed-lss``) runnable by
id, cacheable in the result store, and schedulable adaptively.

Run:  python examples/distributed_deployment.py [--quick]
"""

import argparse

import numpy as np

from repro import core, deploy, ranging
from repro.acoustics import get_environment
from repro.ranging.filtering import confidence_weighted_edges
from repro.scenarios import get_scenario, run_scenario


def evaluate(result, positions, label):
    report = core.evaluate_localization(
        result.positions, positions, localized_mask=result.localized, align=True
    )
    print(f"  {label}: {report.n_localized}/{report.n_total} localized, "
          f"avg error {report.average_error:.2f} m")
    return report


def main(quick: bool = False):
    seed = 2005
    rounds = 1 if quick else 3
    n_extra = 150 if quick else 370
    positions = deploy.paper_grid(47)
    n = len(positions)

    # Field measurements (sparse, noisy).
    service = ranging.RangingService(environment=get_environment("grass")).calibrate(rng=seed)
    raw = ranging.run_campaign(positions, service, rounds=rounds, rng=seed + 1)
    edges = confidence_weighted_edges(ranging.triangle_filter(raw))
    print(f"sparse field data: {len(edges)} measured pairs for {n} nodes")

    # The paper's root node sits near (27, 36).
    root = int(np.argmin(np.hypot(positions[:, 0] - 27, positions[:, 1] - 36)))
    config = core.DistributedConfig(min_spacing_m=9.14)

    # ------------------------------------------------------------------
    # Step-by-step: local maps and transforms, through the batched
    # engine kernels.
    # ------------------------------------------------------------------
    maps = core.build_local_maps(edges, n, config=config, rng=seed)
    transforms = core.build_transforms(maps, config=config)
    rmses = np.array([t.rmse for t in transforms.values()])
    print(f"step 1: {len(maps)} local maps solved in one stacked descent "
          f"(median neighborhood size "
          f"{int(np.median([len(m.members) for m in maps.values()]))})")
    print(f"step 2: {len(transforms) // 2} pairwise transforms in one batched fit, "
          f"median residual {np.median(rmses):.2f} m, worst {rmses.max():.1f} m")

    # ------------------------------------------------------------------
    # Step 3: alignment -- sparse data (Figure 24).
    # ------------------------------------------------------------------
    print("step 3: alignment flood from root", root)
    sparse = core.distributed_localize(
        edges, n, root, config=config, rng=seed, local_maps=maps
    )
    evaluate(sparse, positions, "sparse measurements (fig 24)")

    # ------------------------------------------------------------------
    # Extended measurements (Figure 25).
    # ------------------------------------------------------------------
    extended_edges = ranging.augment_with_gaussian_ranges(
        edges, positions, max_range_m=22.0, sigma_m=0.33, n_extra=n_extra, rng=seed
    )
    extended = core.distributed_localize(
        extended_edges, n, root, config=config, rng=seed
    )
    evaluate(extended, positions, f"with {n_extra} synthetic ranges (fig 25)")

    # ------------------------------------------------------------------
    # Extension: quality-aware alignment tree.
    # ------------------------------------------------------------------
    best_cfg = core.DistributedConfig(min_spacing_m=9.14, tree="best")
    best = core.distributed_localize(edges, n, root, config=best_cfg, rng=seed)
    evaluate(best, positions, "sparse + min-residual tree (extension)")

    # ------------------------------------------------------------------
    # The scenario front door: the same pipeline as a registered
    # Monte-Carlo workload (store-backed and scheduler-compatible; see
    # `python -m repro run grid-distributed-lss`).
    # ------------------------------------------------------------------
    spec = get_scenario("grid-distributed-lss")
    n_trials = 2 if quick else 4
    campaign = run_scenario(spec, master_seed=seed, n_trials=n_trials, store=None)
    stats = campaign.aggregate()["mean_error_m"]
    print(f"scenario {spec.scenario_id} [{spec.spec_hash()[:12]}]: "
          f"{n_trials} trials, campaign mean error "
          f"{stats['mean']:.2f} m (min {stats['min']:.2f}, max {stats['max']:.2f})")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller campaign (smoke-test mode: fewer chirp rounds, "
        "fewer synthetic ranges, fewer scenario trials)",
    )
    main(quick=parser.parse_args().quick)
