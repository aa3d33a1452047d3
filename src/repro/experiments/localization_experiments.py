"""Drivers for the localization figures (Section 4).

fig11 — intersection consistency check vs collinear anchors
fig12 — multilateration, 15 nodes / 5 anchors, 25x25 m parking lot
fig14 — multilateration on the sparse grass-campaign measurements
fig16 — multilateration on the synthetically extended measurements
fig18 — centralized LSS with the min-spacing soft constraint
fig19 — centralized LSS without the constraint (ablation)
fig20 — multilateration, random 59-node town, synthetic ranges
fig21 — centralized LSS on the same data, zero anchors
fig22 — fig21 without the constraint (ablation)
fig23 — convergence traces with vs without the constraint
fig24 — distributed LSS on the sparse campaign measurements
fig25 — distributed LSS with 370 extra synthetic ranges
"""

from __future__ import annotations

import numpy as np

from .._validation import ensure_rng
from ..core import (
    DistributedConfig,
    LssConfig,
    distributed_localize,
    evaluate_localization,
    intersection_consistency_filter,
    localize_network,
    lss_localize_robust,
    trimmed_mean_error,
)
from ..core.measurements import MeasurementSet
from ..deploy import parking_lot_layout, random_anchors, spread_anchors
from ..ranging import augment_with_gaussian_ranges
from .base import ExperimentResult, ShapeCheck, register
from .common import DEFAULT_SEED, grass_campaign_edges, grid_positions, root_near

#: The paper's grid experiments: 9.14 m minimum spacing, w_D = 10.
GRID_MIN_SPACING_M = 9.14
PAPER_CONSTRAINT_WEIGHT = 10.0


def _grid_setup(seed: int, n_nodes: int = 46):
    positions = np.asarray(grid_positions(n_nodes))
    raw, edges = grass_campaign_edges(n_nodes=n_nodes, seed=seed)
    return positions, raw, edges


@register("fig11")
def fig11_intersection_consistency(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Collinear anchors produce scattered intersections and get dropped.

    Reconstruction of the paper's illustration: a node measured from
    four consistent anchors plus one nearly-collinear anchor whose
    slightly-wrong range produces intersection points far from the
    cluster.  The filter must keep the consistent anchors and drop the
    collinear one.
    """
    rng = ensure_rng(seed)
    target = np.array([0.0, 0.0])
    good_anchors = np.array([[12.0, 2.0], [-3.0, 11.0], [-10.0, -5.0], [6.0, -9.0]])
    # Anchor nearly collinear with the first (relative to the target),
    # with a 5% range error — the Figure 11 configuration.
    collinear = np.array([[-24.0, -4.0]])
    anchors = np.vstack([good_anchors, collinear])
    distances = np.hypot(anchors[:, 0] - target[0], anchors[:, 1] - target[1])
    distances[:4] += rng.normal(0.0, 0.05, size=4)
    distances[4] *= 1.25  # large error on the suspicious anchor

    kept = intersection_consistency_filter(anchors, distances, cluster_radius_m=1.0)
    dropped_bad = 4 not in kept
    kept_good = all(k in kept for k in range(4))

    return ExperimentResult(
        experiment_id="fig11",
        title="Intersection consistency check drops inconsistent anchors",
        paper={"inconsistent_anchor_dropped": "yes"},
        measured={
            "anchors_kept": float(len(kept)),
            "bad_anchor_dropped": str(dropped_bad),
        },
        checks=[
            ShapeCheck("erroneous anchor dropped", dropped_bad, f"kept={list(kept)}"),
            ShapeCheck("consistent anchors retained", kept_good, ""),
        ],
    )


@register("fig12")
def fig12_multilateration_small(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Multilateration, 15 nodes (5 anchors) in a 25x25 m lot: ~0.9 m.

    The paper's small-scale experiment predates the chirp pattern, so
    individual ranges carried larger errors; measurements were one-way
    (only anchors had loudspeakers) and median-filtered.  We model the
    per-range error as N(0, 0.4 m) to anchors only.
    """
    rng = ensure_rng(seed)
    positions = parking_lot_layout(15, rng=rng)
    anchor_idx = spread_anchors(positions, 5)
    anchor_positions = {int(i): positions[i] for i in anchor_idx}

    measurements = MeasurementSet()
    for a in anchor_idx:
        for j in range(len(positions)):
            if j in set(int(x) for x in anchor_idx):
                continue
            truth = float(np.hypot(*(positions[a] - positions[j])))
            noisy = max(0.0, truth + float(rng.normal(0.0, 0.4)))
            measurements.add_distance(int(a), int(j), noisy, true_distance=truth)

    result = localize_network(measurements, anchor_positions, len(positions))
    non_anchor = ~result.is_anchor
    localized = result.localized & non_anchor
    report = evaluate_localization(
        result.positions[localized], positions[localized]
    )

    return ExperimentResult(
        experiment_id="fig12",
        title="Multilateration, 15 nodes (5 anchors), 25x25 m lot",
        paper={"average_error_m": 0.868, "n_localized": 10.0},
        measured={
            "average_error_m": report.average_error,
            "n_localized": float(localized.sum()),
        },
        checks=[
            ShapeCheck(
                "all non-anchors localized",
                int(localized.sum()) == int(non_anchor.sum()),
                f"{localized.sum()}/{non_anchor.sum()}",
            ),
            ShapeCheck(
                "sub-1.5 m average error",
                report.average_error < 1.5,
                f"{report.average_error:.2f} m",
            ),
        ],
    )


@register("fig14")
def fig14_multilateration_sparse(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Multilateration on real sparse field measurements mostly fails.

    Paper: only 7 of 33 non-anchors (~20%) localized; average anchors
    per node 1.47; the localized few averaged 0.65 m error.
    """
    positions, raw, edges = _grid_setup(seed)
    rng = ensure_rng(seed)
    n = len(positions)
    anchor_idx = random_anchors(n, 13, rng=rng)
    anchor_positions = {int(i): positions[i] for i in anchor_idx}

    result = localize_network(edges, anchor_positions, n)
    non_anchor = ~result.is_anchor
    localized = result.localized & non_anchor
    frac = float(localized.sum()) / float(non_anchor.sum())
    report = evaluate_localization(result.positions[localized], positions[localized])

    return ExperimentResult(
        experiment_id="fig14",
        title="Multilateration on sparse field measurements (13 anchors / 46 nodes)",
        paper={
            "fraction_localized": 7.0 / 33.0,
            "avg_anchors_per_node": 1.47,
            "average_error_m": 0.653,
        },
        measured={
            "fraction_localized": frac,
            "avg_anchors_per_node": result.average_anchors_per_node,
            "average_error_m": report.average_error,
        },
        checks=[
            ShapeCheck(
                "only a minority of non-anchors localized",
                frac <= 0.5,
                f"{localized.sum()}/{non_anchor.sum()} ({frac:.0%})",
            ),
            ShapeCheck(
                "average anchors per node ~1-3 (below the 3 needed)",
                1.0 <= result.average_anchors_per_node <= 3.0,
                f"{result.average_anchors_per_node:.2f}",
            ),
        ],
        extras={"result": result},
    )


@register("fig16")
def fig16_multilateration_extended(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Multilateration recovers once synthetic ranges fill the gaps.

    Paper: ~80% localized; 3.5 m average (dominated by three badly
    localized nodes — a bad range and two local-minimum victims), 0.9 m
    without those three.
    """
    positions, raw, edges = _grid_setup(seed)
    rng = ensure_rng(seed)
    n = len(positions)
    anchor_idx = random_anchors(n, 13, rng=rng)
    anchor_positions = {int(i): positions[i] for i in anchor_idx}
    extended = augment_with_gaussian_ranges(
        edges, positions, max_range_m=22.0, sigma_m=0.33, rng=rng
    )

    result = localize_network(extended, anchor_positions, n)
    non_anchor = ~result.is_anchor
    localized = result.localized & non_anchor
    frac = float(localized.sum()) / float(non_anchor.sum())
    report = evaluate_localization(result.positions[localized], positions[localized])
    trimmed = trimmed_mean_error(report.errors, drop_worst=3)

    return ExperimentResult(
        experiment_id="fig16",
        title="Multilateration with synthetically extended measurements",
        paper={
            "fraction_localized": 0.8,
            "average_error_m": 3.524,
            "average_error_without_worst3_m": 0.9,
            "avg_anchors_per_node": 3.84,
        },
        measured={
            "fraction_localized": frac,
            "average_error_m": report.average_error,
            "average_error_without_worst3_m": trimmed,
            "avg_anchors_per_node": result.average_anchors_per_node,
        },
        checks=[
            ShapeCheck(
                "majority localized after extension",
                frac >= 0.6,
                f"{frac:.0%}",
            ),
            ShapeCheck(
                "anchors per node rose substantially vs fig14",
                result.average_anchors_per_node >= 3.0,
                f"{result.average_anchors_per_node:.2f}",
            ),
            ShapeCheck(
                "trimmed error ~1-2 m (local-minimum victims excluded)",
                trimmed <= 2.5,
                f"{trimmed:.2f} m",
            ),
        ],
        extras={"result": result},
    )


def _centralized_lss(seed: int, constrained: bool):
    positions, raw, edges = _grid_setup(seed, n_nodes=47)
    n = len(positions)
    config = LssConfig(
        min_spacing_m=GRID_MIN_SPACING_M if constrained else None,
        constraint_weight=PAPER_CONSTRAINT_WEIGHT,
    )
    result = lss_localize_robust(edges, n, config=config, rng=seed)
    report = evaluate_localization(result.positions, positions, align=True)
    return report, result


@register("fig18")
def fig18_lss_constrained(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Centralized LSS with the min-spacing constraint: ~2.2 m.

    Anchor-free localization of the full grid from the sparse field
    measurements; paper reports 2.2 m average (1.5 m without the worst
    five nodes).
    """
    report, result = _centralized_lss(seed, constrained=True)
    trimmed = trimmed_mean_error(report.errors, drop_worst=5)
    return ExperimentResult(
        experiment_id="fig18",
        title="Centralized LSS with min-spacing soft constraint",
        paper={
            "average_error_m": 2.229,
            "average_error_without_worst5_m": 1.5,
        },
        measured={
            "average_error_m": report.average_error,
            "average_error_without_worst5_m": trimmed,
            "final_objective": result.error,
        },
        checks=[
            ShapeCheck(
                "average error in the paper's band (1-4 m)",
                1.0 <= report.average_error <= 4.0,
                f"{report.average_error:.2f} m",
            ),
            ShapeCheck(
                "all nodes localized (no anchors required)",
                report.n_localized == report.n_total,
                f"{report.n_localized}/{report.n_total}",
            ),
        ],
        extras={"positions": result.positions, "trace": result.error_trace},
    )


@register("fig19")
def fig19_lss_unconstrained(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Centralized LSS without the constraint fails to converge (~16.6 m)."""
    report_c, _ = _centralized_lss(seed, constrained=True)
    report_u, result_u = _centralized_lss(seed, constrained=False)
    factor = report_u.average_error / max(report_c.average_error, 1e-9)
    return ExperimentResult(
        experiment_id="fig19",
        title="Centralized LSS without the min-spacing constraint",
        paper={"average_error_m": 16.609, "constrained_average_error_m": 2.229},
        measured={
            "average_error_m": report_u.average_error,
            "constrained_average_error_m": report_c.average_error,
            "degradation_factor": factor,
        },
        checks=[
            ShapeCheck(
                "unconstrained is >= 3x worse than constrained",
                factor >= 3.0,
                f"{report_u.average_error:.1f} vs {report_c.average_error:.1f} m",
            ),
            ShapeCheck(
                "unconstrained fails outright (>= 8 m average)",
                report_u.average_error >= 8.0,
                f"{report_u.average_error:.1f} m",
            ),
        ],
        extras={"trace": result_u.error_trace},
    )


def _town_setup(seed: int):
    """One draw of the registered "town-multilateration" scenario.

    The scenario spec is the single source of truth for the town
    geometry and noise model; fig20-fig23 sample one deployment from it
    (the paper's single reported campaign), while Monte-Carlo sweeps run
    the same spec through :func:`repro.scenarios.run_scenario`.  The
    draw order (deployment, anchors, ranges) matches the historical
    driver, so seeded results are unchanged.
    """
    from ..scenarios import draw_deployment, draw_ranges, get_scenario, select_anchors

    rng = ensure_rng(seed)
    spec = get_scenario("town-multilateration")
    positions = draw_deployment(spec.deployment, rng)
    anchor_idx = select_anchors(spec.anchors, positions, rng)
    ranges = draw_ranges(spec.ranging, positions, rng)
    return positions, anchor_idx, ranges


@register("fig20")
def fig20_multilateration_random(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Multilateration on the random town deployment: ~0.95 m.

    59 plausible positions, 18 random anchors, synthetic ranges
    N(0, 0.33) for pairs under 22 m; the paper localized 35 nodes with
    1.0 m average error.
    """
    positions, anchor_idx, ranges = _town_setup(seed)
    anchor_positions = {int(i): positions[i] for i in anchor_idx}
    n = len(positions)
    result = localize_network(ranges, anchor_positions, n)
    non_anchor = ~result.is_anchor
    localized = result.localized & non_anchor
    report = evaluate_localization(result.positions[localized], positions[localized])
    return ExperimentResult(
        experiment_id="fig20",
        title="Multilateration, random 59-node town (18 anchors)",
        paper={"n_localized": 35.0, "average_error_m": 0.950},
        measured={
            "n_localized": float(localized.sum()),
            "n_non_anchors": float(non_anchor.sum()),
            "average_error_m": report.average_error,
        },
        checks=[
            ShapeCheck(
                "a substantial subset localizes, but not everyone",
                0.2 <= localized.sum() / non_anchor.sum() < 1.0,
                f"{localized.sum()}/{non_anchor.sum()}",
            ),
            ShapeCheck(
                "localized nodes are accurate (~1 m band)",
                report.average_error <= 2.5,
                f"{report.average_error:.2f} m",
            ),
        ],
        extras={"result": result, "positions": positions},
    )


from functools import lru_cache


@lru_cache(maxsize=8)
def _town_lss_cached(seed: int, constrained: bool, attempts: int, restarts: int):
    return _town_lss_impl(seed, constrained, attempts=attempts, restarts=restarts)


def _town_lss(seed: int, constrained: bool, *, attempts: int = 3, restarts: int = 30):
    return _town_lss_cached(seed, constrained, attempts, restarts)


def _town_lss_impl(seed: int, constrained: bool, *, attempts: int, restarts: int):
    """Town LSS under the paper's keep-the-best-run protocol.

    The paper restarts minimization "until a reasonable minimum is
    reached or the maximum computation time limit expires", keeping the
    best configuration *by objective value* (no ground truth involved).
    We run `attempts` independent seeds and keep the lowest-objective
    run; this is where the soft constraint earns its keep — without it,
    a low stress value does not indicate a correct configuration.  The
    independent attempts advance in vectorized lockstep through the
    engine's multistart driver (one stacked descent per restart round).
    """
    from ..engine import lss_localize_multistart

    positions, _, ranges = _town_setup(seed)
    n = len(positions)
    config = LssConfig(
        min_spacing_m=9.0 if constrained else None,
        constraint_weight=PAPER_CONSTRAINT_WEIGHT,
        restarts=restarts,
        perturbation_m=8.0,
    )
    results = lss_localize_multistart(
        ranges, n, config=config, seeds=[seed + offset for offset in range(attempts)]
    )
    best = min(results, key=lambda result: result.error)
    report = evaluate_localization(best.positions, positions, align=True)
    return positions, best, report


@register("fig21")
def fig21_lss_random(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Centralized LSS, town deployment, zero anchors: ~0.55 m.

    "All the nodes were localized with average error of 0.5 m ... much
    better than multilateration, considering that no anchors were used."
    """
    positions, result, report = _town_lss(seed, constrained=True)
    fig20 = fig20_multilateration_random(seed)
    multilat_err = fig20.measured["average_error_m"]
    multilat_localized = fig20.measured["n_localized"]
    return ExperimentResult(
        experiment_id="fig21",
        title="Centralized LSS, random town, min-spacing constraint, 0 anchors",
        paper={"average_error_m": 0.548, "multilateration_error_m": 0.950},
        measured={
            "average_error_m": report.average_error,
            "multilateration_error_m": multilat_err,
            "n_localized": float(report.n_localized),
            "multilateration_n_localized": multilat_localized,
        },
        checks=[
            ShapeCheck(
                "all nodes localized without anchors",
                report.n_localized == report.n_total,
                f"{report.n_localized}/{report.n_total}",
            ),
            ShapeCheck(
                "average error below 1.2 m",
                report.average_error <= 1.2,
                f"{report.average_error:.2f} m",
            ),
            ShapeCheck(
                "LSS localizes far more nodes than multilateration at "
                "comparable accuracy (and with zero anchors)",
                report.n_localized > multilat_localized
                and report.average_error <= max(2.0 * multilat_err, 1.2),
                f"{report.n_localized} vs {multilat_localized:.0f} nodes; "
                f"{report.average_error:.2f} vs {multilat_err:.2f} m",
            ),
        ],
        extras={"trace": result.error_trace, "positions": result.positions},
    )


@register("fig22")
def fig22_lss_random_unconstrained(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Town LSS without the constraint: ~13.6 m (fails)."""
    _, result_u, report_u = _town_lss(seed, constrained=False)
    _, _, report_c = _town_lss(seed, constrained=True)
    factor = report_u.average_error / max(report_c.average_error, 1e-9)
    return ExperimentResult(
        experiment_id="fig22",
        title="Town LSS without the min-spacing constraint",
        paper={"average_error_m": 13.606, "constrained_average_error_m": 0.548},
        measured={
            "average_error_m": report_u.average_error,
            "constrained_average_error_m": report_c.average_error,
            "degradation_factor": factor,
        },
        checks=[
            ShapeCheck(
                "unconstrained >= 5x worse than constrained",
                factor >= 5.0,
                f"{factor:.1f}x",
            ),
        ],
        extras={"trace": result_u.error_trace},
    )


@register("fig23")
def fig23_convergence(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Error-vs-epoch: the constraint accelerates convergence.

    The paper notes the constrained objective has strictly more
    (positive) terms, so its floor is higher — yet it reaches a good
    configuration dramatically faster.  We compare the *measurement
    stress* achieved per epoch budget.
    """
    positions, con, rep_c = _town_lss(seed, constrained=True)
    _, unc, rep_u = _town_lss(seed, constrained=False)
    return ExperimentResult(
        experiment_id="fig23",
        title="Convergence with vs without the soft constraint",
        paper={"constraint_reaches_global_minimum_faster": "yes"},
        measured={
            "constrained_error_after_budget_m": rep_c.average_error,
            "unconstrained_error_after_budget_m": rep_u.average_error,
            "constrained_stress": con.stress,
            "unconstrained_stress": unc.stress,
        },
        checks=[
            ShapeCheck(
                "same compute budget: constrained converges, unconstrained doesn't",
                rep_c.average_error < rep_u.average_error / 3.0,
                f"{rep_c.average_error:.2f} vs {rep_u.average_error:.2f} m",
            ),
        ],
        extras={
            "constrained_trace": con.error_trace,
            "unconstrained_trace": unc.error_trace,
        },
    )


def _distributed_setup(seed: int):
    positions = np.asarray(grid_positions(47))
    raw, edges = grass_campaign_edges(n_nodes=47, seed=seed)
    root = root_near(positions, 27.0, 36.0)
    config = DistributedConfig(min_spacing_m=GRID_MIN_SPACING_M)
    return positions, edges, root, config


@register("fig24")
def fig24_distributed_sparse(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Distributed LSS on sparse measurements: bad transforms propagate.

    Paper: 9.5 m average error — "the bad transform of a pair of nodes
    caused large localization errors which were amplified and
    propagated ... only 247 total distance measurements were available".
    """
    positions, edges, root, config = _distributed_setup(seed)
    n = len(positions)
    result = distributed_localize(edges, n, root, config=config, rng=seed)
    report = evaluate_localization(
        result.positions, positions, localized_mask=result.localized, align=True
    )
    return ExperimentResult(
        experiment_id="fig24",
        title="Distributed LSS on sparse field measurements",
        paper={"average_error_m": 9.494},
        measured={
            "average_error_m": report.average_error,
            "n_measured_pairs": float(len(edges)),
        },
        checks=[
            ShapeCheck(
                "sparse distributed localization degrades badly (>= 4 m)",
                report.average_error >= 4.0,
                f"{report.average_error:.1f} m",
            ),
        ],
        extras={"result": result},
    )


@register("fig25")
def fig25_distributed_extended(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Distributed LSS with 370 extra synthetic ranges: ~0.5 m."""
    positions, edges, root, config = _distributed_setup(seed)
    n = len(positions)
    rng = ensure_rng(seed)
    extended = augment_with_gaussian_ranges(
        edges, positions, max_range_m=22.0, sigma_m=0.33, n_extra=370, rng=rng
    )
    result = distributed_localize(extended, n, root, config=config, rng=seed)
    report = evaluate_localization(
        result.positions, positions, localized_mask=result.localized, align=True
    )
    sparse = fig24_distributed_sparse(seed)
    return ExperimentResult(
        experiment_id="fig25",
        title="Distributed LSS with 370 additional synthetic ranges",
        paper={"average_error_m": 0.534, "sparse_average_error_m": 9.494},
        measured={
            "average_error_m": report.average_error,
            "sparse_average_error_m": sparse.measured["average_error_m"],
            "n_localized": float(report.n_localized),
        },
        checks=[
            ShapeCheck(
                "all nodes localized",
                report.n_localized == report.n_total,
                f"{report.n_localized}/{report.n_total}",
            ),
            ShapeCheck(
                "average error ~0.5-1.5 m",
                report.average_error <= 1.5,
                f"{report.average_error:.2f} m",
            ),
            ShapeCheck(
                "extension improves on sparse >= 5x",
                report.average_error
                <= sparse.measured["average_error_m"] / 5.0,
                f"{sparse.measured['average_error_m']:.1f} -> {report.average_error:.2f} m",
            ),
        ],
        extras={"result": result},
    )
