"""Extension experiments: claims the paper makes in passing, verified.

ext-xsm      — the software tone-detector path (Section 3.7): shorter
               range and larger memory footprint than the hardware path.
ext-protocol — the distributed algorithm's cost claim (Section 4.3.1):
               "two local data exchanges per node and one round of
               flooding"; verified by running the algorithm as an
               actual message-passing protocol.
ext-scaling  — the motivation for the distributed variant (Section
               4.3): centralized LSS minimization cost grows quickly
               with network size, while distributed per-node work stays
               neighborhood-sized.
ext-campaign — the paper's evaluation style as a first-class workload:
               a seeded Monte-Carlo campaign of randomized
               multilateration trials through the scenario layer and the
               content-addressed result store, with reproducible
               aggregate statistics.
ext-sweep    — a density x noise x anchor-fraction scenario sweep run
               through the adaptive campaign scheduler: well-behaved
               cells stop early on a confidence-interval criterion and
               their records are a bit-identical prefix of the
               fixed-count campaign.
ext-distributed — the batched distributed-LSS pipeline (Section 4.3
               through the engine's stacked local-map and transform
               kernels) against the per-problem scalar reference:
               same-tolerance town-scale accuracy at a fraction of the
               wall-clock.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .. import telemetry
from .._validation import ensure_rng
from ..acoustics import get_environment
from ..core import (
    DistributedConfig,
    LssConfig,
    build_local_maps,
    distributed_localize,
    evaluate_localization,
    lss_localize,
    run_distributed_protocol,
)
from ..deploy import square_grid, town_layout
from ..ranging import RangingService, TdoaConfig, XsmRangingService, gaussian_ranges
from .base import ExperimentResult, ShapeCheck, register
from .common import DEFAULT_SEED


@register("ext-xsm")
def ext_xsm_software_detector(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Software tone detection: shorter range, bigger buffers.

    The paper reports the XSM path achieving "similar accuracy as the
    MICA hardware tone detector, but a shorter maximum range (10 m)"
    and needing "a 2 kB buffer ... with a sampling rate of 16 kHz" for
    20 m where the hardware path uses <500 B.
    """
    rng = ensure_rng(seed)
    env = get_environment("grass")
    tdoa = TdoaConfig(max_range_m=25.0)
    xsm = XsmRangingService(environment=env, tdoa=tdoa)
    mica = RangingService(environment=env, tdoa=tdoa).calibrate(rng=rng)

    # Range comparison under identical, nominal link conditions (zero
    # ground-cover gain): isolates the detector difference from the
    # luck of per-link draws.
    from ..ranging.link import LinkRealization

    nominal = LinkRealization(link_gain_db=0.0)
    distances = np.arange(4.0, 26.0, 1.0)
    xsm_range = 0.0
    mica_range = 0.0
    for d in distances:
        p_xsm = xsm.detection_probability(
            float(d), attempts=20, draw_link_gain=False, rng=rng
        )
        hits = 0
        for _ in range(20):
            est = mica.measure(float(d), link=nominal, rng=rng)
            if est is not None and abs(est - d) <= 3.0:
                hits += 1
        if p_xsm >= 0.5:
            xsm_range = float(d)
        if hits / 20 >= 0.5:
            mica_range = float(d)

    # Accuracy at a shared comfortable distance.
    xsm_errors = []
    mica_errors = []
    for _ in range(25):
        e = xsm.measure(8.0, rng=rng)
        if e is not None:
            xsm_errors.append(abs(e - 8.0))
        link = mica.link_simulator.draw_link(rng)
        e = mica.measure(8.0, link=link, rng=rng)
        if e is not None:
            mica_errors.append(abs(e - 8.0))
    xsm_median = float(np.median(xsm_errors))
    mica_median = float(np.median(mica_errors))

    software_bytes = xsm.buffer_bytes(bits_per_sample=8)
    hardware_bytes = XsmRangingService.hardware_buffer_bytes(tdoa.buffer_length)

    return ExperimentResult(
        experiment_id="ext-xsm",
        title="Software (XSM) vs hardware (MICA) tone-detection ranging",
        paper={
            "xsm_max_range_m": 10.0,
            "hardware_max_range_m": 20.0,
            "xsm_buffer_bytes_for_20m": 2048.0,
            "hardware_buffer_bytes": 500.0,
            "similar_accuracy_in_range": "yes",
        },
        measured={
            "xsm_max_range_m": xsm_range,
            "hardware_max_range_m": mica_range,
            "xsm_buffer_bytes": float(software_bytes),
            "hardware_buffer_bytes": float(hardware_bytes),
            "xsm_median_error_at_8m": xsm_median,
            "hardware_median_error_at_8m": mica_median,
        },
        checks=[
            ShapeCheck(
                "software path has shorter range than hardware path",
                xsm_range < mica_range,
                f"{xsm_range:.0f} vs {mica_range:.0f} m",
            ),
            ShapeCheck(
                "software buffers are several times larger",
                software_bytes >= 2 * hardware_bytes,
                f"{software_bytes} vs {hardware_bytes} bytes",
            ),
            ShapeCheck(
                "similar accuracy within range (both sub-meter medians)",
                xsm_median < 1.0 and mica_median < 1.0,
                f"{xsm_median:.2f} vs {mica_median:.2f} m",
            ),
        ],
    )


@register("ext-protocol")
def ext_protocol_cost(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Verify "two local data exchanges per node and one flood".

    Runs the distributed algorithm as a real protocol over the
    discrete-event radio simulator and counts broadcasts per phase.
    """
    rng = ensure_rng(seed)
    positions = square_grid(5, 5, spacing_m=10.0)
    ranges = gaussian_ranges(positions, max_range_m=16.0, sigma_m=0.1, rng=rng)
    config = DistributedConfig(min_spacing_m=10.0)
    result = run_distributed_protocol(
        ranges, positions, root=12, config=config, rng=rng
    )
    report = evaluate_localization(
        result.positions, positions, localized_mask=result.localized, align=True
    )
    n = len(positions)
    per_phase = result.messages_per_phase

    return ExperimentResult(
        experiment_id="ext-protocol",
        title="Distributed protocol message cost over a simulated radio",
        paper={
            "local_exchanges_per_node": 2.0,
            "floods": 1.0,
        },
        measured={
            "measurement_exchange_broadcasts": float(per_phase["measurement_exchange"]),
            "map_exchange_broadcasts": float(per_phase["map_exchange"]),
            "alignment_flood_broadcasts": float(per_phase["alignment_flood"]),
            "broadcasts_per_node": result.broadcasts_per_node,
            "average_error_m": report.average_error,
        },
        checks=[
            ShapeCheck(
                "exactly one broadcast per node per local exchange",
                per_phase["measurement_exchange"] == n
                and per_phase["map_exchange"] == n,
                f"{per_phase['measurement_exchange']}, {per_phase['map_exchange']} for n={n}",
            ),
            ShapeCheck(
                "flood costs at most one broadcast per node",
                per_phase["alignment_flood"] <= n,
                f"{per_phase['alignment_flood']} broadcasts",
            ),
            ShapeCheck(
                "protocol output is accurate",
                report.n_localized == n and report.average_error < 1.0,
                f"{report.n_localized}/{n}, {report.average_error:.2f} m",
            ),
        ],
    )


@register("ext-scaling")
def ext_scaling(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Centralized cost grows with n; distributed work stays local.

    "As more nodes are added, the number of terms in the error function
    increases, as does the number of local minima" — we count the terms
    of the error function the centralized LSS kernel evaluates per epoch
    at two network sizes (checked, read from the kernel's
    ``engine.batch.lss_terms`` / ``lss_iterations`` counters), time it
    per epoch at both (reported only: wall-clock ratios of runs this
    short swing with machine load), and measure the size of the largest
    problem any single node solves in the distributed pipeline.
    """
    rng = ensure_rng(seed)
    sizes = (16, 64)
    per_epoch = {}
    terms = {}
    outer = telemetry.current()
    for size in sizes:
        side = int(np.sqrt(size))
        positions = square_grid(side, side, spacing_m=10.0)
        ranges = gaussian_ranges(positions, max_range_m=16.0, sigma_m=0.33, rng=rng)
        config = LssConfig(min_spacing_m=10.0, restarts=1, max_epochs=300)
        start = time.perf_counter()
        with telemetry.capture() as recorder:
            result = lss_localize(ranges, size, config=config, rng=seed)
        elapsed = time.perf_counter() - start
        # The run's own trace goes on to any enclosing trace.
        outer.merge_worker(recorder.worker_data())
        per_epoch[size] = elapsed / max(result.epochs_run, 1)
        counters = recorder.counters
        terms[size] = counters.get("engine.batch.lss_terms", 0) / max(
            counters.get("engine.batch.lss_iterations", 0), 1
        )

    positions = square_grid(8, 8, spacing_m=10.0)
    ranges = gaussian_ranges(positions, max_range_m=16.0, sigma_m=0.33, rng=rng)
    maps = build_local_maps(
        ranges, 64, config=DistributedConfig(min_spacing_m=10.0), rng=seed
    )
    largest_local = max(len(m.members) for m in maps.values())

    growth = per_epoch[64] / max(per_epoch[16], 1e-12)
    term_growth = terms[64] / max(terms[16], 1e-12)
    return ExperimentResult(
        experiment_id="ext-scaling",
        title="Centralized epoch cost vs distributed local problem size",
        paper={"centralized_does_not_scale": "yes"},
        measured={
            "epoch_cost_16_nodes_s": per_epoch[16],
            "epoch_cost_64_nodes_s": per_epoch[64],
            "epoch_cost_growth_16_to_64": growth,
            "terms_per_epoch_16_nodes": float(terms[16]),
            "terms_per_epoch_64_nodes": float(terms[64]),
            "terms_per_epoch_growth_16_to_64": term_growth,
            "largest_local_problem_nodes": float(largest_local),
        },
        checks=[
            ShapeCheck(
                "centralized terms evaluated per epoch grow with network size",
                term_growth > 1.5,
                f"{term_growth:.1f}x terms per epoch from 16 to 64 nodes "
                f"(per-epoch wall time {growth:.1f}x)",
            ),
            ShapeCheck(
                "distributed nodes solve only neighborhood-sized problems",
                largest_local <= 16,
                f"largest local map has {largest_local} members (of 64)",
            ),
        ],
    )


@register("ext-aps")
def ext_aps_baselines(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """The related-work APS baselines, run instead of cited.

    Section 2: "The DV-hop and DV-distance techniques work well only
    for isotropic networks with uniform node density."  We run DV-hop
    on a uniform grid and on a C-shaped (anisotropic) cut of the same
    grid, and compare against LSS with actual range measurements.
    """
    from ..core import dv_hop_localize
    from ..deploy import spread_anchors

    rng = ensure_rng(seed)
    positions = square_grid(6, 6, spacing_m=10.0)
    n = len(positions)
    ranges = gaussian_ranges(positions, max_range_m=12.0, sigma_m=0.33, rng=rng)
    anchor_idx = spread_anchors(positions, 6)
    anchors = {int(i): positions[i] for i in anchor_idx}

    def evaluate_aps(result, truth):
        loc = result.localized & ~result.is_anchor
        report = evaluate_localization(result.positions[loc], truth[loc])
        return report.average_error

    iso_dvhop = evaluate_aps(dv_hop_localize(ranges, anchors, n), positions)

    # The 12 m range keeps only axis-aligned grid edges (degree ~3.7),
    # too sparse for random-start descent; seed from MDS-MAP as the
    # distributed pipeline does.
    from ..core import mds_map

    lss_init = mds_map(ranges.to_edge_list(), n)
    lss = lss_localize(
        ranges, n, config=LssConfig(min_spacing_m=10.0), initial=lss_init, rng=seed
    )
    iso_lss = evaluate_localization(lss.positions, positions, align=True).average_error

    # Anisotropic topology: carve a notch out of the grid (paths bend).
    keep = [
        i
        for i in range(n)
        if not (15.0 < positions[i][0] < 45.0 and positions[i][1] > 15.0)
    ]
    c_positions = positions[keep]
    c_ranges = gaussian_ranges(c_positions, max_range_m=12.0, sigma_m=0.33, rng=rng)
    c_anchor_idx = spread_anchors(c_positions, 6)
    c_anchors = {int(i): c_positions[i] for i in c_anchor_idx}
    aniso_dvhop = evaluate_aps(
        dv_hop_localize(c_ranges, c_anchors, len(c_positions)), c_positions
    )

    degradation = aniso_dvhop / max(iso_dvhop, 1e-9)
    return ExperimentResult(
        experiment_id="ext-aps",
        title="APS (DV-hop) baseline: isotropic vs anisotropic topologies",
        paper={
            "dv_hop_works_on_isotropic_networks": "yes",
            "dv_hop_degrades_on_anisotropic_layouts": "yes",
        },
        measured={
            "dv_hop_isotropic_error_m": iso_dvhop,
            "dv_hop_anisotropic_error_m": aniso_dvhop,
            "dv_hop_anisotropy_degradation": degradation,
            "lss_isotropic_error_m": iso_lss,
        },
        checks=[
            ShapeCheck(
                "DV-hop is usable on the isotropic grid (< half the spacing)",
                iso_dvhop < 5.0,
                f"{iso_dvhop:.2f} m",
            ),
            ShapeCheck(
                "DV-hop degrades >= 2x on the anisotropic topology",
                degradation >= 2.0,
                f"{iso_dvhop:.2f} -> {aniso_dvhop:.2f} m ({degradation:.1f}x)",
            ),
            ShapeCheck(
                "LSS with real ranges beats hop-count positioning",
                iso_lss < iso_dvhop,
                f"{iso_lss:.2f} vs {iso_dvhop:.2f} m",
            ),
        ],
    )


@register("ext-campaign")
def ext_campaign_statistics(seed: int = DEFAULT_SEED, store=None) -> ExperimentResult:
    """Monte-Carlo error statistics over randomized deployments.

    The paper reports single-campaign numbers; its qualitative claims
    (multilateration localizes accurately where enough anchors are in
    range) are really statements about the *distribution* over
    deployments and noise draws.  This driver runs the registered
    "uniform-multilateration" scenario through the store-backed campaign
    runner and checks the aggregate statistics are in the single-trial
    band — and exactly reproducible: the second run either replays the
    seed tree (no store) or reconstructs the campaign bit-identically
    from the content-addressed cache (with a store, doing zero
    simulation work — ``tests/test_scenarios.py`` pins that path).
    """
    from ..scenarios import get_scenario, run_scenario
    from ..store import aggregates_equal, records_equal

    spec = get_scenario("uniform-multilateration")
    result = run_scenario(spec, master_seed=seed, store=store)
    rerun = run_scenario(spec, master_seed=seed, store=store)
    agg = result.aggregate()
    mean_err = agg["mean_error_m"]["mean"]
    frac = agg["fraction_localized"]["mean"]
    reproducible = aggregates_equal(result, rerun) and records_equal(result, rerun)

    measured = {
        "n_trials": float(result.n_trials),
        "mean_error_m": mean_err,
        "median_error_m": agg["median_error_m"]["median"],
        "fraction_localized": frac,
        "trials_with_finite_error": agg["mean_error_m"]["n"],
    }
    if store is not None:
        measured["store_hits"] = float(store.stats.hits)
        measured["store_misses"] = float(store.stats.misses)

    return ExperimentResult(
        experiment_id="ext-campaign",
        title="Seeded Monte-Carlo campaign of randomized multilateration trials",
        paper={"localized_nodes_are_accurate": "yes"},
        measured=measured,
        checks=[
            ShapeCheck(
                "every trial localized a usable subset",
                agg["fraction_localized"]["min"] > 0.2,
                f"min fraction {agg['fraction_localized']['min']:.0%}",
            ),
            ShapeCheck(
                "campaign-mean error in the paper's accuracy band (< 2.5 m)",
                mean_err < 2.5,
                f"{mean_err:.2f} m over {result.n_trials} trials",
            ),
            ShapeCheck(
                "aggregates exactly reproducible from the master seed",
                reproducible,
                "",
            ),
        ],
        extras={"campaign": result, "spec": spec},
    )


@register("ext-sweep")
def ext_sweep(seed: int = DEFAULT_SEED, store=None) -> ExperimentResult:
    """Density x noise x anchor-fraction sweep through the scheduler.

    The ROADMAP's "as many scenarios as you can imagine" workload: one
    base scenario expanded over three axes (network density, ranging
    noise, anchor fraction) and every cell run through the adaptive
    campaign scheduler.  Well-behaved (dense) cells converge — 95% CI of
    the mean per-trial median localization error within a 20% relative
    half-width — long before the trial budget, while sparse cells (whose
    error distribution is heavy-tailed) run to the cap; the committed
    records of an early-stopped cell are a bit-identical prefix of the
    same-seed fixed-count campaign, which this driver verifies directly
    on the earliest-stopping cell.
    """
    from ..engine import CampaignResult, ConfidenceStop
    from ..scenarios import (
        AnchorSpec,
        DeploymentSpec,
        RangingSpec,
        ScenarioSpec,
        SolverSpec,
        run_scenario,
    )

    base = ScenarioSpec(
        scenario_id="ext-sweep",
        deployment=DeploymentSpec(
            kind="uniform", n_nodes=24, width_m=50.0, height_m=50.0, min_separation_m=4.0
        ),
        anchors=AnchorSpec(strategy="random", fraction=0.25),
        ranging=RangingSpec(model="gaussian", max_range_m=20.0, sigma_m=0.33),
        solver=SolverSpec(algorithm="multilateration"),
        n_trials=40,
    )
    specs = base.grid(
        {
            "deployment.n_nodes": [16, 32],
            "ranging.sigma_m": [0.1, 0.6],
            "anchors.fraction": [0.25, 0.4],
        }
    )
    stopping = ConfidenceStop(
        metric="median_error_m", tolerance=0.2, relative=True, min_trials=8
    )
    results = {
        spec.scenario_id: run_scenario(
            spec, master_seed=seed, stopping=stopping, store=store
        )
        for spec in specs
    }
    converged = {sid: r for sid, r in results.items() if r.converged}
    trials_run = sum(r.n_trials for r in results.values())
    budget = sum(spec.n_trials for spec in specs)

    # Prefix contract, verified end to end on the earliest-stopping cell:
    # rerun it as a fixed-count campaign and compare records/aggregates.
    prefix_ok = False
    if converged:
        earliest_id = min(converged, key=lambda sid: converged[sid].n_trials)
        early = converged[earliest_id]
        early_spec = next(s for s in specs if s.scenario_id == earliest_id)
        full = run_scenario(early_spec, master_seed=seed, store=store)
        from ..store import aggregates_equal, records_equal

        prefix = CampaignResult(
            master_seed=full.master_seed, records=full.records[: early.n_trials]
        )
        prefix_ok = records_equal(early, prefix) and aggregates_equal(early, prefix)

    # Qualitative shape: more noise -> more campaign-mean error, pooled
    # over the other two axes.
    def _pooled_mean_error(sigma: float) -> float:
        values = [
            r.aggregate()["mean_error_m"]["mean"]
            for sid, r in results.items()
            if f"ranging.sigma_m={sigma:g}" in sid
        ]
        return float(np.mean(values))

    low_noise = _pooled_mean_error(0.1)
    high_noise = _pooled_mean_error(0.6)

    measured = {
        "n_scenarios": float(len(specs)),
        "n_converged_early": float(
            sum(1 for r in converged.values() if r.trials_saved > 0)
        ),
        "trials_run": float(trials_run),
        "trial_budget": float(budget),
        "trials_saved_by_early_stopping": float(budget - trials_run),
        "pooled_error_low_noise_m": low_noise,
        "pooled_error_high_noise_m": high_noise,
    }
    return ExperimentResult(
        experiment_id="ext-sweep",
        title="Scenario sweep (density x noise x anchors) with early stopping",
        paper={"evaluation_is_statistics_over_randomized_trials": "yes"},
        measured=measured,
        checks=[
            ShapeCheck(
                "at least one sweep cell stops early",
                any(r.trials_saved > 0 for r in converged.values()),
                f"{measured['n_converged_early']:.0f}/{len(specs)} cells, "
                f"{budget - trials_run} trials saved",
            ),
            ShapeCheck(
                "early-stopped records are a bit-identical prefix of the "
                "fixed-count campaign",
                prefix_ok,
                "",
            ),
            ShapeCheck(
                "campaign-mean error grows with ranging noise",
                high_noise > low_noise,
                f"{low_noise:.2f} -> {high_noise:.2f} m",
            ),
        ],
        extras={"results": results, "specs": specs},
    )


@register("ext-distributed")
def ext_distributed_batched(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Batched distributed-LSS: the scalar pipeline's results, faster.

    The distributed algorithm (Section 4.3) is embarrassingly batchable
    in the simulator: a deployment's local maps are many small
    independent LSS problems and its pairwise transforms many small
    independent closed-form fits.  This driver runs the same town-scale
    deployment through the engine's stacked kernels
    (``solver="batched"``, the default) and through the per-problem
    scalar reference (``solver="scalar"``), and verifies the batched
    path is a faithful drop-in: every node localized, the same accuracy
    to solver tolerance, and a clear wall-clock win.
    """
    positions = town_layout(49, min_separation_m=6.0, rng=seed)
    ranges = gaussian_ranges(positions, max_range_m=22.0, sigma_m=0.33, rng=seed + 1)
    n = len(positions)
    centroid = positions.mean(axis=0)
    root = int(np.argmin(np.hypot(*(positions - centroid).T)))
    local_lss = LssConfig(restarts=3, max_epochs=400, perturbation_m=2.0)

    reports = {}
    timings = {}
    for solver in ("batched", "scalar"):
        config = DistributedConfig(
            local_lss=local_lss, min_spacing_m=6.0, solver=solver
        )
        start = time.perf_counter()
        result = distributed_localize(ranges, n, root, config=config, rng=seed)
        timings[solver] = time.perf_counter() - start
        reports[solver] = evaluate_localization(
            result.positions, positions, localized_mask=result.localized, align=True
        )

    batched, scalar = reports["batched"], reports["scalar"]
    speedup = timings["scalar"] / max(timings["batched"], 1e-9)
    error_gap = abs(batched.average_error - scalar.average_error)
    return ExperimentResult(
        experiment_id="ext-distributed",
        title="Batched vs scalar distributed-LSS pipeline (town scale)",
        paper={"distributed_algorithm_is_a_faithful_dropin": "yes"},
        measured={
            "batched_error_m": batched.average_error,
            "scalar_error_m": scalar.average_error,
            "batched_time_s": timings["batched"],
            "scalar_time_s": timings["scalar"],
            "speedup": speedup,
        },
        checks=[
            ShapeCheck(
                "both paths localize the same, near-complete node set",
                batched.n_localized == scalar.n_localized
                and batched.n_localized >= 0.9 * n,
                f"{batched.n_localized}/{n} batched, {scalar.n_localized}/{n} scalar",
            ),
            ShapeCheck(
                "batched accuracy matches scalar within tolerance",
                error_gap < 0.75,
                f"{batched.average_error:.2f} vs {scalar.average_error:.2f} m",
            ),
            # Wall-clock ratios are noise-bound on shared CI runners
            # (same policy as the benchmark speedup floors): the timing
            # check is informational there and enforced everywhere else.
            ShapeCheck(
                "batched path is clearly faster",
                speedup >= 1.5 or bool(os.environ.get("CI")),
                f"{speedup:.1f}x ({timings['scalar']:.2f} s -> {timings['batched']:.2f} s)",
            ),
        ],
    )
