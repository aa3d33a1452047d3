"""Drivers for the ranging-service figures (Section 3).

fig2  — baseline service errors in the urban deployment
fig4  — baseline service + median filtering
fig5  — the offset grid deployment pattern
fig6  — refined-service error histogram on grass
fig7  — the same restricted to bidirectional pairs
fig8  — measured vs actual distance scatter
fig10 — the sliding-DFT software tone detector
text-range — maximum/reliable detection ranges per environment
text-sync  — clock-sync error contribution
text-chirp — chirp-length ablation (8 ms vs 64 ms vs 4 ms)
"""

from __future__ import annotations

import numpy as np

from .._validation import ensure_rng
from ..acoustics import ChirpPattern, get_environment, synthesize_waveform
from ..core.evaluation import error_histogram
from ..deploy import offset_grid, uniform_random_layout
from ..network.clock import sync_ranging_error_m
from ..ranging import (
    RangingService,
    bidirectional_filter,
    median_filter,
    run_campaign,
    tone_detect_waveform,
)
from .base import ExperimentResult, ShapeCheck, register
from .common import DEFAULT_SEED, grass_campaign_edges


def _signed_errors(measurements) -> np.ndarray:
    return measurements.signed_errors()


@register("fig2")
def fig2_baseline_ranging(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Baseline (single-chirp, first-hit) ranging in the urban site.

    The paper deployed 60 motes among buildings and recorded distances
    up to 30 m; "many of the measurements with >1 m errors are
    underestimates" caused by noise and echoes of earlier chirps.
    """
    rng = ensure_rng(seed)
    env = get_environment("urban")
    service = RangingService(environment=env, mode="baseline").calibrate(rng=rng)
    positions = uniform_random_layout(
        60, width_m=70.0, height_m=50.0, min_separation_m=5.0, rng=rng
    )
    measurements = run_campaign(positions, service, rounds=1, rng=rng)
    errors = _signed_errors(measurements)
    big = errors[np.abs(errors) > 1.0]
    frac_big = big.size / errors.size
    frac_under_among_big = float((big < 0).mean()) if big.size else 0.0
    max_distance = max(m.true_distance for m in measurements)

    return ExperimentResult(
        experiment_id="fig2",
        title="Baseline ranging errors, urban 60-node deployment",
        paper={
            "max_recorded_distance_m": 30.0,
            "large_errors_mostly_underestimates": "yes",
        },
        measured={
            "n_measurements": float(errors.size),
            "max_recorded_distance_m": float(max_distance),
            "fraction_abs_error_gt_1m": float(frac_big),
            "fraction_underestimates_among_large": frac_under_among_big,
        },
        checks=[
            ShapeCheck(
                "baseline produces a substantial large-error population",
                0.05 <= frac_big <= 0.8,
                f"{frac_big:.0%} of errors exceed 1 m",
            ),
            ShapeCheck(
                "large errors are mostly underestimates",
                frac_under_among_big > 0.5,
                f"{frac_under_among_big:.0%} of >1 m errors are negative",
            ),
            ShapeCheck(
                "measurements recorded to roughly 30 m",
                max_distance >= 20.0,
                f"max distance {max_distance:.1f} m",
            ),
        ],
        extras={"errors": errors},
    )


@register("fig4")
def fig4_median_filter(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Baseline ranging with median filtering of up to five measurements.

    Statistical filtering "is quite effective at discounting
    uncorrelated errors caused by random, one-time events": the
    large-error fraction should drop substantially versus fig2.
    """
    rng = ensure_rng(seed)
    env = get_environment("urban")
    service = RangingService(environment=env, mode="baseline").calibrate(rng=rng)
    positions = uniform_random_layout(
        60, width_m=70.0, height_m=50.0, min_separation_m=5.0, rng=rng
    )
    raw = run_campaign(positions, service, rounds=5, rng=rng)
    raw_errors = _signed_errors(raw)
    filtered = median_filter(raw, max_rounds=5)
    filtered_errors = _signed_errors(filtered)

    raw_big = float((np.abs(raw_errors) > 1.0).mean())
    filt_big = float((np.abs(filtered_errors) > 1.0).mean())
    improvement = raw_big / filt_big if filt_big > 0 else float("inf")

    # Median filtering only has leverage where several measurements
    # exist and the link is genuinely measurable; links beyond acoustic
    # range produce garbage every round and no statistic can save them
    # (the paper's Figure 4 still shows those).  Quantify the effect on
    # the well-measured sub-population.
    well_raw = []
    well_filtered = []
    for (i, j) in raw.directed_pairs:
        history = raw.get(i, j)
        if len(history) < 3 or history[0].true_distance > 20.0:
            continue
        well_raw.extend(m.error for m in history)
        for m in filtered.get(i, j):
            well_filtered.append(m.error)
    well_raw = np.asarray(well_raw)
    well_filtered = np.asarray(well_filtered)
    wr_big = float((np.abs(well_raw) > 1.0).mean()) if well_raw.size else 0.0
    wf_big = float((np.abs(well_filtered) > 1.0).mean()) if well_filtered.size else 0.0
    well_improvement = wr_big / wf_big if wf_big > 0 else float("inf")

    return ExperimentResult(
        experiment_id="fig4",
        title="Baseline ranging with median filtering (<=5 measurements)",
        paper={"filtering_reduces_outliers": "yes"},
        measured={
            "raw_fraction_gt_1m": raw_big,
            "median_filtered_fraction_gt_1m": filt_big,
            "outlier_reduction_factor": float(improvement),
            "well_measured_raw_fraction_gt_1m": wr_big,
            "well_measured_filtered_fraction_gt_1m": wf_big,
            "well_measured_reduction_factor": float(well_improvement),
        },
        checks=[
            ShapeCheck(
                "median filtering reduces the overall large-error fraction",
                filt_big <= raw_big,
                f"{raw_big:.1%} -> {filt_big:.1%}",
            ),
            ShapeCheck(
                "on well-measured links (>=3 rounds, in range) the "
                "large-error fraction drops >= 2x",
                well_improvement >= 2.0,
                f"{wr_big:.1%} -> {wf_big:.1%} ({well_improvement:.1f}x)",
            ),
        ],
        extras={"raw_errors": raw_errors, "filtered_errors": filtered_errors},
    )


@register("fig5")
def fig5_grid(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """The 7x7 offset grid with 9 m / 10 m nearest-neighbor spacings."""
    grid = offset_grid()
    from ..core.geometry import pairwise_distances

    dist = pairwise_distances(grid)
    np.fill_diagonal(dist, np.inf)
    nearest = np.sort(np.unique(np.round(dist.min(axis=1), 2)))
    second = sorted({round(float(np.sort(row)[1]), 2) for row in dist})
    spacings = sorted(set(np.round(np.partition(dist.ravel(), 96)[:200], 2)))
    has_9 = any(abs(s - 9.0) < 0.01 for s in nearest)
    diag = float(np.hypot(9.0, 4.5))
    has_10 = bool(np.any(np.isclose(dist, diag, atol=0.01)))

    return ExperimentResult(
        experiment_id="fig5",
        title="Offset grid deployment pattern (9 m / ~10 m spacing)",
        paper={"n_slots": 49.0, "spacing_a_m": 9.0, "spacing_b_m": 10.0},
        measured={
            "n_slots": float(grid.shape[0]),
            "spacing_a_m": float(nearest[0]),
            "spacing_b_m": diag,
        },
        checks=[
            ShapeCheck("49 grid slots", grid.shape[0] == 49, f"{grid.shape[0]} slots"),
            ShapeCheck("9 m same-column spacing present", has_9, str(nearest[:3])),
            ShapeCheck(
                "~10 m offset-diagonal spacing present",
                has_10 and abs(diag - 10.0) < 0.25,
                f"diagonal {diag:.2f} m",
            ),
        ],
        extras={"positions": grid},
    )


@register("fig6")
def fig6_error_histogram(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Refined-service error histogram on grass (46 nodes, 3 rounds).

    Expected features (Section 3.6.1): a near-zero-mean bell within
    +/-30 cm; a right-skewed cluster of moderate overestimates; rare
    large-magnitude errors (the paper saw up to ~11 m).
    """
    raw, _ = grass_campaign_edges(n_nodes=46, seed=seed)
    errors = _signed_errors(raw)
    core = errors[np.abs(errors) <= 0.3]
    frac_core = core.size / errors.size
    mean_core = float(core.mean())
    moderate = errors[(np.abs(errors) > 0.3) & (np.abs(errors) <= 3.0)]
    frac_over_moderate = float((moderate > 0).mean()) if moderate.size else 0.0
    frac_large = float((np.abs(errors) > 1.0).mean())
    max_abs = float(np.abs(errors).max())
    edges_hist, counts = error_histogram(errors, bin_width=0.1)

    return ExperimentResult(
        experiment_id="fig6",
        title="Refined ranging error histogram, 46 nodes on grass",
        paper={
            "core_band_m": 0.3,
            "core_mean_m": 0.0,
            "max_abs_error_m": 11.0,
            "moderate_errors_skew_right": "yes",
        },
        measured={
            "n_measurements": float(errors.size),
            "fraction_in_core_band": float(frac_core),
            "core_mean_m": mean_core,
            "fraction_abs_gt_1m": frac_large,
            "max_abs_error_m": max_abs,
            "fraction_overestimates_among_moderate": frac_over_moderate,
        },
        checks=[
            ShapeCheck(
                "most errors in the +/-30 cm bell",
                frac_core >= 0.6,
                f"{frac_core:.0%} within +/-30 cm",
            ),
            ShapeCheck(
                "bell is near zero-mean",
                abs(mean_core) <= 0.1,
                f"core mean {mean_core*100:.1f} cm",
            ),
            ShapeCheck(
                "moderate errors cluster right (overestimation)",
                frac_over_moderate >= 0.5,
                f"{frac_over_moderate:.0%} of 0.3-3 m errors positive",
            ),
            ShapeCheck(
                "rare large-magnitude errors exist",
                0.0 < frac_large < 0.25 and max_abs > 3.0,
                f"{frac_large:.1%} beyond 1 m, max {max_abs:.1f} m",
            ),
        ],
        extras={"errors": errors, "hist_edges": edges_hist, "hist_counts": counts},
    )


@register("fig7")
def fig7_bidirectional(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Error histogram restricted to bidirectional pairs.

    "Fortunately, most of these [large] errors are eliminated with the
    bidirectional consistency check."
    """
    raw, _ = grass_campaign_edges(n_nodes=46, seed=seed)
    all_errors = _signed_errors(raw)
    filtered = bidirectional_filter(raw, keep_unpaired=False)
    bi_errors = _signed_errors(filtered)
    p95_before = float(np.percentile(np.abs(all_errors), 95))
    p95_after = float(np.percentile(np.abs(bi_errors), 95)) if bi_errors.size else 0.0
    frac_large_before = float((np.abs(all_errors) > 1.0).mean())
    frac_large_after = float((np.abs(bi_errors) > 1.0).mean()) if bi_errors.size else 0.0

    return ExperimentResult(
        experiment_id="fig7",
        title="Ranging errors for bidirectional pairs only",
        paper={"large_errors_mostly_eliminated": "yes"},
        measured={
            "p95_abs_error_before_m": p95_before,
            "p95_abs_error_after_m": p95_after,
            "fraction_gt_1m_before": frac_large_before,
            "fraction_gt_1m_after": frac_large_after,
        },
        checks=[
            ShapeCheck(
                "large-error fraction cut >= 2x by the bidirectional check",
                frac_large_after <= frac_large_before / 2.0,
                f"{frac_large_before:.1%} -> {frac_large_after:.1%}",
            ),
            ShapeCheck(
                "95th-percentile |error| lands in the sub-meter regime",
                p95_after <= max(1.0, p95_before / 3.0),
                f"p95 {p95_before:.2f} -> {p95_after:.2f} m",
            ),
        ],
        extras={"all_errors": all_errors, "bidirectional_errors": bi_errors},
    )


@register("fig8")
def fig8_distance_scatter(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Measured vs actual distance: outliers grow with distance.

    "Large-magnitude errors are more common at longer distances" —
    lower SNR and a longer pre-arrival window for false detections.
    """
    raw, _ = grass_campaign_edges(n_nodes=46, seed=seed)
    pairs = [(m.true_distance, m.distance) for m in raw]
    actual = np.array([p[0] for p in pairs])
    measured = np.array([p[1] for p in pairs])
    errors = measured - actual
    near = np.abs(errors[actual <= 10.0])
    far = np.abs(errors[actual > 14.0])
    near_rate = float((near > 1.0).mean()) if near.size else 0.0
    far_rate = float((far > 1.0).mean()) if far.size else 0.0

    return ExperimentResult(
        experiment_id="fig8",
        title="Measured vs actual distances on grass",
        paper={"outlier_rate_grows_with_distance": "yes"},
        measured={
            "outlier_rate_below_10m": near_rate,
            "outlier_rate_above_14m": far_rate,
        },
        checks=[
            ShapeCheck(
                "far links have a higher large-error rate than near links",
                far_rate > near_rate,
                f"{near_rate:.1%} (<=10 m) vs {far_rate:.1%} (>14 m)",
            ),
        ],
        extras={"actual": actual, "measured": measured},
    )


@register("fig10")
def fig10_dft_filter(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Sliding-DFT tone detection on clean and noisy waveforms.

    The paper's demonstration: on the noisy signal "three of the four
    chirps are correctly detected, with no false positives".
    """
    rng = ensure_rng(seed)
    fs = 16_000.0
    clean = synthesize_waveform(
        num_chirps=4, frequency_hz=4_000.0, sampling_rate_hz=fs, amplitude=500.0
    )
    noisy = synthesize_waveform(
        num_chirps=4,
        frequency_hz=4_000.0,
        sampling_rate_hz=fs,
        amplitude=500.0,
        noise_std=300.0,
        rng=rng,
    )
    clean_onsets, clean_energy = tone_detect_waveform(clean)
    noisy_onsets, noisy_energy = tone_detect_waveform(noisy)
    period = int(0.012 * fs)
    start = int(0.004 * fs)
    true_onsets = np.array([start + k * period for k in range(4)])

    def match(onsets):
        hits = 0
        false_pos = 0
        for onset in onsets:
            if np.min(np.abs(true_onsets - onset)) <= 40:
                hits += 1
            else:
                false_pos += 1
        return hits, false_pos

    clean_hits, clean_fp = match(clean_onsets)
    noisy_hits, noisy_fp = match(noisy_onsets)

    return ExperimentResult(
        experiment_id="fig10",
        title="Sliding-DFT software tone detector (clean vs noisy)",
        paper={
            "clean_chirps_detected": 4.0,
            "noisy_chirps_detected": 3.0,
            "noisy_false_positives": 0.0,
        },
        measured={
            "clean_chirps_detected": float(clean_hits),
            "clean_false_positives": float(clean_fp),
            "noisy_chirps_detected": float(noisy_hits),
            "noisy_false_positives": float(noisy_fp),
        },
        checks=[
            ShapeCheck("all 4 clean chirps detected", clean_hits == 4, f"{clean_hits}/4"),
            ShapeCheck("no clean false positives", clean_fp == 0, f"{clean_fp}"),
            ShapeCheck(
                "noisy detection >= 3 of 4 chirps",
                noisy_hits >= 3,
                f"{noisy_hits}/4",
            ),
            ShapeCheck("no noisy false positives", noisy_fp == 0, f"{noisy_fp}"),
        ],
        extras={
            "clean_energy": clean_energy,
            "noisy_energy": noisy_energy,
            "clean_onsets": clean_onsets,
            "noisy_onsets": noisy_onsets,
        },
    )


@register("text-range")
def text_max_range(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Maximum and reliable detection ranges, grass vs pavement.

    Section 3.6.2: grass ~20 m max / ~10 m reliable (80-85% of chirp
    sequences detected); pavement ~35 m max / ~25 m reliable.  The
    reproduction criterion is the *ordering and rough factor* between
    the environments, not the absolute meters.
    """
    from ..ranging import TdoaConfig

    rng = ensure_rng(seed)
    results = {}
    for env_name in ("grass", "pavement"):
        env = get_environment(env_name)
        # The range study needs a buffer that can hold arrivals well
        # beyond the field services' 22 m operating range.
        service = RangingService(
            environment=env, tdoa=TdoaConfig(max_range_m=55.0)
        ).calibrate(rng=rng)
        distances = np.arange(4.0, 52.0, 2.0)
        probs = np.array(
            [
                service.detection_probability(
                    float(d), attempts=30, within_m=3.0, rng=rng
                )
                for d in distances
            ]
        )
        detectable = distances[probs > 0.05]
        reliable = distances[probs >= 0.8]
        results[env_name] = {
            "max_range_m": float(detectable.max()) if detectable.size else 0.0,
            "reliable_range_m": float(reliable.max()) if reliable.size else 0.0,
            "curve": (distances, probs),
        }

    grass_max = results["grass"]["max_range_m"]
    grass_rel = results["grass"]["reliable_range_m"]
    pave_max = results["pavement"]["max_range_m"]
    pave_rel = results["pavement"]["reliable_range_m"]

    return ExperimentResult(
        experiment_id="text-range",
        title="Detection range by environment (grass vs pavement)",
        paper={
            "grass_max_range_m": 20.0,
            "grass_reliable_range_m": 10.0,
            "pavement_max_range_m": 35.0,
            "pavement_reliable_range_m": 25.0,
        },
        measured={
            "grass_max_range_m": grass_max,
            "grass_reliable_range_m": grass_rel,
            "pavement_max_range_m": pave_max,
            "pavement_reliable_range_m": pave_rel,
        },
        checks=[
            ShapeCheck(
                "pavement max range exceeds grass by >= 1.5x",
                pave_max >= 1.5 * grass_max,
                f"{pave_max:.0f} vs {grass_max:.0f} m",
            ),
            ShapeCheck(
                "grass max range in the 14-26 m band",
                14.0 <= grass_max <= 26.0,
                f"{grass_max:.0f} m",
            ),
            ShapeCheck(
                "pavement reliable range in the 20-35 m band",
                20.0 <= pave_rel <= 35.0,
                f"{pave_rel:.0f} m",
            ),
            ShapeCheck(
                "reliable < max in both environments",
                grass_rel <= grass_max and pave_rel <= pave_max,
                "",
            ),
        ],
        extras={name: r["curve"] for name, r in results.items()},
    )


@register("text-sync")
def text_clock_sync(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Clock synchronization contributes negligible ranging error.

    "The maximum clock rate difference between a pair of nodes is on
    the order of 50 microseconds per second, which translates to
    maximum ranging error of about 0.15 cm for a distance of 30 m."
    """
    err_30 = sync_ranging_error_m(30.0)
    err_10 = sync_ranging_error_m(10.0)
    return ExperimentResult(
        experiment_id="text-sync",
        title="Clock-sync contribution to ranging error",
        paper={"error_at_30m_cm": 0.15},
        measured={
            "error_at_30m_cm": err_30 * 100.0,
            "error_at_10m_cm": err_10 * 100.0,
        },
        checks=[
            ShapeCheck(
                "sync error at 30 m is ~0.15 cm",
                abs(err_30 * 100.0 - 0.15) < 0.02,
                f"{err_30*100:.3f} cm",
            ),
            ShapeCheck(
                "sync error grows linearly with distance",
                abs(err_30 / err_10 - 3.0) < 1e-9,
                "",
            ),
        ],
    )


@register("text-chirp")
def text_chirp_length(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Chirp-length ablation: 8 ms is the sweet spot.

    Section 3.6: 64 ms chirps caused many late-detection overestimates
    (up to the chirp length); below 8 ms the speaker cannot power up,
    reducing detections.  For 8 ms chirps the maximum overestimation
    error was ~3 m.
    """
    rng = ensure_rng(seed)
    env = get_environment("grass")
    stats = {}
    for label, duration in (("4ms", 0.004), ("8ms", 0.008), ("64ms", 0.064)):
        pattern = ChirpPattern(chirp_duration_s=duration)
        service = RangingService(environment=env, pattern=pattern).calibrate(rng=rng)
        estimates = []
        attempts = 0
        for d in (8.0, 12.0, 15.0):
            for _ in range(40):
                attempts += 1
                link = service.link_simulator.draw_link(rng)
                est = service.measure(d, link=link, rng=rng)
                if est is not None:
                    estimates.append(est - d)
        errors = np.array(estimates)
        over = errors[errors > 0.3]
        stats[label] = {
            "detection_rate": errors.size / attempts,
            "max_overestimate_m": float(errors.max()) if errors.size else 0.0,
            "overestimate_rate": float(over.size / errors.size) if errors.size else 0.0,
        }

    return ExperimentResult(
        experiment_id="text-chirp",
        title="Chirp-length ablation (4 / 8 / 64 ms)",
        paper={
            "overestimate_cap_8ms_m": 3.0,
            "long_chirps_overestimate_more": "yes",
            "short_chirps_detect_less": "yes",
        },
        measured={
            "max_overestimate_8ms_m": stats["8ms"]["max_overestimate_m"],
            "max_overestimate_64ms_m": stats["64ms"]["max_overestimate_m"],
            "detection_rate_4ms": stats["4ms"]["detection_rate"],
            "detection_rate_8ms": stats["8ms"]["detection_rate"],
        },
        checks=[
            ShapeCheck(
                "8 ms overestimates capped near one chirp length (~3 m)",
                stats["8ms"]["max_overestimate_m"] <= 3.5,
                f"{stats['8ms']['max_overestimate_m']:.2f} m",
            ),
            ShapeCheck(
                "64 ms chirps allow much larger overestimates",
                stats["64ms"]["max_overestimate_m"]
                > 2.0 * max(stats["8ms"]["max_overestimate_m"], 0.5),
                f"{stats['64ms']['max_overestimate_m']:.2f} m",
            ),
            ShapeCheck(
                "4 ms chirps detect less often than 8 ms",
                stats["4ms"]["detection_rate"] < stats["8ms"]["detection_rate"],
                f"{stats['4ms']['detection_rate']:.0%} vs {stats['8ms']['detection_rate']:.0%}",
            ),
        ],
        extras={"stats": stats},
    )
