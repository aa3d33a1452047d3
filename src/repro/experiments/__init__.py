"""Per-figure experiment drivers.

Importing this package populates the experiment registry; use
:func:`run_experiment` / :func:`run_all` or access drivers directly
(e.g. ``experiments.fig18_lss_constrained()``).
"""

from typing import Dict, Optional

from . import common, extension_experiments, localization_experiments, ranging_experiments  # noqa: F401 (registry)
from .base import ExperimentResult, ShapeCheck, all_experiments, get_experiment
from .report import render_markdown, render_text, summary_counts
from .common import DEFAULT_SEED
from .extension_experiments import (
    ext_aps_baselines,
    ext_campaign_statistics,
    ext_protocol_cost,
    ext_scaling,
    ext_sweep,
    ext_xsm_software_detector,
)
from .localization_experiments import (
    fig11_intersection_consistency,
    fig12_multilateration_small,
    fig14_multilateration_sparse,
    fig16_multilateration_extended,
    fig18_lss_constrained,
    fig19_lss_unconstrained,
    fig20_multilateration_random,
    fig21_lss_random,
    fig22_lss_random_unconstrained,
    fig23_convergence,
    fig24_distributed_sparse,
    fig25_distributed_extended,
)
from .ranging_experiments import (
    fig2_baseline_ranging,
    fig4_median_filter,
    fig5_grid,
    fig6_error_histogram,
    fig7_bidirectional,
    fig8_distance_scatter,
    fig10_dft_filter,
    text_chirp_length,
    text_clock_sync,
    text_max_range,
)


def run_experiment(experiment_id: str, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"fig18"``)."""
    return get_experiment(experiment_id)(seed)


def run_all(seed: int = DEFAULT_SEED) -> Dict[str, ExperimentResult]:
    """Run every registered experiment; returns id -> result."""
    return {eid: fn(seed) for eid, fn in sorted(all_experiments().items())}


def clear_caches() -> None:
    """Drop the drivers' process-lifetime memos (the grass ranging
    service, the field campaign and the town LSS runs), so the next
    driver call recomputes them or reads them from the result store."""
    common.grass_service.cache_clear()
    common._campaign_cached.cache_clear()
    localization_experiments._town_lss_cached.cache_clear()


__all__ = [
    "ExperimentResult",
    "ShapeCheck",
    "DEFAULT_SEED",
    "all_experiments",
    "get_experiment",
    "run_experiment",
    "run_all",
    "clear_caches",
    "render_markdown",
    "render_text",
    "summary_counts",
    "fig2_baseline_ranging",
    "fig4_median_filter",
    "fig5_grid",
    "fig6_error_histogram",
    "fig7_bidirectional",
    "fig8_distance_scatter",
    "fig10_dft_filter",
    "fig11_intersection_consistency",
    "fig12_multilateration_small",
    "fig14_multilateration_sparse",
    "fig16_multilateration_extended",
    "fig18_lss_constrained",
    "fig19_lss_unconstrained",
    "fig20_multilateration_random",
    "fig21_lss_random",
    "fig22_lss_random_unconstrained",
    "fig23_convergence",
    "fig24_distributed_sparse",
    "fig25_distributed_extended",
    "text_chirp_length",
    "text_clock_sync",
    "text_max_range",
    "ext_xsm_software_detector",
    "ext_protocol_cost",
    "ext_scaling",
    "ext_aps_baselines",
    "ext_campaign_statistics",
    "ext_sweep",
]
