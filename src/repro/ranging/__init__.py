"""The acoustic ranging service (Section 3): TDoA arithmetic, detection
algorithms, the signal-level link simulator, campaign orchestration,
statistical filtering, consistency checks and synthetic generators."""

from .campaign import CampaignConfig, RangingCampaign, run_campaign
from .constraints import feasible_distance_filter, grid_distance_set, min_spacing_filter
from .consistency import bidirectional_filter, consistency_pipeline, triangle_filter
from .detection import accumulate_chirps, detect_all_windows, detect_signal
from .dft import SlidingToneFilter, filter_waveform, tone_detect_waveform
from .filtering import (
    confidence_weighted_edges,
    limit_rounds,
    median_filter,
    mode_filter,
    statistical_filter,
)
from .link import AcousticLinkSimulator, LinkRealization
from .service import DetectionParams, RangingService
from .synthetic import (
    StatisticalErrorModel,
    augment_with_gaussian_ranges,
    eligible_pairs,
    gaussian_edges,
    gaussian_ranges,
    statistical_campaign,
)
from .tdoa import TdoaConfig, tdoa_distance
from .xsm import XsmRangingService

__all__ = [
    "TdoaConfig",
    "tdoa_distance",
    "accumulate_chirps",
    "detect_signal",
    "detect_all_windows",
    "SlidingToneFilter",
    "filter_waveform",
    "tone_detect_waveform",
    "AcousticLinkSimulator",
    "LinkRealization",
    "DetectionParams",
    "RangingService",
    "CampaignConfig",
    "RangingCampaign",
    "run_campaign",
    "median_filter",
    "mode_filter",
    "statistical_filter",
    "confidence_weighted_edges",
    "limit_rounds",
    "bidirectional_filter",
    "triangle_filter",
    "consistency_pipeline",
    "StatisticalErrorModel",
    "eligible_pairs",
    "gaussian_edges",
    "gaussian_ranges",
    "augment_with_gaussian_ranges",
    "statistical_campaign",
    "min_spacing_filter",
    "grid_distance_set",
    "feasible_distance_filter",
    "XsmRangingService",
]
