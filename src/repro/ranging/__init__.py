"""The acoustic ranging service (Section 3): TDoA arithmetic, detection
algorithms, the signal-level link simulator, campaign orchestration,
median filtering, consistency checks and the Gaussian range generator."""

from .campaign import CampaignConfig, RangingCampaign, run_campaign
from .consistency import bidirectional_filter, triangle_filter
from .detection import detect_signal
from .dft import SlidingToneFilter, filter_waveform, tone_detect_waveform
from .filtering import confidence_weighted_edges, limit_rounds, median_filter
from .link import AcousticLinkSimulator, LinkRealization
from .service import DetectionParams, RangingService
from .synthetic import (
    augment_with_gaussian_ranges,
    eligible_pairs,
    gaussian_edges,
    gaussian_ranges,
)
from .tdoa import TdoaConfig
from .xsm import XsmRangingService

__all__ = [
    "TdoaConfig",
    "detect_signal",
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
    "confidence_weighted_edges",
    "limit_rounds",
    "bidirectional_filter",
    "triangle_filter",
    "eligible_pairs",
    "gaussian_edges",
    "gaussian_ranges",
    "augment_with_gaussian_ranges",
    "XsmRangingService",
]
