"""Acoustic physics substrate: environments, propagation, detectors,
hardware variation, signals and impulsive noise."""

from .environment import ENVIRONMENTS, Environment, get_environment
from .hardware import HardwarePopulation, HardwareProfile
from .noise import NoiseBurstProcess
from .propagation import (
    LOUD_SPEAKER_SOURCE_LEVEL_DB,
    REFERENCE_DISTANCE_M,
    SPEED_OF_SOUND,
    STOCK_BUZZER_SOURCE_LEVEL_DB,
    received_level_db,
    snr_db,
    spreading_loss_db,
)
from .signal import (
    DEFAULT_SAMPLING_RATE_HZ,
    DEFAULT_TONE_FREQUENCY_HZ,
    ChirpPattern,
    synthesize_waveform,
)
from .tone_detector import ToneDetectorModel, hit_probability

__all__ = [
    "Environment",
    "ENVIRONMENTS",
    "get_environment",
    "HardwareProfile",
    "HardwarePopulation",
    "NoiseBurstProcess",
    "SPEED_OF_SOUND",
    "REFERENCE_DISTANCE_M",
    "LOUD_SPEAKER_SOURCE_LEVEL_DB",
    "STOCK_BUZZER_SOURCE_LEVEL_DB",
    "spreading_loss_db",
    "received_level_db",
    "snr_db",
    "ChirpPattern",
    "synthesize_waveform",
    "DEFAULT_SAMPLING_RATE_HZ",
    "DEFAULT_TONE_FREQUENCY_HZ",
    "ToneDetectorModel",
    "hit_probability",
]
