"""Acoustic propagation model: spreading loss, excess attenuation, SNR.

The paper's refined ranging service detects a 4.3 kHz tone through a
binary hardware detector whose hit probability rises sharply with the
signal-to-noise ratio at the microphone.  We model received level as::

    RL(d) = SL - 20 log10(d / d_ref) - alpha * d + unit_gain + link_gain

where ``SL`` is the source level at the reference distance ``d_ref``
(10 cm — the distance at which the paper quotes 105 dB for the extended
speaker and 88 dB for the stock MTS310 buzzer), ``20 log10`` is
spherical spreading, ``alpha`` the environment's excess attenuation,
``unit_gain`` the speaker/microphone unit-to-unit variation and
``link_gain`` the geographically-correlated ground-cover variation.

SNR(d) = RL(d) - noise_floor feeds the tone-detector hit probability.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive
from .environment import Environment

__all__ = [
    "SPEED_OF_SOUND",
    "REFERENCE_DISTANCE_M",
    "LOUD_SPEAKER_SOURCE_LEVEL_DB",
    "STOCK_BUZZER_SOURCE_LEVEL_DB",
    "spreading_loss_db",
    "received_level_db",
    "snr_db",
]

#: Speed of sound used throughout the paper (Section 3): 340 m/s.
SPEED_OF_SOUND = 340.0

#: Distance at which source levels are specified (10 cm; Section 3.2).
REFERENCE_DISTANCE_M = 0.1

#: Output power of the $5 piezo-electric extension speaker (Section 3.2).
LOUD_SPEAKER_SOURCE_LEVEL_DB = 105.0

#: Output power of the original Ario S14T40A buzzer on the MTS310.
STOCK_BUZZER_SOURCE_LEVEL_DB = 88.0


def spreading_loss_db(distance_m, reference_m: float = REFERENCE_DISTANCE_M):
    """Spherical spreading loss ``20 log10(d / d_ref)`` in dB.

    Accepts scalars or arrays.  Distances below the reference distance
    are clamped to it (a microphone cannot be closer than the speaker's
    own reference point in this model).
    """
    reference_m = check_positive(reference_m, "reference_m")
    d = np.maximum(np.asarray(distance_m, dtype=float), reference_m)
    return 20.0 * np.log10(d / reference_m)


def received_level_db(
    distance_m,
    environment: Environment,
    *,
    source_level_db: float = LOUD_SPEAKER_SOURCE_LEVEL_DB,
    unit_gain_db: float = 0.0,
    link_gain_db: float = 0.0,
):
    """Received signal level at the microphone, in dB SPL."""
    d = np.asarray(distance_m, dtype=float)
    return (
        source_level_db
        - spreading_loss_db(d)
        - environment.excess_attenuation_db_per_m * d
        + unit_gain_db
        + link_gain_db
    )


def snr_db(
    distance_m,
    environment: Environment,
    *,
    source_level_db: float = LOUD_SPEAKER_SOURCE_LEVEL_DB,
    unit_gain_db: float = 0.0,
    link_gain_db: float = 0.0,
):
    """Signal-to-noise ratio at the microphone in dB."""
    return (
        received_level_db(
            distance_m,
            environment,
            source_level_db=source_level_db,
            unit_gain_db=unit_gain_db,
            link_gain_db=link_gain_db,
        )
        - environment.noise_floor_db
    )

