"""Hardware tone-detector model.

The MICA sensor board's phase-locked-loop tone detector outputs a binary
value per sample indicating presence of a 4.0-4.5 kHz tone.  The paper
(Section 3.5) models it as a binary time series ``b(t)`` with::

    P[b(t) = 1 | signal present]  >>  P[b(t) = 1 | no signal present]

and builds the detection algorithm entirely on that model.  We generate
``b(t)`` the same way: the *hit probability* while a chirp is audible is
a logistic function of the link SNR (saturating near 1 for strong
signals, falling to the false-positive floor as SNR crosses the
detection threshold), and the *false-positive probability* during
silence comes from the environment preset (optionally elevated during
noise bursts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive, check_probability, ensure_rng
from ..errors import ValidationError

__all__ = ["ToneDetectorModel", "hit_probability"]


def hit_probability(
    snr_db,
    *,
    threshold_db: float = 8.0,
    width_db: float = 3.0,
    saturation: float = 0.85,
    floor: float = 0.0,
):
    """Per-sample probability of a tone detection given the link SNR.

    A logistic curve: ``floor + (saturation - floor) * sigmoid((snr -
    threshold) / width)``.  ``saturation`` < 1 reflects that even a
    strong tone is not reported on every sample by the real PLL detector
    ("it sometimes fails to recognize the presence of a signal,
    particularly at high sampling rates" — Section 3.5).
    """
    threshold_db = float(threshold_db)
    width_db = check_positive(width_db, "width_db")
    saturation = check_probability(saturation, "saturation")
    floor = check_probability(floor, "floor")
    if floor > saturation:
        raise ValidationError("floor must not exceed saturation")
    snr = np.asarray(snr_db, dtype=float)
    sigmoid = 1.0 / (1.0 + np.exp(-(snr - threshold_db) / width_db))
    return floor + (saturation - floor) * sigmoid


@dataclass(frozen=True)
class ToneDetectorModel:
    """Stochastic binary tone detector.

    Parameters mirror :func:`hit_probability`; an instance is shared by
    all receivers in a simulation (unit-to-unit variation enters through
    the SNR, not the detector curve).
    """

    threshold_db: float = 8.0
    width_db: float = 3.0
    saturation: float = 0.85

    def hit_probability(self, snr_db):
        """Hit probability for one or more SNR values."""
        return hit_probability(
            snr_db,
            threshold_db=self.threshold_db,
            width_db=self.width_db,
            saturation=self.saturation,
        )

    def sample_signal(self, snr_db: float, n_samples: int, rng=None) -> np.ndarray:
        """Binary detector output for *n_samples* of audible tone."""
        rng = ensure_rng(rng)
        p = float(self.hit_probability(snr_db))
        return (rng.random(n_samples) < p).astype(np.uint8)

    def sample_noise(
        self, false_positive_rate: float, n_samples: int, rng=None
    ) -> np.ndarray:
        """Binary detector output for *n_samples* of background noise."""
        rng = ensure_rng(rng)
        p = check_probability(false_positive_rate, "false_positive_rate")
        return (rng.random(n_samples) < p).astype(np.uint8)
