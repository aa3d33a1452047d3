"""Per-unit hardware variation models.

Section 3.4 lists *unit-to-unit variation* as an error source: "the
microphones are rated at +/-3 dB sensitivity, and we have observed
variations of up to 5 dB on the loudspeakers" (Section 3.6.2), and "in
extreme cases, faulty hardware may result in very large errors".  The
simulator draws one :class:`HardwareProfile` per node so that a given
speaker-microphone pair has a *consistent* bias across rounds — exactly
the behaviour the paper's consistency checks target.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_non_negative, check_probability, ensure_rng

__all__ = ["HardwareProfile", "HardwarePopulation"]


@dataclass(frozen=True)
class HardwareProfile:
    """Fixed per-node hardware characteristics.

    Attributes
    ----------
    speaker_gain_db : float
        Deviation of this node's speaker output from nominal.
    mic_gain_db : float
        Deviation of this node's microphone sensitivity from nominal.
    latency_bias_s : float
        Constant sensing/actuation latency deviation from the calibrated
        ``delta_const`` (it shows up as a per-node distance offset).
    faulty : bool
        Whether this unit is a lemon; faulty units produce wildly wrong
        detections (persistent large errors, correlated on the node).
    """

    speaker_gain_db: float = 0.0
    mic_gain_db: float = 0.0
    latency_bias_s: float = 0.0
    faulty: bool = False


@dataclass(frozen=True)
class HardwarePopulation:
    """Distribution from which per-node hardware profiles are drawn.

    Defaults follow the paper's figures: microphone sensitivity spread
    rated +/-3 dB (std ~1.5 dB), loudspeaker spread up to 5 dB observed
    (std ~2 dB), a small constant-latency spread corresponding to the
    10-20 cm calibration offset noted in Section 3.6, and a small
    probability of an outright faulty unit.
    """

    speaker_gain_std_db: float = 2.0
    mic_gain_std_db: float = 1.5
    latency_bias_std_s: float = 0.00035  # ~12 cm at 340 m/s
    faulty_probability: float = 0.01

    def __post_init__(self):
        check_non_negative(self.speaker_gain_std_db, "speaker_gain_std_db")
        check_non_negative(self.mic_gain_std_db, "mic_gain_std_db")
        check_non_negative(self.latency_bias_std_s, "latency_bias_std_s")
        check_probability(self.faulty_probability, "faulty_probability")

    def sample(self, rng=None) -> HardwareProfile:
        """Draw one node's hardware profile."""
        rng = ensure_rng(rng)
        return HardwareProfile(
            speaker_gain_db=float(rng.normal(0.0, self.speaker_gain_std_db)),
            mic_gain_db=float(rng.normal(0.0, self.mic_gain_std_db)),
            latency_bias_s=float(rng.normal(0.0, self.latency_bias_std_s)),
            faulty=bool(rng.random() < self.faulty_probability),
        )

    def sample_many(self, n: int, rng=None):
        """Draw *n* independent hardware profiles."""
        rng = ensure_rng(rng)
        return [self.sample(rng) for _ in range(int(n))]
