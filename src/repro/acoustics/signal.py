"""Acoustic signal descriptions: chirp patterns and raw waveform synthesis.

Two consumers:

* The binary-detector ranging simulator needs the *schedule* of a chirp
  pattern — the paper's refined service emits "a sequence of identical
  chirps interspersed with intervals of silence", with "small random
  delays between elements of the pattern" to decorrelate echoes
  (Section 3.5).
* The sliding-DFT software tone detector (Section 3.7, Figure 10) is
  demonstrated on raw sampled waveforms; :func:`synthesize_waveform`
  produces the clean/noisy periodic-chirp signals of Figure 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._validation import check_non_negative, check_positive, ensure_rng
from ..errors import ValidationError

__all__ = [
    "DEFAULT_SAMPLING_RATE_HZ",
    "DEFAULT_TONE_FREQUENCY_HZ",
    "ChirpPattern",
    "synthesize_waveform",
]

#: The acoustic detector sampling rate used in the experiments (16 kHz).
DEFAULT_SAMPLING_RATE_HZ = 16_000.0

#: The constant tone frequency emitted by the buzzer (4.3 kHz).
DEFAULT_TONE_FREQUENCY_HZ = 4_300.0


@dataclass(frozen=True)
class ChirpPattern:
    """Description of the emitted acoustic pattern.

    The experiments settled on 10 chirps of 8 ms each (Section 3.6):
    64 ms chirps caused late-detection overestimates, and chirps below
    8 ms did not give the speaker time to reach full power.

    Attributes
    ----------
    num_chirps : int
        Chirps per measurement round (the paper's ``m`` accumulation
        count; up to 15 fit the 4-bit accumulation buffer).
    chirp_duration_s : float
        Length of each chirp.
    interval_s : float
        Nominal silence between chirps.
    random_delay_max_s : float
        Upper bound of the uniform random extra delay inserted between
        pattern elements to decorrelate echoes.
    frequency_hz : float
        Tone frequency.
    """

    num_chirps: int = 10
    chirp_duration_s: float = 0.008
    interval_s: float = 0.05
    random_delay_max_s: float = 0.01
    frequency_hz: float = DEFAULT_TONE_FREQUENCY_HZ

    def __post_init__(self):
        if self.num_chirps < 1:
            raise ValidationError("num_chirps must be >= 1")
        if self.num_chirps > 15:
            raise ValidationError(
                "num_chirps must be <= 15: the service packs accumulation "
                "counts into 4 bits per sample (Section 3.6.2)"
            )
        check_positive(self.chirp_duration_s, "chirp_duration_s")
        check_non_negative(self.interval_s, "interval_s")
        check_non_negative(self.random_delay_max_s, "random_delay_max_s")
        check_positive(self.frequency_hz, "frequency_hz")

    def chirp_samples(self, sampling_rate_hz: float = DEFAULT_SAMPLING_RATE_HZ) -> int:
        """Number of detector samples covered by one chirp."""
        check_positive(sampling_rate_hz, "sampling_rate_hz")
        return max(1, int(round(self.chirp_duration_s * sampling_rate_hz)))

    def emission_times(self, rng=None) -> np.ndarray:
        """Start times (seconds) of each chirp relative to the first.

        Includes the random inter-element delays.  Used when modeling
        the full pattern on a single time axis (echo interference
        studies); the accumulate-per-chirp service realigns every chirp
        via its own radio sync message, so buffer offsets there are
        always relative to each chirp's own emission.
        """
        rng = ensure_rng(rng)
        starts = np.zeros(self.num_chirps)
        t = 0.0
        for k in range(self.num_chirps):
            starts[k] = t
            t += self.chirp_duration_s + self.interval_s
            if self.random_delay_max_s > 0:
                t += float(rng.uniform(0.0, self.random_delay_max_s))
        return starts


def synthesize_waveform(
    *,
    num_chirps: int = 4,
    chirp_duration_s: float = 0.004,
    period_s: float = 0.012,
    frequency_hz: float = DEFAULT_TONE_FREQUENCY_HZ,
    sampling_rate_hz: float = DEFAULT_SAMPLING_RATE_HZ,
    amplitude: float = 500.0,
    noise_std: float = 0.0,
    total_duration_s: Optional[float] = None,
    start_offset_s: float = 0.004,
    rng=None,
) -> np.ndarray:
    """Synthesize a raw sampled waveform of periodic constant-frequency chirps.

    This reproduces the input of Figure 10: a handful of tone bursts,
    optionally buried in wide-band Gaussian noise.  Returns an int-ish
    float array of raw samples (the XSM filter of Figure 9 operates on
    raw integer samples; we keep floats for convenience).
    """
    check_positive(chirp_duration_s, "chirp_duration_s")
    check_positive(period_s, "period_s")
    check_positive(sampling_rate_hz, "sampling_rate_hz")
    check_non_negative(noise_std, "noise_std")
    check_non_negative(start_offset_s, "start_offset_s")
    if num_chirps < 0:
        raise ValidationError("num_chirps must be non-negative")
    if total_duration_s is None:
        total_duration_s = start_offset_s + num_chirps * period_s + 0.008
    n = int(round(total_duration_s * sampling_rate_hz))
    t = np.arange(n) / sampling_rate_hz
    wave = np.zeros(n)
    for k in range(num_chirps):
        t0 = start_offset_s + k * period_s
        mask = (t >= t0) & (t < t0 + chirp_duration_s)
        wave[mask] = amplitude * np.sin(2.0 * math.pi * frequency_hz * (t[mask] - t0))
    if noise_std > 0:
        rng = ensure_rng(rng)
        wave = wave + rng.normal(0.0, noise_std, size=n)
    return wave
