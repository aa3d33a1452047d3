"""Ranging on tone-detector-less platforms (Section 3.7, XSM motes).

Platforms without the MICA's hardware PLL tone detector must detect the
chirp in *raw sampled audio*.  The paper's solution is the Figure 9
sliding-DFT filter; this module builds the full ranging path on top of
it:

1. simulate the raw microphone waveform for a link (chirp tone at the
   propagation-delayed offset, scaled by the received level, plus
   Gaussian ambient noise at the environment's noise floor),
2. run the sliding-DFT filter and find the first tone onset,
3. convert the onset sample to a distance.

As the paper notes, the software detector "needs to store a sum of raw
sampled values rather than a sum of 1-bit output values", so its memory
cost is far larger (2 kB per 20 m of range at 16 kHz vs <500 B for the
hardware path) and — with energy detection over a short filter window —
its reliable range is shorter (~10 m observed on the XSM).  The
``text-xsm`` ablation benchmark measures both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .._validation import check_non_negative, check_positive, ensure_rng
from ..acoustics.environment import Environment
from ..acoustics.propagation import LOUD_SPEAKER_SOURCE_LEVEL_DB, received_level_db
from ..errors import ValidationError
from .dft import tone_detect_waveform
from .tdoa import TdoaConfig

__all__ = ["XsmRangingService"]

#: The XSM path samples raw audio; amplitude for a 0 dB-SNR signal.
_REFERENCE_AMPLITUDE = 100.0


@dataclass
class XsmRangingService:
    """Software-tone-detector ranging for XSM-class platforms.

    Parameters
    ----------
    environment : Environment
        Acoustic environment preset (propagation + noise floor).
    tdoa : TdoaConfig
        Buffer geometry.  The XSM buffer stores raw samples, so memory
        is ``2 bytes * buffer_length`` (see :meth:`buffer_bytes`).
    chirp_duration_s : float
        Chirp length; the XSM experiments used the same 8 ms chirps.
    tone_fraction : float
        Chirp frequency as a fraction of the sampling rate.  The
        Figure 9 filter is built for 1/4 (default) and 1/6.
    threshold_factor : float
        Detection threshold over the automatic noise reference.  Band
        energies are chi-square-ish with heavy right tails, so the
        factor must sit far above the median to keep the false-onset
        rate negligible over a ~1000-sample buffer; 50 puts the
        detection cutoff near +9 dB SNR.  Combined with single-chirp
        energy detection (no multi-chirp accumulation), this reproduces
        the XSM's shorter observed range.
    source_level_db : float
        Speaker output power.
    """

    environment: Environment
    tdoa: TdoaConfig = field(default_factory=TdoaConfig)
    chirp_duration_s: float = 0.008
    tone_fraction: float = 0.25
    threshold_factor: float = 50.0
    source_level_db: float = LOUD_SPEAKER_SOURCE_LEVEL_DB

    def __post_init__(self):
        check_positive(self.chirp_duration_s, "chirp_duration_s")
        if self.tone_fraction not in (0.25, 1.0 / 6.0):
            raise ValidationError(
                "tone_fraction must be 0.25 or 1/6 (the Figure 9 filter's bands)"
            )
        check_positive(self.threshold_factor, "threshold_factor")

    # ------------------------------------------------------------------
    # Waveform simulation
    # ------------------------------------------------------------------

    def simulate_waveform(
        self,
        distance_m: float,
        *,
        link_gain_db: float = 0.0,
        rng=None,
    ) -> np.ndarray:
        """Raw microphone samples for one chirp at *distance_m*.

        Signal amplitude follows the received level relative to the
        noise floor: a tone at SNR ``s`` dB is synthesized with
        amplitude ``ref * 10^(s/20)`` over unit-std noise scaled to
        ``ref``.
        """
        check_non_negative(distance_m, "distance_m")
        rng = ensure_rng(rng)
        n = self.tdoa.buffer_length
        fs = self.tdoa.sampling_rate_hz
        wave = rng.normal(0.0, _REFERENCE_AMPLITUDE, n)
        level = float(
            received_level_db(
                distance_m,
                self.environment,
                source_level_db=self.source_level_db,
                link_gain_db=link_gain_db,
            )
        )
        snr_db = level - self.environment.noise_floor_db
        amplitude = _REFERENCE_AMPLITUDE * 10.0 ** (snr_db / 20.0)
        start = self.tdoa.index_from_distance(distance_m)
        length = max(1, int(round(self.chirp_duration_s * fs)))
        stop = min(n, start + length)
        if start < n:
            t = np.arange(stop - start)
            wave[start:stop] += amplitude * np.sin(
                2.0 * math.pi * self.tone_fraction * t
            )
        return wave

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure(
        self,
        distance_m: float,
        *,
        link_gain_db: float = 0.0,
        rng=None,
    ) -> Optional[float]:
        """One ranging attempt; returns a distance estimate or None."""
        wave = self.simulate_waveform(
            distance_m, link_gain_db=link_gain_db, rng=rng
        )
        band = 0 if self.tone_fraction == 0.25 else 1
        onsets, _ = tone_detect_waveform(
            wave, band=band, threshold_factor=self.threshold_factor
        )
        if onsets.size == 0:
            return None
        # The filter's 36-sample window delays the energy peak; the
        # onset index already marks the first crossing, which trails
        # the true arrival by roughly half a window.
        index = max(0, int(onsets[0]) - 18)
        return self.tdoa.distance_from_index(index)

    def detection_probability(
        self,
        distance_m: float,
        *,
        attempts: int = 30,
        within_m: float = 3.0,
        draw_link_gain: bool = True,
        rng=None,
    ) -> float:
        """Monte-Carlo probability of a correct detection.

        With *draw_link_gain* (default), each attempt draws a per-link
        ground-cover gain from the environment, matching the hardware
        path's Monte-Carlo protocol.
        """
        if attempts < 1:
            raise ValidationError("attempts must be >= 1")
        rng = ensure_rng(rng)
        hits = 0
        for _ in range(attempts):
            gain = (
                float(rng.normal(0.0, self.environment.ground_variation_db))
                if draw_link_gain
                else 0.0
            )
            estimate = self.measure(distance_m, link_gain_db=gain, rng=rng)
            if estimate is not None and abs(estimate - distance_m) <= within_m:
                hits += 1
        return hits / attempts

    # ------------------------------------------------------------------
    # Resource accounting (Section 3.7's memory comparison)
    # ------------------------------------------------------------------

    def buffer_bytes(self, bits_per_sample: int = 16) -> int:
        """RAM needed for the raw-sample buffer.

        "To achieve a maximum range of 20 m, a 2 kB buffer is required
        with a sampling rate of 16 kHz" — i.e. ~1 byte per sample at
        reduced precision; default assumes 16-bit samples.
        """
        if bits_per_sample < 1:
            raise ValidationError("bits_per_sample must be >= 1")
        return (self.tdoa.buffer_length * bits_per_sample + 7) // 8

    @staticmethod
    def hardware_buffer_bytes(buffer_length: int, bits_per_offset: int = 4) -> int:
        """RAM for the MICA hardware-detector path (4-bit counters)."""
        if buffer_length < 0 or bits_per_offset < 1:
            raise ValidationError("invalid buffer parameters")
        return (buffer_length * bits_per_offset + 7) // 8
