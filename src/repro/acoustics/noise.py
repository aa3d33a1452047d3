"""Impulsive ambient-noise model.

Beyond the stationary noise floor (part of the SNR model), the paper's
field sites had *impulsive* wide-band noise: "birds' chirping, wind
noise, footsteps" (Section 3.5) and "occasional loud aircraft engine
noise" (Section 3.6).  Such events raise the tone detector's
false-positive probability for their duration and — crucially — are
*uncorrelated across ranging attempts*, which is exactly why the paper's
multi-chirp accumulation defeats them.

:class:`NoiseBurstProcess` is a Poisson process of bursts.
:meth:`~NoiseBurstProcess.false_positive_track` gives one window's
per-sample false-positive probability; the ranging simulator draws each
chirp's burst count itself from :meth:`~NoiseBurstProcess._mean_count`
and places the bursts of a chirp that drew any with
:meth:`~NoiseBurstProcess._place_bursts`, the one placement path both
share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._validation import check_non_negative, check_positive, check_probability, ensure_rng
from ..errors import ValidationError
from .environment import Environment

__all__ = ["NoiseBurstProcess"]


@dataclass(frozen=True)
class NoiseBurstProcess:
    """Poisson process of impulsive noise bursts.

    Attributes
    ----------
    rate_hz : float
        Expected bursts per second of recording.
    duration_s : float
        Mean burst duration (exponentially distributed).
    fp_rate : float
        Tone-detector false-positive probability during a burst.
    """

    rate_hz: float
    duration_s: float
    fp_rate: float

    def __post_init__(self):
        check_non_negative(self.rate_hz, "rate_hz")
        check_positive(self.duration_s, "duration_s")
        check_probability(self.fp_rate, "fp_rate")

    @classmethod
    def from_environment(cls, environment: Environment) -> "NoiseBurstProcess":
        """Build the burst process described by an environment preset."""
        return cls(
            rate_hz=environment.noise_burst_rate_hz,
            duration_s=environment.noise_burst_duration_s,
            fp_rate=environment.noise_burst_fp_rate,
        )

    def false_positive_track(
        self,
        n_samples: int,
        sampling_rate_hz: float,
        base_rate: float,
        rng=None,
    ) -> np.ndarray:
        """Per-sample false-positive probability over a recording window.

        Starts from *base_rate* everywhere and raises the probability to
        ``max(base_rate, fp_rate)`` inside each burst.
        """
        self._check_window(n_samples, sampling_rate_hz, base_rate)
        rng = ensure_rng(rng)
        track = np.full(n_samples, base_rate)
        lam = self._mean_count(n_samples, sampling_rate_hz)
        if lam is not None:
            self._place_bursts(track, rng.poisson(lam), sampling_rate_hz, base_rate, rng)
        return track

    @staticmethod
    def _check_window(n_samples: int, sampling_rate_hz: float, base_rate: float) -> None:
        check_positive(sampling_rate_hz, "sampling_rate_hz")
        check_probability(base_rate, "base_rate")
        if n_samples < 0:
            raise ValidationError("n_samples must be non-negative")

    def _mean_count(self, n_samples: int, sampling_rate_hz: float) -> Optional[float]:
        """The Poisson mean of a window's burst count, or None when the
        window can hold no burst (a zero rate or an empty window), where
        no count is drawn at all."""
        if self.rate_hz == 0.0 or n_samples == 0:
            return None
        return self.rate_hz * (n_samples / sampling_rate_hz)

    def _place_bursts(
        self,
        track: np.ndarray,
        n_bursts: int,
        sampling_rate_hz: float,
        base_rate: float,
        rng: np.random.Generator,
    ) -> None:
        """Draw *n_bursts* bursts' starts and lengths and raise *track*
        inside each.

        *track* holds *base_rate* everywhere on entry; the arguments are
        already checked (:meth:`_check_window`).  Each burst draws its
        start, then its length, in that order: the link simulator draws
        each chirp's count as ``rng.poisson`` of :meth:`_mean_count` and
        calls this for a chirp that drew one or more, and the draw order
        is part of its reproducibility contract.
        """
        n_samples = track.shape[0]
        window_s = n_samples / sampling_rate_hz
        level = max(base_rate, self.fp_rate)
        uniform = rng.uniform
        exponential = rng.exponential
        for _ in range(n_bursts):
            start = int(uniform(0.0, window_s) * sampling_rate_hz)
            length_s = exponential(self.duration_s)
            stop = min(n_samples, start + max(1, int(length_s * sampling_rate_hz)))
            track[start:stop] = level
