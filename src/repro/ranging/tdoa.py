"""Time-difference-of-arrival arithmetic.

Section 3.1 of the paper: the receiver computes the distance from
information locally available as::

    d_ij = Vs * (t_detect - (t_recv - delta_xmit) - delta_const)

where ``t_recv`` is the radio message arrival (per the receiver's
clock), ``delta_xmit`` the non-deterministic hardware send/receive delay
removed by MAC-layer timestamping, and ``delta_const`` the deliberate
pause between radio message and chirp plus the calibrated
sensing/actuation latency.

In the simulator, the receiver's sample buffer is laid out so that
*index 0 corresponds to the expected chirp arrival for distance 0* —
i.e. all the constant delays have already been accounted — which makes
``distance = index * Vs / fs`` (minus the environment calibration
offset).  :class:`TdoaConfig` carries the conversion constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_non_negative, check_positive
from ..acoustics.propagation import SPEED_OF_SOUND
from ..acoustics.signal import DEFAULT_SAMPLING_RATE_HZ
from ..errors import ValidationError

__all__ = ["TdoaConfig"]


@dataclass(frozen=True)
class TdoaConfig:
    """Conversion constants for the TDoA ranging buffer.

    Attributes
    ----------
    sampling_rate_hz : float
        Tone-detector sampling rate (16 kHz in the experiments).
    speed_of_sound : float
        340 m/s throughout the paper.
    max_range_m : float
        Maximum measurable distance; fixes the buffer length.  The
        paper's field experiments assume 22 m.
    calibration_offset_m : float
        Constant subtracted from raw index-derived distances; the result
        of the per-environment calibration of Section 3.6 ("without such
        calibration, a constant offset of 10-20 cm may be added to every
        ranging measurement").
    buffer_margin_samples : int
        Extra samples beyond the max-range index so a chirp arriving at
        exactly max range still fits a detection window.
    """

    sampling_rate_hz: float = DEFAULT_SAMPLING_RATE_HZ
    speed_of_sound: float = SPEED_OF_SOUND
    max_range_m: float = 22.0
    calibration_offset_m: float = 0.0
    buffer_margin_samples: int = 192

    def __post_init__(self):
        check_positive(self.sampling_rate_hz, "sampling_rate_hz")
        check_positive(self.speed_of_sound, "speed_of_sound")
        check_positive(self.max_range_m, "max_range_m")
        check_non_negative(self.buffer_margin_samples, "buffer_margin_samples")

    @property
    def meters_per_sample(self) -> float:
        """Distance resolution of one detector sample (~2.1 cm)."""
        return self.speed_of_sound / self.sampling_rate_hz

    @property
    def buffer_length(self) -> int:
        """Number of samples in the accumulation buffer."""
        return self.index_from_distance(self.max_range_m) + self.buffer_margin_samples

    def index_from_distance(self, distance_m: float) -> int:
        """Buffer index at which a chirp from *distance_m* arrives."""
        check_non_negative(distance_m, "distance_m")
        return int(round(distance_m / self.meters_per_sample))

    def distance_from_index(self, index: int) -> float:
        """Distance estimate for a detection at buffer *index*.

        Applies the calibration offset; results are clamped at zero
        (a detection cannot imply negative distance).
        """
        if index < 0:
            raise ValidationError("index must be non-negative")
        return max(0.0, index * self.meters_per_sample - self.calibration_offset_m)

    def with_calibration(self, offset_m: float) -> "TdoaConfig":
        """Copy of this config with a new calibration offset."""
        return TdoaConfig(
            sampling_rate_hz=self.sampling_rate_hz,
            speed_of_sound=self.speed_of_sound,
            max_range_m=self.max_range_m,
            calibration_offset_m=float(offset_m),
            buffer_margin_samples=self.buffer_margin_samples,
        )

