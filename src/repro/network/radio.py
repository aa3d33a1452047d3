"""Radio communication model.

Captures the aspects of the MICA2 radio that matter to ranging and to
the distributed protocols:

* a finite communication range (radio reaches further than sound, but
  not unbounded),
* per-message delivery failures,
* the non-deterministic send/receive hardware delay ``delta_xmit``
  (Section 3.1, "Non-deterministic Hardware Delays"), which the ranging
  math must subtract; MAC-layer timestamping leaves a small residual
  jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_non_negative, check_positive, check_probability, ensure_rng

__all__ = ["RadioModel"]


@dataclass(frozen=True)
class RadioModel:
    """Parameters of the radio link model.

    Attributes
    ----------
    comm_range_m : float
        Maximum reliable communication distance.  MICA2 outdoor radio
        range comfortably exceeds the acoustic range; the default 100 m
        keeps radio connectivity a superset of acoustic connectivity for
        the paper's deployments.
    delivery_probability : float
        Probability an in-range unicast/broadcast message is received.
    xmit_delay_mean_s : float
        Mean of ``delta_xmit``, the combined non-deterministic
        sender+receiver processing delay.  It is *calibrated out* by the
        ranging service (part of ``delta_const``); only the jitter below
        leaks into measurements.
    xmit_delay_jitter_s : float
        Standard deviation of the residual delay after MAC-layer
        timestamping.
    """

    comm_range_m: float = 100.0
    delivery_probability: float = 0.98
    xmit_delay_mean_s: float = 0.004
    xmit_delay_jitter_s: float = 15e-6

    def __post_init__(self):
        check_positive(self.comm_range_m, "comm_range_m")
        check_probability(self.delivery_probability, "delivery_probability")
        check_non_negative(self.xmit_delay_mean_s, "xmit_delay_mean_s")
        check_non_negative(self.xmit_delay_jitter_s, "xmit_delay_jitter_s")

    def in_range(self, distance_m: float) -> bool:
        """Whether two nodes at *distance_m* can communicate at all."""
        return 0.0 <= distance_m <= self.comm_range_m

    def delivers(self, distance_m: float, rng=None) -> bool:
        """Sample whether one message at *distance_m* is delivered."""
        if not self.in_range(distance_m):
            return False
        rng = ensure_rng(rng)
        return bool(rng.random() < self.delivery_probability)

    def sample_xmit_delay_s(self, rng=None) -> float:
        """Sample one realization of ``delta_xmit`` (mean + jitter)."""
        rng = ensure_rng(rng)
        return float(self.xmit_delay_mean_s + rng.normal(0.0, self.xmit_delay_jitter_s))
