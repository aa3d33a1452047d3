"""Clock drift and time-synchronization model.

The ranging service synchronizes a source and sink "for a short period
of time using the very same radio message used for TDoA ranging",
relying on the MAC-layer timestamping of the Flooding Time
Synchronization Protocol (Section 3.1).  The paper bounds the residual
clock-rate difference at 50 microseconds per second, which translates to
at most ~0.15 cm ranging error over 30 m — negligible.
:func:`sync_ranging_error_m` computes that bound, so the ``text-sync``
experiment driver *verifies* the claim instead of assuming it;
:class:`DriftingClock` is each simulated node's clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_non_negative, ensure_rng

__all__ = [
    "MAX_CLOCK_RATE_DIFFERENCE",
    "DriftingClock",
    "sync_ranging_error_m",
]

#: Maximum clock rate difference between a pair of motes (50 us/s).
MAX_CLOCK_RATE_DIFFERENCE = 50e-6


@dataclass
class DriftingClock:
    """A local clock with constant rate skew and offset.

    ``local_time = (1 + skew) * true_time + offset``.
    """

    skew: float = 0.0
    offset: float = 0.0

    def local_time(self, true_time: float) -> float:
        """Local reading for a given true time."""
        return (1.0 + self.skew) * true_time + self.offset

    def true_interval(self, local_interval: float) -> float:
        """Convert an interval measured on this clock back to true time."""
        return local_interval / (1.0 + self.skew)

    def synchronize(self, true_time: float, residual_offset: float = 0.0) -> None:
        """Zero the offset at *true_time* (MAC-layer timestamp exchange).

        After synchronization, ``local_time(true_time) == true_time +
        residual_offset``; only the rate skew keeps accumulating error.
        """
        self.offset = residual_offset - self.skew * true_time

    @classmethod
    def random(cls, rng=None, max_skew: float = MAX_CLOCK_RATE_DIFFERENCE / 2) -> "DriftingClock":
        """A clock with skew uniform in [-max_skew, +max_skew].

        Half the paper's *pairwise* bound per clock, so any two clocks
        differ by at most the full bound.
        """
        rng = ensure_rng(rng)
        check_non_negative(max_skew, "max_skew")
        return cls(skew=float(rng.uniform(-max_skew, max_skew)), offset=float(rng.uniform(0.0, 1.0)))


def sync_ranging_error_m(
    distance_m: float,
    *,
    speed_of_sound: float = 340.0,
    rate_difference: float = MAX_CLOCK_RATE_DIFFERENCE,
) -> float:
    """Worst-case ranging error due to clock rate difference alone.

    The TDoA interval a receiver must time is the acoustic flight time
    ``d / v``; with a clock rate error ``r`` the measured interval is off
    by ``r * d / v`` seconds, i.e. ``r * d`` meters.  At 30 m and
    50 us/s this is 1.5 mm — the paper's "about 0.15 cm".
    """
    check_non_negative(distance_m, "distance_m")
    check_non_negative(rate_difference, "rate_difference")
    flight_time = distance_m / speed_of_sound
    return rate_difference * flight_time * speed_of_sound
