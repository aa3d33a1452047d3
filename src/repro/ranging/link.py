"""Signal-level simulation of one acoustic ranging link.

This module generates the binary tone-detector buffers that the
detection algorithms of :mod:`repro.ranging.detection` consume.  For a
directed link (source chirps, receiver listens) it reproduces, at the
level of individual 16 kHz detector samples, every error source the
paper enumerates in Section 3.4:

1. *Timing effects* — per-chirp arrival jitter (sync + sampling
   granularity).
2. *Non-deterministic delays in acoustic devices* — speaker power-up
   ramp at the start of each chirp (the reason chirps below 8 ms stopped
   working) and per-node constant latency bias.
3. *Unit-to-unit variation* — speaker/microphone gain offsets and the
   occasional faulty unit, via :class:`~repro.acoustics.hardware.HardwareProfile`.
4. *Signal attenuation* — spherical spreading + environment excess
   attenuation + a persistent per-link ground-cover gain.
5. *Noise* — a stationary false-positive floor plus short impulsive
   bursts (independent across chirps) and rare long events (aircraft)
   that stay elevated across all chirps of a measurement.
6. *Echoes* — persistent multipath arrivals at a delayed offset.
7. *Unreliable tone detection* — the binary detector's saturation < 1
   and SNR-dependent miss rate.

A measurement is laid out as two ``(num_chirps, n)`` stacks, one row
per chirp: the per-sample hit probability and the uniform draws it is
compared with.  The chirp loop does only what moves the generator.
Chirp ``c`` draws its burst count, then each burst's start and length
(written into row ``c`` of the probability stack), then its timing
jitter, then its ``n`` uniforms (straight into row ``c`` of the draw
stack).  That per-chirp draw order is part of the reproducibility
contract: the same seed gives the same buffer, and the generator ends
in the same state, whatever the stacks' layout.  The signal and echo
arrivals are then mixed into every row at once, signal before echo,
and one comparison and one sum over the chirps give the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .._validation import check_non_negative, check_probability, ensure_rng
from ..acoustics.environment import Environment
from ..acoustics.hardware import HardwareProfile
from ..acoustics.noise import NoiseBurstProcess
from ..acoustics.propagation import LOUD_SPEAKER_SOURCE_LEVEL_DB, snr_db
from ..acoustics.signal import ChirpPattern
from ..acoustics.tone_detector import ToneDetectorModel
from ..errors import ValidationError
from .tdoa import TdoaConfig

__all__ = ["LinkRealization", "AcousticLinkSimulator"]


@dataclass(frozen=True)
class LinkRealization:
    """Persistent characteristics of one (undirected) acoustic link.

    Drawn once per node pair and reused across measurement rounds, so
    link-specific effects (a patch of tall grass, a wall reflecting an
    echo) are *correlated across rounds* — the property that decides
    which filtering technique can remove which error (Section 3.4).
    """

    link_gain_db: float = 0.0
    has_echo: bool = False
    echo_delay_s: float = 0.0


@dataclass
class AcousticLinkSimulator:
    """Generates binary detector buffers for directed ranging attempts.

    Parameters
    ----------
    environment : Environment
        Acoustic environment preset.
    pattern : ChirpPattern
        The emitted chirp pattern (defaults to the paper's 10 x 8 ms).
    detector : ToneDetectorModel
        The binary tone-detector response curve.
    tdoa : TdoaConfig
        Buffer geometry and unit conversions.
    source_level_db : float
        Speaker output power (105 dB for the extended board).
    timing_jitter_samples : float
        Std of per-chirp arrival jitter, in detector samples.
    ramp_samples : int
        Speaker power-up ramp: hit probability scales linearly from
        ~1/ramp to 1 over the first ``ramp_samples`` of each chirp.
        The default (64 samples = 4 ms at 16 kHz) encodes the paper's
        observation that chirps shorter than 8 ms "did not have enough
        time to fully power up" — a 4 ms chirp never reaches full
        output, an 8 ms chirp spends half its length at full power.
    long_noise_probability : float
        Probability that a measurement happens during a long wide-band
        noise event (aircraft overhead) raising the false-positive rate
        for *all* chirps.
    long_noise_fp_rate : float
        Per-sample false-positive probability during such an event.
    faulty_fp_rate : float
        False-positive floor of a faulty receiver unit.
    faulty_hit_scale : float
        Multiplier on hit probability for faulty units.
    """

    environment: Environment
    pattern: ChirpPattern = field(default_factory=ChirpPattern)
    detector: ToneDetectorModel = field(default_factory=ToneDetectorModel)
    tdoa: TdoaConfig = field(default_factory=TdoaConfig)
    source_level_db: float = LOUD_SPEAKER_SOURCE_LEVEL_DB
    timing_jitter_samples: float = 1.5
    ramp_samples: int = 64
    long_noise_probability: float = 0.03
    long_noise_fp_rate: float = 0.05
    faulty_fp_rate: float = 0.04
    faulty_hit_scale: float = 0.4

    def __post_init__(self):
        check_non_negative(self.timing_jitter_samples, "timing_jitter_samples")
        if self.ramp_samples < 1:
            raise ValueError("ramp_samples must be >= 1")
        check_probability(self.long_noise_probability, "long_noise_probability")
        check_probability(self.long_noise_fp_rate, "long_noise_fp_rate")
        check_probability(self.faulty_fp_rate, "faulty_fp_rate")
        check_non_negative(self.faulty_hit_scale, "faulty_hit_scale")
        self._bursts = NoiseBurstProcess.from_environment(self.environment)

    # ------------------------------------------------------------------
    # Link construction
    # ------------------------------------------------------------------

    def draw_link(self, rng=None) -> LinkRealization:
        """Draw the persistent realization for one undirected link."""
        rng = ensure_rng(rng)
        lo, hi = self.environment.echo_delay_range_s
        has_echo = bool(rng.random() < self.environment.echo_probability)
        return LinkRealization(
            link_gain_db=float(rng.normal(0.0, self.environment.ground_variation_db)),
            has_echo=has_echo,
            echo_delay_s=float(rng.uniform(lo, hi)) if has_echo else 0.0,
        )

    def link_snr_db(
        self,
        distance_m: float,
        source_hw: HardwareProfile,
        receiver_hw: HardwareProfile,
        link: LinkRealization,
    ) -> float:
        """SNR at the receiver for this link."""
        return float(
            snr_db(
                distance_m,
                self.environment,
                source_level_db=self.source_level_db,
                unit_gain_db=source_hw.speaker_gain_db + receiver_hw.mic_gain_db,
                link_gain_db=link.link_gain_db,
            )
        )

    # ------------------------------------------------------------------
    # Buffer simulation
    # ------------------------------------------------------------------

    def simulate_counts(
        self,
        distance_m: float,
        *,
        source_hw: Optional[HardwareProfile] = None,
        receiver_hw: Optional[HardwareProfile] = None,
        link: Optional[LinkRealization] = None,
        num_chirps: Optional[int] = None,
        rng=None,
    ) -> np.ndarray:
        """Simulate one measurement's accumulated count buffer.

        Each chirp is generated as an independent binary stream (the
        service re-synchronizes per chirp) and the streams are summed,
        mirroring ``record-signal``.  Returns the int64 count buffer of
        length ``tdoa.buffer_length``, clipped at 15.  The draws follow
        the per-chirp order in the module docstring.
        """
        check_non_negative(distance_m, "distance_m")
        rng = ensure_rng(rng)
        source_hw = source_hw if source_hw is not None else HardwareProfile()
        receiver_hw = receiver_hw if receiver_hw is not None else HardwareProfile()
        link = link if link is not None else self.draw_link(rng)
        num_chirps = self.pattern.num_chirps if num_chirps is None else int(num_chirps)
        if num_chirps < 0:
            raise ValidationError("num_chirps must be >= 0")

        n = self.tdoa.buffer_length
        fs = self.tdoa.sampling_rate_hz
        chirp_len = self.pattern.chirp_samples(fs)
        snr = self.link_snr_db(distance_m, source_hw, receiver_hw, link)
        p_hit = float(self.detector.hit_probability(snr))
        if receiver_hw.faulty:
            p_hit *= self.faulty_hit_scale

        base_fp = self.environment.false_positive_rate
        if receiver_hw.faulty:
            base_fp = max(base_fp, self.faulty_fp_rate)
        # A long noise event (e.g. aircraft) covers the entire
        # measurement: all chirps see the elevated floor.
        long_noise = rng.random() < self.long_noise_probability
        if long_noise:
            base_fp = max(base_fp, self.long_noise_fp_rate)

        # Latency biases shift the arrival by a constant per node pair.
        latency_s = source_hw.latency_bias_s + receiver_hw.latency_bias_s
        nominal_arrival = distance_m / self.tdoa.meters_per_sample + latency_s * fs

        # Speaker power-up ramp over the first ramp_samples of a chirp.
        ramp = np.minimum(
            1.0, np.arange(1, chirp_len + 1, dtype=float) / self.ramp_samples
        )

        # Per chirp, only what moves the generator: the bursts, the
        # jitter, then the chirp's n uniforms, each into its own row.
        bursts = self._bursts
        bursts._check_window(n, fs, base_fp)
        probs = np.full((num_chirps, n), base_fp)
        draws = np.empty((num_chirps, n))
        jitter = np.empty(num_chirps)
        for c in range(num_chirps):
            bursts._write_bursts(probs[c], fs, base_fp, rng)
            jitter[c] = rng.normal(0.0, self.timing_jitter_samples)
            rng.random(out=draws[c])
        arrivals = nominal_arrival + jitter
        _mix_chirps(probs, arrivals, 1.0 - ramp * p_hit)
        if link.has_echo:
            _mix_chirps(
                probs,
                arrivals + link.echo_delay_s * fs,
                1.0 - ramp * (p_hit * self.environment.echo_strength),
            )
        counts = np.add.reduce(draws < probs, axis=0, dtype=np.int32)
        return np.minimum(counts, 15, dtype=np.int64)


def _mix_chirps(probs: np.ndarray, arrivals: np.ndarray, keep: np.ndarray) -> None:
    """Mix one arrival per chirp into the rows of the probability stack.

    Row ``c``'s arrival starts at sample ``s = round(arrivals[c])``
    (half to even) and covers ``s + j`` for ``j < len(keep)``, clipped
    to the buffer at either end.  Each covered sample becomes
    ``1 - (1 - p) * keep[j]``, where ``keep = 1 - ramp * p_hit``:
    noise and signal are independent chances of the detector firing.
    Samples a row's arrival does not cover keep their bits.
    """
    n = probs.shape[1]
    taps = keep.shape[0]
    # Clipping first keeps the integer cast exact: a start at or past
    # n, or at or before -taps, covers nothing either way.
    starts = np.rint(np.clip(arrivals, -taps, n)).astype(np.int64)
    lo = max(int(starts.min(initial=n)), 0)
    hi = min(int(starts.max(initial=-taps)) + taps, n)
    if hi <= lo:
        return
    # One band of columns holds every row's arrival; tap[c, i] is the
    # ramp tap that lands on column lo + i of row c.
    tap = np.arange(lo, hi) - starts[:, None]
    band = probs[:, lo:hi]
    mixed = 1.0 - (1.0 - band) * keep.take(tap, mode="clip")
    np.copyto(band, mixed, where=(tap >= 0) & (tap < taps))
