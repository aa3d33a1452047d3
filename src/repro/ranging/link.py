"""Signal-level simulation of acoustic ranging links.

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

Attempts are simulated in blocks of up to :data:`BLOCK_ATTEMPTS`
(:class:`LinkBlock`), in two passes.

*Pass 1* makes only the draws, attempt by attempt, in the order the
reproducibility contract fixes: the long-noise draw, then per chirp
``c`` its burst count, each burst's start and length, its timing
jitter, and its ``n`` uniforms, straight into row ``c`` of the
attempt's slice of a ``(BLOCK_ATTEMPTS, num_chirps, n)`` draw stack.
The burst count is one ``rng.poisson`` of a mean fixed at construction
(none is drawn when the environment has no bursts or the buffer is
empty), and only a chirp that drew a burst places any
(:meth:`~repro.acoustics.noise.NoiseBurstProcess._place_bursts`, into
the attempt's burst rows).
The same seed gives the same buffers, and the generator ends in the
same state, whatever the block size.  Per attempt it records the
distance, the pair's unit gain and latency, the link gain and echo,
the false-positive floor ``base_fp`` and a faulty receiver's hit scale.

*Pass 2* uses no generator.  It computes every attempt's SNR, hit
probability and arrivals at once.  Away from the signal, a sample's hit
probability is its attempt's floor, so the hits are one comparison
``draws < base_fp``.  Then only the samples a chirp's arrival covers
(sample ``s + j`` for the rounded arrival ``s`` and ``j`` below the
chirp length, clipped to the buffer) are recomputed exactly, as
``draws < 1 - (1 - base_fp) * (1 - ramp[j] * p_hit)``: noise and signal
are independent chances of the detector firing.  An attempt that drew
a burst, or whose link has an echo, gets dense ``(num_chirps, n)``
probability rows instead: a copy of the floor with its bursts, the
signal and then the echo mixed in (:func:`_mix_chirps`).  The copy
leaves the block as drawn, so pass 2 may run again.  One sum over the
chirps gives the counts, clipped at 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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

__all__ = ["LinkRealization", "AcousticLinkSimulator", "LinkBlock", "BLOCK_ATTEMPTS"]

#: Attempts per block of a campaign.  Ten chirps over the default
#: 1227-sample buffer make a 1.6 MB draw stack at 16 attempts, which
#: stays in a 2 MiB L2 cache; 8 to 24 measured alike, 64 slower.
BLOCK_ATTEMPTS = 16


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
            raise ValidationError("ramp_samples must be >= 1")
        check_probability(self.long_noise_probability, "long_noise_probability")
        check_probability(self.long_noise_fp_rate, "long_noise_fp_rate")
        check_probability(self.faulty_fp_rate, "faulty_fp_rate")
        check_non_negative(self.faulty_hit_scale, "faulty_hit_scale")
        self._bursts = NoiseBurstProcess.from_environment(self.environment)
        # The buffer geometry is fixed at construction and checked once.
        fs = self.tdoa.sampling_rate_hz
        self._buffer_length = self.tdoa.buffer_length
        chirp_len = self.pattern.chirp_samples(fs)
        # Speaker power-up ramp over the first ramp_samples of a chirp.
        self._ramp = np.minimum(1.0, np.arange(1, chirp_len + 1, dtype=float) / self.ramp_samples)
        self._taps = np.arange(chirp_len)
        self._bursts._check_window(self._buffer_length, fs, self.environment.false_positive_rate)
        #: Each chirp's Poisson mean burst count, None where no count is
        #: drawn (see NoiseBurstProcess._mean_count).
        self._burst_mean = self._bursts._mean_count(self._buffer_length, fs)

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
        num_chirps = self.pattern.num_chirps if num_chirps is None else int(num_chirps)
        block = self.one_attempt(
            distance_m,
            source_hw=source_hw,
            receiver_hw=receiver_hw,
            link=link,
            num_chirps=num_chirps,
            rng=rng,
        )
        return block.counts()[0]

    def one_attempt(
        self,
        distance_m: float,
        *,
        source_hw: Optional[HardwareProfile],
        receiver_hw: Optional[HardwareProfile],
        link: Optional[LinkRealization],
        num_chirps: int,
        rng,
    ) -> "LinkBlock":
        """Pass 1 of a block of one attempt.

        Missing hardware defaults to nominal units; a missing link is
        drawn from *rng* first.
        """
        check_non_negative(distance_m, "distance_m")
        rng = ensure_rng(rng)
        source_hw = source_hw if source_hw is not None else HardwareProfile()
        receiver_hw = receiver_hw if receiver_hw is not None else HardwareProfile()
        link = link if link is not None else self.draw_link(rng)
        block = LinkBlock(self, num_chirps, capacity=1)
        block.draw(distance_m, source_hw, receiver_hw, link, rng)
        return block


class LinkBlock:
    """Columns and draw stack of up to *capacity* directed attempts.

    :meth:`draw` is pass 1 for one attempt, :meth:`hit_sums` (or
    :meth:`counts`) pass 2 for the block (see the module docstring);
    :meth:`clear` empties the block for the next one.

    Parameters
    ----------
    simulator : AcousticLinkSimulator
        The link simulator whose physics the block runs.
    num_chirps : int
        Chirps per attempt.
    capacity : int or None
        Attempts per block; :data:`BLOCK_ATTEMPTS` when None.
    """

    def __init__(
        self,
        simulator: AcousticLinkSimulator,
        num_chirps: int,
        capacity: Optional[int] = None,
    ) -> None:
        if num_chirps < 0:
            raise ValidationError("num_chirps must be >= 0")
        self.simulator = simulator
        self.num_chirps = num_chirps
        self.capacity = capacity = BLOCK_ATTEMPTS if capacity is None else int(capacity)
        self.n = n = simulator._buffer_length
        # The draw and hit stacks are views of flat buffers with one
        # spare slot at the end: the samples of a signal window that
        # runs off either end of its row are sent there.
        rows = capacity * num_chirps
        self._draws_flat = np.empty(rows * n + 1)
        self._draws_flat[-1] = 0.0
        self._hits_flat = np.empty(rows * n + 1, dtype=bool)
        self.draws = self._draws_flat[:-1].reshape(capacity, num_chirps, n)
        self._hits = self._hits_flat[:-1].reshape(capacity, num_chirps, n)
        self._rows = list(self.draws.reshape(rows, n))
        # Every chirp-long window of every row, as views (none when a
        # chirp outlasts the buffer).
        taps = min(simulator._taps.size, n)
        self._draw_windows = _windows(self._draws_flat, rows, n, taps)
        self._hit_windows = _windows(self._hits_flat, rows, n, taps)
        #: Every drawn chirp's timing jitter, in draw order.
        self.jitter: List[float] = []
        #: One tuple of columns per drawn attempt (see :meth:`draw`).
        self.columns: List[Tuple[float, ...]] = []
        #: Attempts that get dense rows: their burst rows (None for an
        #: echo without bursts), in attempt order.
        self.dense: Dict[int, Optional[np.ndarray]] = {}
        self._probs = np.empty((num_chirps, n))

    @property
    def size(self) -> int:
        return len(self.columns)

    @property
    def full(self) -> bool:
        return len(self.columns) == self.capacity

    def clear(self) -> None:
        self.columns.clear()
        self.jitter.clear()
        self.dense.clear()

    def draw(
        self,
        distance_m: float,
        source_hw: HardwareProfile,
        receiver_hw: HardwareProfile,
        link: LinkRealization,
        rng: np.random.Generator,
    ) -> None:
        """Pass 1 for one attempt: its draws, in order, and its columns."""
        a = len(self.columns)
        sim = self.simulator
        base_fp = sim.environment.false_positive_rate
        if receiver_hw.faulty:
            base_fp = max(base_fp, sim.faulty_fp_rate)
        # A long noise event (e.g. aircraft) covers the entire
        # measurement: all chirps see the elevated floor.
        if rng.random() < sim.long_noise_probability:
            base_fp = max(base_fp, sim.long_noise_fp_rate)
        num_chirps = self.num_chirps
        fs = sim.tdoa.sampling_rate_hz
        sigma = sim.timing_jitter_samples
        jitter = self.jitter
        rows = self._rows
        first = a * num_chirps
        lam = sim._burst_mean
        # Bound once: the loop below runs once per chirp.
        poisson, normal, random = rng.poisson, rng.normal, rng.random
        burst_rows = None
        for c in range(num_chirps):
            if lam is not None:
                n_bursts = poisson(lam)
                if n_bursts:
                    if burst_rows is None:
                        burst_rows = np.full((num_chirps, self.n), base_fp)
                    sim._bursts._place_bursts(burst_rows[c], n_bursts, fs, base_fp, rng)
            jitter.append(normal(0.0, sigma))
            random(out=rows[first + c])

        if burst_rows is not None or link.has_echo:
            self.dense[a] = burst_rows
        self.columns.append(
            (
                distance_m,
                source_hw.speaker_gain_db + receiver_hw.mic_gain_db,
                source_hw.latency_bias_s + receiver_hw.latency_bias_s,
                link.link_gain_db,
                link.echo_delay_s,
                base_fp,
                # A faulty receiver scales the hit probability; 1.0
                # leaves it exact.
                sim.faulty_hit_scale if receiver_hw.faulty else 1.0,
                link.has_echo,
            )
        )

    def counts(self) -> np.ndarray:
        """Pass 2: the ``(size, n)`` int64 count buffers, clipped at 15."""
        return np.minimum(self.hit_sums(), 15, dtype=np.int64)

    def hit_sums(self) -> np.ndarray:
        """Pass 2: each attempt's hits summed over its chirps, ``(size,
        n)``, unclipped.  A threshold of at most 15 finds the same
        samples here as in :meth:`counts`."""
        size = len(self.columns)
        if size == 0:
            return np.zeros((0, self.n), dtype=np.uint8)
        sim = self.simulator
        fs = sim.tdoa.sampling_rate_hz
        columns = np.array(self.columns, dtype=float).T
        distance, unit_gain, latency_s, link_gain, echo_delay, base_fp, hit_scale, has_echo = columns
        snr = snr_db(
            distance,
            sim.environment,
            source_level_db=sim.source_level_db,
            unit_gain_db=unit_gain,
            link_gain_db=link_gain,
        )
        p_hit = sim.detector.hit_probability(snr) * hit_scale
        # Latency biases shift the arrival by a constant per node pair.
        nominal = distance / sim.tdoa.meters_per_sample + latency_s * fs
        arrivals = nominal[:, None] + np.array(self.jitter).reshape(size, self.num_chirps)
        ramp = sim._ramp
        keep = 1.0 - ramp * p_hit[:, None]

        draws = self.draws[:size]
        hits = self._hits[:size]
        # Away from the signal a sample's probability is the floor;
        # then the samples under a chirp are compared again.
        np.less(draws, base_fp[:, None, None], out=hits)
        if len(self.dense) < size:
            self._compare_windows(*self._window(arrivals, base_fp, keep))
        echo_strength = sim.environment.echo_strength
        # The chirps mix into a copy: the stored burst rows stay as drawn,
        # so a second call gives the same sums.
        probs = self._probs
        for a, burst_rows in self.dense.items():
            if burst_rows is None:
                probs.fill(base_fp[a])
            else:
                np.copyto(probs, burst_rows)
            _mix_chirps(probs, arrivals[a], keep[a])
            if has_echo[a]:
                _mix_chirps(
                    probs,
                    arrivals[a] + echo_delay[a] * fs,
                    1.0 - ramp * (p_hit[a] * echo_strength),
                )
            np.less(draws[a], probs, out=hits[a])
        # A pattern has at most 15 chirps, so uint8 holds any sane sum.
        dtype = np.uint8 if self.num_chirps < 256 else np.int64
        return np.add.reduce(hits, axis=1, dtype=dtype)

    def _window(
        self, arrivals: np.ndarray, base_fp: np.ndarray, keep: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Where each chirp's arrival lands, and its probability there.

        Chirp ``c`` of attempt ``a`` starts at ``s = round(arrivals[a,
        c])`` (half to even, as in :func:`_mix_chirps`) and covers
        sample ``s + j`` for ``j < keep.shape[1]``, clipped to the row,
        with probability ``1 - (1 - base_fp[a]) * keep[a, j]``.  Returns
        the starts, ``(size, num_chirps)`` int64, and the
        probabilities, ``(size, taps)``.
        """
        n = self.n
        taps = keep.shape[1]
        # Clipping first keeps the integer cast exact, as in _mix_chirps.
        starts = np.rint(np.minimum(np.maximum(arrivals, -taps), n)).astype(np.int64)
        return starts, 1.0 - (1.0 - base_fp)[:, None] * keep

    def _compare_windows(self, starts: np.ndarray, probs: np.ndarray) -> None:
        """Compare again the samples under each chirp (see
        :meth:`_window`).  A window inside its row is one row of the
        stacks' sliding-window views; the few that run off either end
        take flat indices, with their samples off the row sent to the
        spare slot."""
        num_chirps = starts.shape[1]
        n = self.n
        inside = (starts >= 0) & (starts <= n - probs.shape[1])
        attempt, chirp = np.nonzero(inside)
        if attempt.size:
            row = attempt * num_chirps + chirp
            start = starts[attempt, chirp]
            self._hit_windows[row, start] = self._draw_windows[row, start] < probs[attempt]
        if attempt.size < inside.size:
            attempt, chirp = np.nonzero(~inside)
            samples = starts[attempt, chirp][:, None] + self.simulator._taps
            index = samples + ((attempt * num_chirps + chirp) * n)[:, None]
            # Negative samples wrap to huge unsigned values, so one
            # comparison finds both ends.
            np.putmask(index, samples.view(np.uint64) >= n, self._draws_flat.size - 1)
            self._hits_flat[index] = self._draws_flat[index] < probs[attempt]


def _windows(flat: np.ndarray, rows: int, n: int, taps: int) -> np.ndarray:
    """Every *taps*-long window of the first *rows* rows of length *n*
    in *flat*, ``(rows, n - taps + 1, taps)``: the view
    ``sliding_window_view`` gives, writing through, for a small part of
    its set-up cost (a block of one is built per ``measure`` call)."""
    step = flat.itemsize
    return np.ndarray(
        (rows, n - taps + 1, taps), flat.dtype, flat, strides=(n * step, step, step)
    )


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
