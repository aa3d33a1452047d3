"""Per-chirp reference for the acoustic link simulator and the detector.

:func:`simulate_counts` is the body
``repro.ranging.link.AcousticLinkSimulator.simulate_counts`` had before
it stacked the chirps: every chirp builds its own false-positive track
(:func:`false_positive_track`, validating its arguments each time),
mixes the signal and then the echo into it (:func:`add_signal`), draws
its uniforms with ``rng.random(n)`` and adds its hits to the counts.
It takes the simulator as its first argument, so tests can substitute
it for the method (``mock.patch.object(AcousticLinkSimulator,
"simulate_counts", simulate_counts)``) or call it directly, and compare
the count buffers and the generator's end state bit for bit.

:func:`link_snr_db` is the simulator's scalar per-link SNR, which
:func:`simulate_counts` calls once per attempt.

:func:`detect_signal` is the detector as it was before the prefix-sum
window count: it validates its arguments and counts the window hits
with an ``m``-tap ``np.convolve``.
:func:`first_hit` is the baseline service's detection as it was before
the block detector: the first sample at the threshold, per buffer.

:func:`run_campaign` is the campaign as it was before the block kernel:
it walks the attempts one at a time and measures each through
:func:`measure`, the per-attempt service (:func:`simulate_counts`, then
:func:`detect_signal` or the baseline's first hit, then
``distance_from_index``).  Every distance is a scalar ``np.hypot`` per
attempt per round (:func:`true_distance`).  :func:`calibrate` is the
service's calibration over :func:`measure`.  None of them runs
``LinkBlock``, the window detector or ``RangingCampaign.run``, so a test
can compare those with them bit for bit without patching anything.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro._validation import (
    as_positions,
    check_non_negative,
    check_positive,
    check_probability,
    ensure_rng,
)
from repro.acoustics.hardware import HardwarePopulation, HardwareProfile
from repro.acoustics.noise import NoiseBurstProcess
from repro.acoustics.propagation import snr_db
from repro.core.measurements import MeasurementSet
from repro.errors import CalibrationError, ValidationError
from repro.ranging.campaign import CampaignConfig
from repro.ranging.link import AcousticLinkSimulator, LinkRealization
from repro.ranging.service import RangingService


def false_positive_track(
    process: NoiseBurstProcess,
    n_samples: int,
    sampling_rate_hz: float,
    base_rate: float,
    rng=None,
) -> np.ndarray:
    check_positive(sampling_rate_hz, "sampling_rate_hz")
    check_probability(base_rate, "base_rate")
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    rng = ensure_rng(rng)
    track = np.full(n_samples, base_rate)
    if process.rate_hz == 0.0 or n_samples == 0:
        return track
    window_s = n_samples / sampling_rate_hz
    n_bursts = rng.poisson(process.rate_hz * window_s)
    for _ in range(int(n_bursts)):
        start_s = rng.uniform(0.0, window_s)
        length_s = rng.exponential(process.duration_s)
        start = int(start_s * sampling_rate_hz)
        stop = min(n_samples, start + max(1, int(length_s * sampling_rate_hz)))
        track[start:stop] = max(base_rate, process.fp_rate)
    return track


def add_signal(p: np.ndarray, arrival: float, p_hit: float, ramp: np.ndarray) -> None:
    n = p.shape[0]
    start = int(round(arrival))
    if start >= n:
        return
    chirp_len = ramp.shape[0]
    lo = max(0, start)
    hi = min(n, start + chirp_len)
    if hi <= lo:
        return
    segment = ramp[lo - start : hi - start] * p_hit
    p[lo:hi] = 1.0 - (1.0 - p[lo:hi]) * (1.0 - segment)


def link_snr_db(
    sim: AcousticLinkSimulator,
    distance_m: float,
    source_hw: HardwareProfile,
    receiver_hw: HardwareProfile,
    link: LinkRealization,
) -> float:
    """SNR at the receiver for one link, as one scalar."""
    return float(
        snr_db(
            distance_m,
            sim.environment,
            source_level_db=sim.source_level_db,
            unit_gain_db=source_hw.speaker_gain_db + receiver_hw.mic_gain_db,
            link_gain_db=link.link_gain_db,
        )
    )


def simulate_counts(
    sim: AcousticLinkSimulator,
    distance_m: float,
    *,
    source_hw: Optional[HardwareProfile] = None,
    receiver_hw: Optional[HardwareProfile] = None,
    link: Optional[LinkRealization] = None,
    num_chirps: Optional[int] = None,
    rng=None,
) -> np.ndarray:
    check_non_negative(distance_m, "distance_m")
    rng = ensure_rng(rng)
    source_hw = source_hw if source_hw is not None else HardwareProfile()
    receiver_hw = receiver_hw if receiver_hw is not None else HardwareProfile()
    link = link if link is not None else sim.draw_link(rng)
    if num_chirps is None:
        num_chirps = sim.pattern.num_chirps

    n = sim.tdoa.buffer_length
    fs = sim.tdoa.sampling_rate_hz
    chirp_len = sim.pattern.chirp_samples(fs)
    snr = link_snr_db(sim, distance_m, source_hw, receiver_hw, link)
    p_hit = float(sim.detector.hit_probability(snr))
    if receiver_hw.faulty:
        p_hit *= sim.faulty_hit_scale

    base_fp = sim.environment.false_positive_rate
    if receiver_hw.faulty:
        base_fp = max(base_fp, sim.faulty_fp_rate)
    long_noise = rng.random() < sim.long_noise_probability
    if long_noise:
        base_fp = max(base_fp, sim.long_noise_fp_rate)

    latency_s = source_hw.latency_bias_s + receiver_hw.latency_bias_s
    nominal_arrival = distance_m / sim.tdoa.meters_per_sample + latency_s * fs

    ramp = np.minimum(1.0, np.arange(1, chirp_len + 1, dtype=float) / sim.ramp_samples)

    counts = np.zeros(n, dtype=np.int64)
    for _ in range(int(num_chirps)):
        p = false_positive_track(sim._bursts, n, fs, base_fp, rng)
        arrival = nominal_arrival + rng.normal(0.0, sim.timing_jitter_samples)
        add_signal(p, arrival, p_hit, ramp)
        if link.has_echo:
            echo_arrival = arrival + link.echo_delay_s * fs
            add_signal(p, echo_arrival, p_hit * sim.environment.echo_strength, ramp)
        counts += (rng.random(n) < p).astype(np.int64)
    return np.minimum(counts, 15)


def detect_signal(samples: np.ndarray, k: int, m: int, threshold: int) -> int:
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValidationError("samples must be 1-dimensional")
    if m < 1 or k < 1:
        raise ValidationError("k and m must be >= 1")
    if k > m:
        raise ValidationError(f"k ({k}) cannot exceed window size m ({m})")
    if threshold < 1:
        raise ValidationError("threshold must be >= 1")
    n = samples.shape[0]
    if n < m:
        return -1
    hits = (samples >= threshold).astype(np.int64)
    window_counts = np.convolve(hits, np.ones(m, dtype=np.int64), mode="valid")
    candidates = np.nonzero((window_counts >= k) & (hits[: n - m + 1] == 1))[0]
    if candidates.size == 0:
        return -1
    return int(candidates[0])


def first_hit(samples: np.ndarray, threshold: int = 1) -> int:
    """Index of the first sample reaching *threshold*, or -1: the
    baseline service's detection (Section 3.3), one buffer at a time."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValidationError("samples must be 1-dimensional")
    if threshold < 1:
        raise ValidationError("threshold must be >= 1")
    hits = np.nonzero(samples >= threshold)[0]
    if hits.size == 0:
        return -1
    return int(hits[0])


def measure(
    service: RangingService,
    distance_m: float,
    *,
    source_hw: Optional[HardwareProfile] = None,
    receiver_hw: Optional[HardwareProfile] = None,
    link: Optional[LinkRealization] = None,
    rng=None,
) -> Optional[float]:
    rng = ensure_rng(rng)
    sim = service.link_simulator
    if service.mode == "baseline":
        counts = simulate_counts(
            sim, distance_m, source_hw=source_hw, receiver_hw=receiver_hw, link=link,
            num_chirps=1, rng=rng,
        )
        index = first_hit(counts, threshold=1)
    else:
        counts = simulate_counts(
            sim, distance_m, source_hw=source_hw, receiver_hw=receiver_hw, link=link, rng=rng
        )
        index = detect_signal(
            counts,
            k=service.detection.k,
            m=service.detection.m,
            threshold=service.detection.threshold,
        )
    if index < 0:
        return None
    return service.tdoa.distance_from_index(index)


def calibrate(
    service: RangingService,
    distances_m: Sequence[float] = (2.0, 4.0, 6.0, 8.0, 10.0),
    *,
    rounds: int = 10,
    rng=None,
) -> RangingService:
    rng = ensure_rng(rng)
    errors = []
    for d in distances_m:
        for _ in range(rounds):
            link = service.link_simulator.draw_link(rng)
            est = measure(service, d, link=link, rng=rng)
            if est is not None:
                errors.append(est - d)
    if not errors:
        raise CalibrationError("calibration produced no detections at any distance")
    offset = float(np.median(errors)) + service.tdoa.calibration_offset_m
    return replace(service, tdoa=service.tdoa.with_calibration(offset), link_simulator=None)


def true_distance(positions: np.ndarray, i: int, j: int) -> float:
    diff = positions[i] - positions[j]
    return float(np.hypot(diff[0], diff[1]))


def run_campaign(
    positions,
    service: RangingService,
    *,
    config: Optional[CampaignConfig] = None,
    rounds: Optional[int] = None,
    rng=None,
    hardware_population: Optional[HardwarePopulation] = None,
) -> MeasurementSet:
    positions = as_positions(positions, "positions")
    if config is None:
        config = CampaignConfig() if rounds is None else CampaignConfig(rounds=rounds)
    rng = ensure_rng(rng)
    population = hardware_population if hardware_population is not None else HardwarePopulation()
    n = positions.shape[0]
    hardware = {i: population.sample(rng) for i in range(n)}
    links: Dict[Tuple[int, int], LinkRealization] = {}

    def link_for(i: int, j: int) -> LinkRealization:
        key = (min(i, j), max(i, j))
        if key not in links:
            links[key] = service.link_simulator.draw_link(rng)
        return links[key]

    limit = config.attempt_range_m
    if limit is None:
        limit = 1.3 * service.tdoa.max_range_m
    measurements = MeasurementSet()
    for round_index in range(config.rounds):
        for source in range(n):
            for receiver in range(n):
                if receiver == source:
                    continue
                distance = true_distance(positions, source, receiver)
                if distance > limit:
                    continue
                if not config.radio.delivers(distance, rng):
                    continue
                estimate = measure(
                    service,
                    distance,
                    source_hw=hardware[source],
                    receiver_hw=hardware[receiver],
                    link=link_for(source, receiver),
                    rng=rng,
                )
                if estimate is None:
                    continue
                measurements.add_distance(
                    source, receiver, estimate, true_distance=distance, round_index=round_index
                )
    return measurements
