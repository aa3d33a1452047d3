"""Tests for the acoustic physics substrate (repro.acoustics)."""

import numpy as np
import pytest

from repro.acoustics import (
    ENVIRONMENTS,
    ChirpPattern,
    Environment,
    HardwarePopulation,
    HardwareProfile,
    NoiseBurstProcess,
    ToneDetectorModel,
    get_environment,
    hit_probability,
    received_level_db,
    snr_db,
    spreading_loss_db,
    synthesize_waveform,
)
from repro.acoustics.propagation import (
    LOUD_SPEAKER_SOURCE_LEVEL_DB,
    STOCK_BUZZER_SOURCE_LEVEL_DB,
)
from repro.errors import ValidationError


class TestEnvironments:
    def test_presets_exist(self):
        for name in ("grass", "pavement", "urban", "wooded"):
            env = get_environment(name)
            assert env.name == name

    def test_unknown_raises_with_choices(self):
        with pytest.raises(ValidationError, match="grass"):
            get_environment("moon")

    def test_attenuation_ordering(self):
        # Hard surfaces (pavement, urban) attenuate far less than
        # vegetation (grass, wooded).
        hard = max(
            ENVIRONMENTS["pavement"].excess_attenuation_db_per_m,
            ENVIRONMENTS["urban"].excess_attenuation_db_per_m,
        )
        assert hard < ENVIRONMENTS["grass"].excess_attenuation_db_per_m
        assert (
            ENVIRONMENTS["grass"].excess_attenuation_db_per_m
            <= ENVIRONMENTS["wooded"].excess_attenuation_db_per_m
        )

    def test_urban_echo_prone(self):
        assert ENVIRONMENTS["urban"].echo_probability > ENVIRONMENTS["grass"].echo_probability

    def test_with_overrides(self):
        env = get_environment("grass").with_overrides(noise_floor_db=50.0)
        assert env.noise_floor_db == 50.0
        assert get_environment("grass").noise_floor_db != 50.0

    def test_invalid_environment(self):
        with pytest.raises(ValidationError):
            Environment(
                name="bad",
                excess_attenuation_db_per_m=-1.0,
                noise_floor_db=30.0,
                false_positive_rate=0.001,
                noise_burst_rate_hz=0.1,
                noise_burst_duration_s=0.01,
                noise_burst_fp_rate=0.3,
                echo_probability=0.1,
                echo_delay_range_s=(0.01, 0.02),
                echo_strength=0.3,
                ground_variation_db=2.0,
            )


class TestPropagation:
    def test_spreading_loss_reference(self):
        assert spreading_loss_db(0.1) == pytest.approx(0.0)

    def test_spreading_loss_20db_per_decade(self):
        assert spreading_loss_db(1.0) == pytest.approx(20.0)
        assert spreading_loss_db(10.0) == pytest.approx(40.0)

    def test_doubling_distance_costs_six_db(self):
        assert spreading_loss_db(8.0) - spreading_loss_db(4.0) == pytest.approx(6.0206, abs=1e-4)

    def test_below_reference_clamped(self):
        assert spreading_loss_db(0.01) == pytest.approx(0.0)

    def test_received_level_monotone_decreasing(self):
        env = get_environment("grass")
        levels = received_level_db(np.array([1.0, 5.0, 10.0, 20.0]), env)
        assert np.all(np.diff(levels) < 0)

    def test_louder_speaker_higher_snr(self):
        env = get_environment("grass")
        loud = snr_db(10.0, env, source_level_db=LOUD_SPEAKER_SOURCE_LEVEL_DB)
        stock = snr_db(10.0, env, source_level_db=STOCK_BUZZER_SOURCE_LEVEL_DB)
        assert loud - stock == pytest.approx(
            LOUD_SPEAKER_SOURCE_LEVEL_DB - STOCK_BUZZER_SOURCE_LEVEL_DB
        )

    def test_loud_speaker_extends_range_substantially(self):
        # The hardware extension's whole point: the 105 dB speaker's
        # usable range (SNR crossing the detector threshold) is much
        # longer than the stock 88 dB buzzer's on grass.
        env = get_environment("grass")
        distances = np.linspace(0.5, 40.0, 400)

        def range_at_threshold(source_level):
            s = snr_db(distances, env, source_level_db=source_level)
            usable = distances[s > 8.0]
            return usable.max() if usable.size else 0.0

        loud = range_at_threshold(LOUD_SPEAKER_SOURCE_LEVEL_DB)
        stock = range_at_threshold(STOCK_BUZZER_SOURCE_LEVEL_DB)
        assert loud >= 1.5 * stock


class TestToneDetector:
    def test_hit_probability_monotone_in_snr(self):
        probs = hit_probability(np.array([-10.0, 0.0, 10.0, 30.0]))
        assert np.all(np.diff(probs) > 0)

    def test_saturation_cap(self):
        assert hit_probability(100.0, saturation=0.85) <= 0.85 + 1e-12

    def test_floor(self):
        assert hit_probability(-100.0, floor=0.01) >= 0.01 - 1e-12

    def test_floor_above_saturation_rejected(self):
        with pytest.raises(ValueError):
            hit_probability(0.0, floor=0.9, saturation=0.5)

    def test_sample_signal_rate(self):
        model = ToneDetectorModel()
        rng = np.random.default_rng(0)
        samples = model.sample_signal(30.0, 5000, rng)
        assert samples.mean() == pytest.approx(float(model.hit_probability(30.0)), abs=0.03)

    def test_sample_noise_rate(self):
        model = ToneDetectorModel()
        rng = np.random.default_rng(0)
        samples = model.sample_noise(0.02, 10_000, rng)
        assert samples.mean() == pytest.approx(0.02, abs=0.01)


class TestHardware:
    def test_defaults_nominal(self):
        hw = HardwareProfile()
        assert hw.speaker_gain_db == 0.0
        assert not hw.faulty

    def test_population_statistics(self):
        population = HardwarePopulation()
        rng = np.random.default_rng(0)
        profiles = population.sample_many(400, rng)
        gains = np.array([p.speaker_gain_db for p in profiles])
        assert abs(gains.std() - population.speaker_gain_std_db) < 0.5
        faulty_rate = np.mean([p.faulty for p in profiles])
        assert faulty_rate < 0.05

    def test_population_invalid(self):
        with pytest.raises(ValidationError):
            HardwarePopulation(faulty_probability=2.0)


class TestChirpPattern:
    def test_paper_defaults(self):
        pattern = ChirpPattern()
        assert pattern.num_chirps == 10
        assert pattern.chirp_duration_s == 0.008

    def test_chirp_samples(self):
        pattern = ChirpPattern(chirp_duration_s=0.008)
        assert pattern.chirp_samples(16_000.0) == 128

    def test_four_bit_accumulator_limit(self):
        with pytest.raises(ValidationError):
            ChirpPattern(num_chirps=16)

    def test_emission_times_monotone(self):
        pattern = ChirpPattern()
        times = pattern.emission_times(rng=0)
        assert np.all(np.diff(times) >= pattern.chirp_duration_s + pattern.interval_s)

    def test_random_delays_decorrelate(self):
        pattern = ChirpPattern(random_delay_max_s=0.02)
        a = pattern.emission_times(rng=1)
        b = pattern.emission_times(rng=2)
        assert not np.allclose(a[1:], b[1:])


class TestNoiseBursts:
    def test_zero_rate_flat_track(self):
        process = NoiseBurstProcess(rate_hz=0.0, duration_s=0.01, fp_rate=0.5)
        track = process.false_positive_track(1000, 16_000.0, 0.001, rng=0)
        assert np.all(track == 0.001)

    def test_bursts_elevate(self):
        process = NoiseBurstProcess(rate_hz=100.0, duration_s=0.01, fp_rate=0.5)
        track = process.false_positive_track(16_000, 16_000.0, 0.001, rng=0)
        assert track.max() == 0.5
        assert track.min() == 0.001

    def test_from_environment(self):
        env = get_environment("grass")
        process = NoiseBurstProcess.from_environment(env)
        assert process.rate_hz == env.noise_burst_rate_hz


class TestSynthesizeWaveform:
    def test_length(self):
        wave = synthesize_waveform(num_chirps=2, total_duration_s=0.1)
        assert wave.shape[0] == 1600

    def test_chirps_present(self):
        wave = synthesize_waveform(num_chirps=1, amplitude=100.0)
        assert np.abs(wave).max() == pytest.approx(100.0, rel=0.05)

    def test_silence_between_chirps(self):
        wave = synthesize_waveform(num_chirps=2, noise_std=0.0)
        assert (wave == 0).sum() > 50

    def test_noise_added(self):
        clean = synthesize_waveform(num_chirps=1, noise_std=0.0)
        noisy = synthesize_waveform(num_chirps=1, noise_std=50.0, rng=0)
        assert noisy.std() > clean.std()

    def test_invalid(self):
        with pytest.raises(ValidationError):
            synthesize_waveform(num_chirps=-1)
