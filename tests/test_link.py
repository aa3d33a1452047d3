"""Tests for the signal-level link simulator (repro.ranging.link)."""

import numpy as np
import pytest

from repro.acoustics import get_environment
from repro.acoustics.hardware import HardwareProfile
from repro.ranging.link import AcousticLinkSimulator, LinkRealization
from repro.ranging.tdoa import TdoaConfig

from _acoustic_oracle import link_snr_db


@pytest.fixture
def sim():
    env = get_environment("grass").with_overrides(
        false_positive_rate=0.0,
        noise_burst_rate_hz=0.0,
    )
    simulator = AcousticLinkSimulator(environment=env)
    simulator.long_noise_probability = 0.0
    return simulator


CLEAN_LINK = LinkRealization(link_gain_db=0.0, has_echo=False)


class TestBufferGeometry:
    def test_buffer_length(self, sim):
        counts = sim.simulate_counts(5.0, link=CLEAN_LINK, rng=0)
        assert counts.shape[0] == sim.tdoa.buffer_length

    def test_counts_bounded_by_chirps(self, sim):
        counts = sim.simulate_counts(5.0, link=CLEAN_LINK, rng=0)
        assert counts.max() <= sim.pattern.num_chirps
        assert counts.min() >= 0

    def test_signal_lands_at_expected_index(self, sim):
        distance = 8.0
        counts = sim.simulate_counts(distance, link=CLEAN_LINK, rng=1)
        expected = sim.tdoa.index_from_distance(distance)
        chirp_len = sim.pattern.chirp_samples(sim.tdoa.sampling_rate_hz)
        window = counts[expected - 8 : expected + chirp_len + 8]
        assert window.sum() > 0
        # Nothing before the arrival (no noise in this fixture).
        assert counts[: expected - 8].sum() == 0

    def test_out_of_buffer_distance_empty(self, sim):
        counts = sim.simulate_counts(100.0, link=CLEAN_LINK, rng=0)
        assert counts.sum() == 0

    def test_negative_distance_rejected(self, sim):
        with pytest.raises(Exception):
            sim.simulate_counts(-1.0, link=CLEAN_LINK)


class TestSnrBehaviour:
    def test_snr_decreases_with_distance(self, sim):
        hw = HardwareProfile()
        snr_near = link_snr_db(sim, 5.0, hw, hw, CLEAN_LINK)
        snr_far = link_snr_db(sim, 18.0, hw, hw, CLEAN_LINK)
        assert snr_near > snr_far

    def test_unit_gains_add(self, sim):
        hw = HardwareProfile()
        loud = HardwareProfile(speaker_gain_db=5.0)
        base = link_snr_db(sim, 10.0, hw, hw, CLEAN_LINK)
        boosted = link_snr_db(sim, 10.0, loud, hw, CLEAN_LINK)
        assert boosted == pytest.approx(base + 5.0)

    def test_link_gain_applied(self, sim):
        hw = HardwareProfile()
        attenuated = LinkRealization(link_gain_db=-10.0)
        base = link_snr_db(sim, 10.0, hw, hw, CLEAN_LINK)
        shadowed = link_snr_db(sim, 10.0, hw, hw, attenuated)
        assert shadowed == pytest.approx(base - 10.0)

    def test_weak_signal_fewer_detections(self, sim):
        rng = np.random.default_rng(0)
        strong = sim.simulate_counts(5.0, link=CLEAN_LINK, rng=rng).sum()
        weak = sim.simulate_counts(
            5.0, link=LinkRealization(link_gain_db=-28.0), rng=rng
        ).sum()
        assert weak < strong


class TestErrorSources:
    def test_faulty_receiver_raises_floor(self, sim):
        rng = np.random.default_rng(0)
        faulty = HardwareProfile(faulty=True)
        counts = sim.simulate_counts(
            100.0, receiver_hw=faulty, link=CLEAN_LINK, rng=rng
        )
        # No signal in buffer, yet the faulty detector fires anyway.
        assert counts.sum() > 0

    def test_echo_adds_second_arrival(self, sim):
        rng = np.random.default_rng(3)
        echo = LinkRealization(
            link_gain_db=5.0, has_echo=True, echo_delay_s=0.02
        )
        distance = 5.0
        fs = sim.tdoa.sampling_rate_hz
        chirp_len = sim.pattern.chirp_samples(fs)
        arrival = sim.tdoa.index_from_distance(distance)
        echo_start = arrival + int(0.02 * fs)
        counts = sim.simulate_counts(distance, link=echo, rng=rng)
        gap = counts[arrival + chirp_len + 16 : echo_start - 16]
        echo_zone = counts[echo_start : echo_start + chirp_len]
        assert echo_zone.sum() > gap.sum()

    def test_long_noise_floods_buffer(self, sim):
        sim.long_noise_probability = 1.0
        rng = np.random.default_rng(0)
        counts = sim.simulate_counts(100.0, link=CLEAN_LINK, rng=rng)
        # Elevated false positives across the whole buffer.
        assert counts.sum() > 20

    def test_latency_bias_shifts_arrival(self, sim):
        slow = HardwareProfile(latency_bias_s=0.005)  # ~80 samples
        counts_norm = sim.simulate_counts(8.0, link=CLEAN_LINK, rng=0)
        counts_slow = sim.simulate_counts(
            8.0, source_hw=slow, link=CLEAN_LINK, rng=0
        )
        first_norm = np.nonzero(counts_norm)[0][0]
        first_slow = np.nonzero(counts_slow)[0][0]
        assert first_slow > first_norm + 40


class TestDrawLink:
    def test_echo_probability_zero(self):
        env = get_environment("grass").with_overrides(echo_probability=0.0)
        no_echo_sim = AcousticLinkSimulator(environment=env)
        rng = np.random.default_rng(0)
        links = [no_echo_sim.draw_link(rng) for _ in range(50)]
        assert not any(l.has_echo for l in links)

    def test_echo_probability_one(self):
        env = get_environment("urban").with_overrides(echo_probability=1.0)
        sim = AcousticLinkSimulator(environment=env)
        rng = np.random.default_rng(0)
        link = sim.draw_link(rng)
        assert link.has_echo
        lo, hi = env.echo_delay_range_s
        assert lo <= link.echo_delay_s <= hi

    def test_gain_variance_matches_environment(self):
        env = get_environment("grass")
        sim = AcousticLinkSimulator(environment=env)
        rng = np.random.default_rng(1)
        gains = np.array([sim.draw_link(rng).link_gain_db for _ in range(500)])
        assert abs(gains.std() - env.ground_variation_db) < 1.0


class TestDeterminism:
    def test_same_seed_same_buffer(self, sim):
        a = sim.simulate_counts(7.0, link=CLEAN_LINK, rng=42)
        b = sim.simulate_counts(7.0, link=CLEAN_LINK, rng=42)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self, sim):
        a = sim.simulate_counts(7.0, link=CLEAN_LINK, rng=1)
        b = sim.simulate_counts(7.0, link=CLEAN_LINK, rng=2)
        assert not np.array_equal(a, b)
