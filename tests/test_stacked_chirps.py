"""The block link simulator and the window detector are bytewise their
per-chirp and convolve references.

``AcousticLinkSimulator.simulate_counts`` is a block of one attempt
through ``LinkBlock``: each chirp's draws are made in the same order,
and everything else runs afterwards, stacked (the floor comparison, the
signal window, or dense rows with bursts and echoes).  The detector's
entry points share one exact window count in place of a ``np.convolve``
each.  The references they replaced live in
``tests/_acoustic_oracle.py``; here the count buffers, the generator's
end states, the probabilities and the detection indices are compared
with them bit for bit, and whole campaigns with the per-attempt
campaign.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.acoustics.environment import ENVIRONMENTS, get_environment
from repro.acoustics.hardware import HardwarePopulation, HardwareProfile
from repro.acoustics.noise import NoiseBurstProcess
from repro.acoustics.signal import ChirpPattern
from repro.deploy import paper_grid
from repro.ranging import link as link_module
from repro.ranging.campaign import run_campaign
from repro.ranging.detection import detect_signal, first_windows
from repro.ranging.link import AcousticLinkSimulator, LinkBlock, LinkRealization
from repro.ranging.service import RangingService

import _acoustic_oracle

#: Every preset, a burst-free one (the writer draws nothing) and a
#: burst-heavy one (several bursts per chirp, so their draws and
#: overlaps are exercised on every example).
ENVIRONMENT_CASES = {
    **ENVIRONMENTS,
    "grass-no-bursts": get_environment("grass").with_overrides(noise_burst_rate_hz=0.0),
    "urban-bursty": get_environment("urban").with_overrides(noise_burst_rate_hz=60.0),
}


def _simulator(environment, jitter, ramp, long_noise, chirp_s):
    return AcousticLinkSimulator(
        environment=ENVIRONMENT_CASES[environment],
        pattern=ChirpPattern(chirp_duration_s=chirp_s),
        timing_jitter_samples=jitter,
        ramp_samples=ramp,
        long_noise_probability=long_noise,
    )


def _same_counts(sim, distance, rng_seed, **kwargs):
    fast_rng = np.random.default_rng(rng_seed)
    slow_rng = np.random.default_rng(rng_seed)
    fast = sim.simulate_counts(distance, rng=fast_rng, **kwargs)
    slow = _acoustic_oracle.simulate_counts(sim, distance, rng=slow_rng, **kwargs)
    assert fast.dtype == slow.dtype == np.int64
    assert fast.tobytes() == slow.tobytes()
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


#: Buffer geometry of the default simulator: n samples of about 2.1 cm,
#: so the buffer ends near 26 m and an 8 ms chirp spans 128 samples.
_TDOA = AcousticLinkSimulator(environment=ENVIRONMENTS["grass"]).tdoa
_END_M = _TDOA.buffer_length * _TDOA.meters_per_sample

distances = st.one_of(
    # Near zero: a negative latency bias plus jitter clips the chirp
    # (and a short echo) at the start of the buffer.
    st.floats(0.0, 1.0),
    st.floats(0.0, 30.0),
    # The chirp or its echo runs into, onto or past the buffer end.
    st.floats(_END_M - 4.0, _END_M + 2.0),
)
hardware = st.builds(
    HardwareProfile,
    speaker_gain_db=st.floats(-6.0, 6.0),
    mic_gain_db=st.floats(-6.0, 6.0),
    latency_bias_s=st.floats(-0.006, 0.002),
    faulty=st.booleans(),
)
links = st.builds(
    LinkRealization,
    link_gain_db=st.floats(-10.0, 10.0),
    has_echo=st.booleans(),
    # Up to 0.04 s: from echoes overlapping the chirp (under 128
    # samples) to echoes pushed past the buffer end.
    echo_delay_s=st.floats(0.0, 0.04),
)


class TestCountBuffers:
    @given(
        environment=st.sampled_from(sorted(ENVIRONMENT_CASES)),
        distance=distances,
        source_hw=hardware,
        receiver_hw=hardware,
        link=links,
        num_chirps=st.integers(1, 15),
        jitter=st.sampled_from([0.0, 1.5, 40.0]),
        ramp=st.sampled_from([1, 64, 200]),
        long_noise=st.sampled_from([0.0, 0.03, 1.0]),
        chirp_s=st.sampled_from([0.004, 0.008, 0.016]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # urban echo, faulty receiver, one chirp (baseline mode)
        environment="urban", distance=3.0, source_hw=HardwareProfile(),
        receiver_hw=HardwareProfile(faulty=True),
        link=LinkRealization(has_echo=True, echo_delay_s=0.004), num_chirps=1,
        jitter=1.5, ramp=64, long_noise=1.0, chirp_s=0.008, seed=0,
    )
    @example(  # the chirp starts before the buffer
        environment="grass-no-bursts", distance=0.0,
        source_hw=HardwareProfile(latency_bias_s=-0.004),
        receiver_hw=HardwareProfile(latency_bias_s=-0.002),
        link=LinkRealization(has_echo=True, echo_delay_s=0.003), num_chirps=10,
        jitter=1.5, ramp=64, long_noise=0.0, chirp_s=0.008, seed=1,
    )
    @example(  # the chirp starts past the buffer; nothing is mixed
        environment="pavement", distance=_END_M + 2.0, source_hw=HardwareProfile(),
        receiver_hw=HardwareProfile(), link=LinkRealization(), num_chirps=15,
        jitter=1.5, ramp=64, long_noise=0.03, chirp_s=0.008, seed=2,
    )
    @settings(max_examples=150, deadline=None)
    def test_buffer_and_generator_state_match_the_per_chirp_reference(
        self, environment, distance, source_hw, receiver_hw, link, num_chirps,
        jitter, ramp, long_noise, chirp_s, seed,
    ):
        sim = _simulator(environment, jitter, ramp, long_noise, chirp_s)
        _same_counts(
            sim, distance, seed, source_hw=source_hw, receiver_hw=receiver_hw,
            link=link, num_chirps=num_chirps,
        )

    @given(
        environment=st.sampled_from(["urban", "pavement", "grass-no-bursts", "urban-bursty"]),
        distance=distances,
        source_hw=hardware,
        link=links,
        num_chirps=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # no bursts, no echo: the floor-and-window path
        environment="grass-no-bursts", distance=6.0, source_hw=HardwareProfile(),
        link=LinkRealization(), num_chirps=10, seed=0,
    )
    @example(  # the window runs off the start of the buffer
        environment="grass-no-bursts", distance=0.0,
        source_hw=HardwareProfile(latency_bias_s=-0.006),
        link=LinkRealization(), num_chirps=10, seed=1,
    )
    @example(  # the window runs off the end of the buffer
        environment="grass-no-bursts", distance=_END_M - 1.0, source_hw=HardwareProfile(),
        link=LinkRealization(), num_chirps=10, seed=2,
    )
    @example(  # an echo: dense rows
        environment="urban", distance=3.0, source_hw=HardwareProfile(),
        link=LinkRealization(has_echo=True, echo_delay_s=0.004), num_chirps=10, seed=3,
    )
    @settings(max_examples=80, deadline=None)
    def test_probability_stack_matches_the_per_chirp_tracks(
        self, environment, distance, source_hw, link, num_chirps, seed
    ):
        # The counts hide last-bit differences in the probabilities (a
        # uniform rarely lands between two neighboring doubles), so the
        # probabilities themselves are compared with the reference's
        # tracks, each as it stood when its chirp's hits were drawn.  A
        # dense attempt's are its mixed rows; any other attempt's are
        # its floor with the window's probabilities at the window's
        # samples.
        sim = AcousticLinkSimulator(environment=ENVIRONMENT_CASES[environment])
        mixed = []
        windows = []
        tracks = []
        mix_chirps = link_module._mix_chirps
        window = LinkBlock._window
        add_signal = _acoustic_oracle.add_signal

        def record_mix(probs, arrivals, keep):
            mix_chirps(probs, arrivals, keep)
            mixed[:] = [probs.copy()]

        def record_window(block, arrivals, base_fp, keep):
            starts, probs = window(block, arrivals, base_fp, keep)
            samples = starts[0][:, None] + np.arange(probs.shape[1])
            chirps = np.broadcast_to(np.arange(block.num_chirps)[:, None], samples.shape)
            covered = (samples >= 0) & (samples < block.n)
            implied = np.full((block.num_chirps, block.n), base_fp[0])
            implied[chirps[covered], samples[covered]] = np.broadcast_to(probs[0], samples.shape)[covered]
            windows[:] = [implied]
            return starts, probs

        def record_track(p, arrival, p_hit, ramp):
            add_signal(p, arrival, p_hit, ramp)
            if not tracks or tracks[-1] is not p:
                tracks.append(p)

        with mock.patch.object(link_module, "_mix_chirps", record_mix), mock.patch.object(
            LinkBlock, "_window", record_window
        ), mock.patch.object(_acoustic_oracle, "add_signal", record_track):
            _same_counts(sim, distance, seed, source_hw=source_hw, link=link, num_chirps=num_chirps)
        stack = mixed[0] if mixed else windows[0]
        assert stack.tobytes() == np.stack(tracks).tobytes()

    @pytest.mark.parametrize("environment", sorted(ENVIRONMENT_CASES))
    def test_defaults_draw_the_link_and_the_pattern(self, environment):
        # No link, hardware or chirp count given: the link is drawn
        # from the same generator first.
        sim = AcousticLinkSimulator(environment=ENVIRONMENT_CASES[environment])
        for seed in range(20):
            _same_counts(sim, 0.5 * seed, seed)

    def test_zero_chirps_draw_nothing_after_the_link(self):
        sim = AcousticLinkSimulator(environment=ENVIRONMENTS["urban"])
        _same_counts(sim, 5.0, 3, link=LinkRealization(has_echo=True), num_chirps=0)

    def test_negative_chirp_count_rejected(self):
        sim = AcousticLinkSimulator(environment=ENVIRONMENTS["grass"])
        with pytest.raises(ValueError, match="num_chirps"):
            sim.simulate_counts(5.0, link=LinkRealization(), num_chirps=-1, rng=0)


class TestFalsePositiveTrack:
    @given(
        rate_hz=st.sampled_from([0.0, 0.08, 30.0, 400.0]),
        n_samples=st.integers(0, 3000),
        base_rate=st.floats(0.0, 1.0),
        fp_rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_track_and_generator_state_match_the_reference(
        self, rate_hz, n_samples, base_rate, fp_rate, seed
    ):
        process = NoiseBurstProcess(rate_hz=rate_hz, duration_s=0.01, fp_rate=fp_rate)
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        fast = process.false_positive_track(n_samples, 16_000.0, base_rate, fast_rng)
        slow = _acoustic_oracle.false_positive_track(
            process, n_samples, 16_000.0, base_rate, slow_rng
        )
        assert fast.tobytes() == slow.tobytes()
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


class TestCampaignEndToEnd:
    @pytest.mark.parametrize("mode", ["refined", "baseline"])
    @pytest.mark.parametrize("environment", ["grass", "urban"])
    def test_campaign_matches_the_reference_pipeline(self, environment, mode):
        # A faulty-heavy population on a 3 x 3 grid: every directed
        # attempt of three rounds, through the radio and the detector,
        # against the frozen per-attempt campaign (which measures with
        # the per-chirp simulator and the convolve detector).
        positions = paper_grid(9)
        population = HardwarePopulation(faulty_probability=0.3, latency_bias_std_s=0.002)
        service = RangingService(environment=ENVIRONMENTS[environment], mode=mode)
        fast_rng = np.random.default_rng(5)
        slow_rng = np.random.default_rng(5)
        fast = run_campaign(positions, service, rng=fast_rng, hardware_population=population)
        slow = _acoustic_oracle.run_campaign(
            positions, service, rng=slow_rng, hardware_population=population
        )
        assert len(fast) > 0
        assert list(fast) == list(slow)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


count_buffers = hnp.arrays(
    np.int64, st.integers(0, 80), elements=st.integers(0, 15)
)


class TestDetector:
    @given(
        samples=count_buffers,
        m=st.integers(1, 40),
        k_frac=st.floats(0.0, 1.0),
        threshold=st.integers(1, 16),
    )
    @example(samples=np.full(10, 3, dtype=np.int64), m=32, k_frac=0.2, threshold=2)  # n < m
    @example(samples=np.full(32, 3, dtype=np.int64), m=32, k_frac=0.2, threshold=2)  # n == m
    @example(samples=np.full(40, 3, dtype=np.int64), m=32, k_frac=1.0, threshold=2)  # k == m
    @example(samples=np.full(40, 15, dtype=np.int64), m=6, k_frac=0.5, threshold=16)  # none reach T
    @settings(max_examples=300, deadline=None)
    def test_indices_match_the_convolve_reference(self, samples, m, k_frac, threshold):
        k = max(1, round(k_frac * m))
        assert detect_signal(samples, k, m, threshold) == _acoustic_oracle.detect_signal(
            samples, k, m, threshold
        )

    @pytest.mark.parametrize(
        "k, m, threshold, message",
        [
            (0, 32, 2, "k and m must be >= 1"),
            (6, 0, 2, "k and m must be >= 1"),
            (40, 32, 2, "cannot exceed"),
            (6, 32, 0, "threshold must be >= 1"),
        ],
    )
    def test_both_entry_points_validate_alike(self, k, m, threshold, message):
        # detect_signal is one row of first_windows: one set of messages.
        with pytest.raises(ValueError, match=message):
            detect_signal(np.zeros(100, dtype=np.int64), k, m, threshold)
        with pytest.raises(ValueError, match=message):
            first_windows(np.zeros((1, 100), dtype=np.int64), k, m, threshold)
        with pytest.raises(ValueError, match="1-dimensional"):
            detect_signal(np.zeros((2, 50)), 6, 32, 2)
        with pytest.raises(ValueError, match="2-dimensional"):
            first_windows(np.zeros(50), 6, 32, 2)

