"""The block campaign kernel is bytewise the per-attempt campaign.

``RangingCampaign.run`` makes every attempt's draws into a
``LinkBlock`` in the per-attempt order, and simulates and detects each
block at once afterwards.  ``tests/_acoustic_oracle.py`` keeps the
campaign it replaced: one ``measure`` per attempt through the per-chirp
simulator and the convolve detector.  Here both run on the same inputs
and seed, and the measurement sets, the edge lists after the triangle
and confidence filters, and the generators' end states must be equal
bit for bit, whatever the block size.  ``calibrate`` is compared the
same way, and so is every row of a block's count buffers.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acoustics.environment import ENVIRONMENTS, get_environment
from repro.acoustics.hardware import HardwarePopulation, HardwareProfile
from repro.errors import CalibrationError
from repro.network.radio import RadioModel
from repro.ranging import link as link_module
from repro.ranging.campaign import CampaignConfig, RangingCampaign, run_campaign
from repro.ranging.consistency import triangle_filter
from repro.ranging.filtering import confidence_weighted_edges
from repro.ranging.link import AcousticLinkSimulator, LinkBlock, LinkRealization
from repro.ranging.service import RangingService

import _acoustic_oracle

#: Every preset, plus one where bursts land in most chirps (dense
#: rows) and one where every link has an echo long enough to run off
#: the end of the buffer.
ENVIRONMENT_CASES = {
    **ENVIRONMENTS,
    "urban-bursty": get_environment("urban").with_overrides(noise_burst_rate_hz=60.0),
    "grass-echoes": get_environment("grass").with_overrides(
        echo_probability=1.0, echo_delay_range_s=(0.0, 0.04)
    ),
}

BLOCK_SIZES = [1, 3, link_module.BLOCK_ATTEMPTS]


def _service(environment, mode, long_noise):
    env = ENVIRONMENT_CASES[environment]
    return RangingService(
        environment=env,
        mode=mode,
        link_simulator=AcousticLinkSimulator(environment=env, long_noise_probability=long_noise),
    )


def _rows(measurements):
    """Every field of every measurement, floats as their exact hex."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(m))
        for m in measurements
    ]


def _edge_bytes(measurements):
    edges = confidence_weighted_edges(triangle_filter(measurements))
    return edges.pairs.tobytes(), edges.distances.tobytes(), edges.weights.tobytes()


positions = st.integers(3, 8).flatmap(
    lambda n: st.lists(
        st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)), min_size=n, max_size=n
    )
)


class TestCampaignKernel:
    @given(
        environment=st.sampled_from(sorted(ENVIRONMENT_CASES)),
        mode=st.sampled_from(["refined", "baseline"]),
        points=positions,
        faulty=st.sampled_from([0.0, 0.3, 1.0]),
        # Up to 2 ms of latency bias moves a near chirp off the start of
        # the buffer.
        latency_std=st.sampled_from([0.0, 0.002]),
        long_noise=st.sampled_from([0.0, 0.03, 1.0]),
        delivery=st.sampled_from([1.0, 0.6]),
        comm_range=st.sampled_from([100.0, 20.0]),
        # 40 m reaches past the buffer end (about 26 m), where windows
        # are clipped or miss the buffer entirely.
        attempt_range=st.sampled_from([None, 40.0]),
        rounds=st.integers(1, 3),
        block=st.sampled_from(BLOCK_SIZES),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # a 3 x 3 grid, every preset effect at once, one-attempt blocks
        environment="grass-echoes", mode="refined",
        points=[(8.0 * i, 8.0 * j) for i in range(3) for j in range(3)],
        faulty=0.3, latency_std=0.002, long_noise=0.03, delivery=0.6, comm_range=100.0,
        attempt_range=40.0, rounds=3, block=1, seed=7,
    )
    @example(  # baseline mode with bursts in most chirps, blocks of three
        environment="urban-bursty", mode="baseline",
        points=[(0.0, 0.0), (0.1, 0.0), (12.0, 5.0), (27.0, 0.0)],
        faulty=0.0, latency_std=0.002, long_noise=1.0, delivery=1.0, comm_range=20.0,
        attempt_range=40.0, rounds=2, block=3, seed=11,
    )
    @settings(max_examples=100, deadline=None)
    def test_campaign_matches_the_per_attempt_campaign(
        self, environment, mode, points, faulty, latency_std, long_noise, delivery,
        comm_range, attempt_range, rounds, block, seed,
    ):
        service = _service(environment, mode, long_noise)
        config = CampaignConfig(
            rounds=rounds,
            attempt_range_m=attempt_range,
            radio=RadioModel(comm_range_m=comm_range, delivery_probability=delivery),
        )
        population = HardwarePopulation(faulty_probability=faulty, latency_bias_std_s=latency_std)
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        with mock.patch.object(link_module, "BLOCK_ATTEMPTS", block):
            fast = RangingCampaign(
                points, service, config=config, hardware_population=population, rng=fast_rng
            ).run()
        slow = _acoustic_oracle.run_campaign(
            points, service, config=config, hardware_population=population, rng=slow_rng
        )
        assert _rows(fast) == _rows(slow)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        assert _edge_bytes(fast) == _edge_bytes(slow)

    @pytest.mark.parametrize(
        "environment",
        [
            get_environment("urban").with_overrides(noise_burst_rate_hz=60.0),
            get_environment("grass").with_overrides(noise_burst_rate_hz=0.0),
        ],
        ids=["bursts", "no-bursts"],
    )
    def test_run_campaign_leaves_the_generator_where_the_oracle_does(self, environment):
        service = RangingService(environment=environment)
        points = [(8.0 * i, 8.0 * j) for i in range(3) for j in range(3)]
        fast_rng = np.random.default_rng(21)
        slow_rng = np.random.default_rng(21)
        fast = run_campaign(points, service, rounds=2, rng=fast_rng)
        slow = _acoustic_oracle.run_campaign(points, service, rounds=2, rng=slow_rng)
        assert len(fast) > 0
        assert _rows(fast) == _rows(slow)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_pair_distances_are_the_per_attempt_hypot(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(-40.0, 40.0, size=(25, 2))
        campaign = RangingCampaign(points, RangingService(environment=ENVIRONMENTS["grass"]))
        expected = np.array(
            [[_acoustic_oracle.true_distance(campaign.positions, i, j) for j in range(25)]
             for i in range(25)]
        )
        assert campaign.distances.tobytes() == expected.tobytes()


attempts = st.lists(
    st.tuples(
        st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 30.0)),
        st.builds(
            HardwareProfile,
            speaker_gain_db=st.floats(-6.0, 6.0),
            latency_bias_s=st.floats(-0.006, 0.002),
        ),
        st.builds(HardwareProfile, mic_gain_db=st.floats(-6.0, 6.0), faulty=st.booleans()),
        st.builds(
            LinkRealization,
            link_gain_db=st.floats(-10.0, 10.0),
            has_echo=st.booleans(),
            echo_delay_s=st.floats(0.0, 0.04),
        ),
    ),
    min_size=1,
    max_size=6,
)


class TestBlockCounts:
    @given(
        environment=st.sampled_from(sorted(ENVIRONMENT_CASES)),
        attempts=attempts,
        num_chirps=st.integers(0, 15),
        long_noise=st.sampled_from([0.0, 0.03, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_row_is_the_per_chirp_count_buffer(
        self, environment, attempts, num_chirps, long_noise, seed
    ):
        # Several attempts in one block: each row of the counts must be
        # the buffer the per-chirp simulator gives for that attempt,
        # with the draws taken in attempt order from one generator.
        env = ENVIRONMENT_CASES[environment]
        sim = AcousticLinkSimulator(environment=env, long_noise_probability=long_noise)
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        block = LinkBlock(sim, num_chirps, capacity=len(attempts))
        for distance, source_hw, receiver_hw, link in attempts:
            block.draw(distance, source_hw, receiver_hw, link, fast_rng)
        expected = [
            _acoustic_oracle.simulate_counts(
                sim, distance, source_hw=source_hw, receiver_hw=receiver_hw, link=link,
                num_chirps=num_chirps, rng=slow_rng,
            )
            for distance, source_hw, receiver_hw, link in attempts
        ]
        assert block.counts().tobytes() == np.stack(expected).tobytes()
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


    def test_hit_sums_leave_the_block_as_drawn(self):
        # Bursts in most chirps and an echo: the chirps mix into dense
        # rows, and a second call must see the rows as they were drawn.
        sim = AcousticLinkSimulator(environment=ENVIRONMENT_CASES["urban-bursty"])
        rng = np.random.default_rng(5)
        block = LinkBlock(sim, 10, capacity=2)
        echo = LinkRealization(link_gain_db=0.0, has_echo=True, echo_delay_s=0.004)
        for distance in (6.0, 11.0):
            block.draw(distance, HardwareProfile(), HardwareProfile(), echo, rng)
        assert all(rows is not None for rows in block.dense.values())
        first = block.hit_sums()
        assert block.hit_sums().tobytes() == first.tobytes()
        assert block.counts().tobytes() == np.minimum(first, 15).astype(np.int64).tobytes()

    def test_windows_at_the_row_ends_compare_only_their_covered_samples(self):
        # Starts on both sides of each row end: the windows inside a row
        # take the window views, the others the flat indices.
        sim = AcousticLinkSimulator(environment=get_environment("grass"))
        n, taps = sim._buffer_length, sim._taps.size
        ends = [-taps - 1, -taps, -taps + 1, -1, 0, 1, n - taps - 1, n - taps, n - taps + 1, n]
        block = LinkBlock(sim, len(ends), capacity=2)
        rng = np.random.default_rng(0)
        block.draws[...] = rng.random(block.draws.shape)
        block._hits[...] = False
        starts = np.array([ends, ends[::-1]], dtype=np.int64)
        probs = rng.random((2, taps))
        block._compare_windows(starts, probs)
        expected = np.zeros(block._hits.shape, dtype=bool)
        for a, c in np.ndindex(starts.shape):
            samples = starts[a, c] + np.arange(taps)
            covered = (samples >= 0) & (samples < n)
            expected[a, c, samples[covered]] = block.draws[a, c, samples[covered]] < probs[a, covered]
        assert block._hits.tobytes() == expected.tobytes()

    def test_counts_clip_hit_sums_at_15(self):
        # Twenty chirps at 5 m: most signal samples are hit more than
        # 15 times, and the count buffer clips them there.
        def block():
            sim = AcousticLinkSimulator(environment=get_environment("grass"))
            rng = np.random.default_rng(1)
            b = LinkBlock(sim, 20, capacity=1)
            link = LinkRealization(link_gain_db=0.0, has_echo=False, echo_delay_s=0.0)
            b.draw(5.0, HardwareProfile(), HardwareProfile(), link, rng)
            return b

        sums, counts = block().hit_sums(), block().counts()
        assert sums.max() > 15 and counts.max() == 15
        assert counts.dtype == np.int64
        assert counts.tobytes() == np.minimum(sums, 15).astype(np.int64).tobytes()


class TestCalibration:
    @given(
        environment=st.sampled_from(sorted(ENVIRONMENT_CASES)),
        mode=st.sampled_from(["refined", "baseline"]),
        long_noise=st.sampled_from([0.0, 0.03, 1.0]),
        distances=st.sampled_from([(2.0, 4.0, 6.0, 8.0, 10.0), (1.0, 25.0), (40.0, 60.0)]),
        rounds=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_calibration_matches_the_per_attempt_calibration(
        self, environment, mode, long_noise, distances, rounds, seed
    ):
        service = _service(environment, mode, long_noise)
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        try:
            fast = service.calibrate(distances, rounds=rounds, rng=fast_rng).tdoa
        except CalibrationError:
            fast = None
        try:
            slow = _acoustic_oracle.calibrate(service, distances, rounds=rounds, rng=slow_rng).tdoa
        except CalibrationError:
            slow = None
        assert fast == slow
        if fast is not None:
            assert fast.calibration_offset_m.hex() == slow.calibration_offset_m.hex()
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    @pytest.mark.parametrize("mode", ["refined", "baseline"])
    def test_detection_probability_matches_per_attempt_measures(self, mode):
        service = RangingService(environment=ENVIRONMENTS["urban"], mode=mode)
        fast_rng = np.random.default_rng(4)
        slow_rng = np.random.default_rng(4)
        fast = service.detection_probability(12.0, attempts=30, within_m=1.0, rng=fast_rng)
        hits = 0
        for _ in range(30):
            link = service.link_simulator.draw_link(slow_rng)
            estimate = _acoustic_oracle.measure(service, 12.0, link=link, rng=slow_rng)
            hits += estimate is not None and abs(estimate - 12.0) <= 1.0
        assert fast == hits / 30
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
