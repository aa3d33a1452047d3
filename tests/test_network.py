"""Tests for the network substrate (clock, radio, nodes, simulator)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.network.clock import MAX_CLOCK_RATE_DIFFERENCE, DriftingClock, sync_ranging_error_m
from repro.network.node import SensorNode
from repro.network.radio import RadioModel
from repro.network.simulator import NetworkSimulator


class TestDriftingClock:
    def test_perfect_clock(self):
        clock = DriftingClock()
        assert clock.local_time(100.0) == 100.0

    def test_skew_accumulates(self):
        clock = DriftingClock(skew=1e-3)
        assert clock.local_time(1000.0) == pytest.approx(1001.0)

    def test_offset(self):
        clock = DriftingClock(offset=5.0)
        assert clock.local_time(0.0) == 5.0

    def test_true_interval_roundtrip(self):
        clock = DriftingClock(skew=50e-6)
        local = clock.local_time(10.0) - clock.local_time(0.0)
        assert clock.true_interval(local) == pytest.approx(10.0)

    def test_synchronize_zeroes_offset(self):
        clock = DriftingClock(skew=1e-4, offset=3.0)
        clock.synchronize(true_time=50.0)
        assert clock.local_time(50.0) == pytest.approx(50.0)

    def test_random_within_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            clock = DriftingClock.random(rng)
            assert abs(clock.skew) <= MAX_CLOCK_RATE_DIFFERENCE / 2


class TestSyncModels:
    def test_ranging_error_at_30m(self):
        # The paper's claim: ~0.15 cm at 30 m.
        assert sync_ranging_error_m(30.0) == pytest.approx(0.0015)

    def test_linear_in_distance(self):
        assert sync_ranging_error_m(60.0) == pytest.approx(2 * sync_ranging_error_m(30.0))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            sync_ranging_error_m(-1.0)

    def test_error_is_rate_times_distance(self):
        # The flight time d / v is mistimed by r * d / v seconds, which
        # is r * d meters whatever the speed of sound.
        for speed in (331.0, 340.0, 343.0):
            assert sync_ranging_error_m(
                20.0, speed_of_sound=speed, rate_difference=1e-4
            ) == pytest.approx(2e-3)


class TestRadioModel:
    def test_in_range(self):
        radio = RadioModel(comm_range_m=50.0)
        assert radio.in_range(50.0)
        assert not radio.in_range(50.1)

    def test_delivery_certain(self):
        radio = RadioModel(delivery_probability=1.0)
        assert all(radio.delivers(10.0, np.random.default_rng(i)) for i in range(20))

    def test_delivery_never(self):
        radio = RadioModel(delivery_probability=0.0)
        assert not any(radio.delivers(10.0, np.random.default_rng(i)) for i in range(20))

    def test_out_of_range_never_delivers(self):
        radio = RadioModel(comm_range_m=10.0, delivery_probability=1.0)
        assert not radio.delivers(11.0)

    def test_xmit_delay_near_mean(self):
        radio = RadioModel()
        rng = np.random.default_rng(0)
        delays = [radio.sample_xmit_delay_s(rng) for _ in range(200)]
        assert np.mean(delays) == pytest.approx(radio.xmit_delay_mean_s, abs=1e-4)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            RadioModel(comm_range_m=0.0)
        with pytest.raises(ValidationError):
            RadioModel(delivery_probability=1.5)


class TestSensorNode:
    def test_distance(self):
        a = SensorNode(0, (0.0, 0.0))
        b = SensorNode(1, (3.0, 4.0))
        assert a.distance_to(b) == 5.0

    def test_invalid_id(self):
        with pytest.raises(ValidationError):
            SensorNode(-1, (0.0, 0.0))

    def test_invalid_position(self):
        with pytest.raises(ValidationError):
            SensorNode(0, (float("nan"), 0.0))

    def test_position_array(self):
        node = SensorNode(0, (1.0, 2.0))
        assert np.allclose(node.position_array, [1.0, 2.0])


def line_network(n=5, spacing=10.0, **radio_kwargs):
    nodes = [SensorNode(i, (i * spacing, 0.0)) for i in range(n)]
    radio = RadioModel(delivery_probability=1.0, **radio_kwargs)
    return NetworkSimulator(nodes, radio=radio, rng=0)


class TestNetworkSimulator:
    def test_duplicate_ids_rejected(self):
        nodes = [SensorNode(0, (0, 0)), SensorNode(0, (1, 1))]
        with pytest.raises(ValidationError):
            NetworkSimulator(nodes)

    def test_unknown_node_rejected(self):
        sim = line_network()
        with pytest.raises(ValidationError):
            sim.node(99)

    def test_unicast_delivery(self):
        sim = line_network()
        received = []
        sim.register_handler(1, lambda s, nid, msg: received.append(msg.payload))
        assert sim.send(0, 1, "hello")
        sim.run()
        assert received == ["hello"]
        assert sim.stats.messages_delivered == 1

    def test_out_of_range_unicast_fails(self):
        sim = line_network(comm_range_m=5.0)
        assert not sim.send(0, 4, "far")
        assert sim.stats.messages_dropped == 1

    def test_broadcast_reaches_radio_neighbors(self):
        sim = line_network(comm_range_m=15.0)
        received = []
        sim.register_default_handler(
            lambda s, nid, msg: received.append(nid)
        )
        reached = sim.broadcast(2, "ping")
        sim.run()
        assert reached == 2  # nodes 1 and 3 (10 m); 0 and 4 are 20 m away
        assert sorted(received) == [1, 3]

    def test_handlers_can_forward(self):
        sim = line_network(comm_range_m=15.0)
        log = []

        def relay(s, nid, msg):
            log.append(nid)
            if nid < 4:
                s.send(nid, nid + 1, msg.payload)

        sim.register_default_handler(relay)
        sim.send(0, 1, "token")
        sim.run()
        assert log == [1, 2, 3, 4]

    def test_time_advances(self):
        sim = line_network()
        sim.send(0, 1, "x")
        sim.run()
        assert sim.now > 0.0

    def test_max_events_guard(self):
        sim = line_network(comm_range_m=15.0)

        def ping_pong(s, nid, msg):
            s.send(nid, msg.sender, "again")

        sim.register_default_handler(ping_pong)
        sim.send(0, 1, "start")
        with pytest.raises(RuntimeError):
            sim.run(max_events=50)

    def test_radio_neighbors(self):
        sim = line_network(comm_range_m=10.5)
        assert sim.radio_neighbors(0) == [1]
        assert sorted(sim.radio_neighbors(2)) == [1, 3]

