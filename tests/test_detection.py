"""Tests for repro.ranging.detection (the Figure 3 algorithms)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ValidationError
from repro.ranging.detection import (
    accumulate_chirps,
    detect_all_windows,
    detect_signal,
    first_windows,
)

from _acoustic_oracle import first_hit


class TestAccumulateChirps:
    def test_sums_binary_streams(self):
        streams = [np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0])]
        counts = accumulate_chirps(streams)
        assert list(counts) == [0, 2, 1, 1]

    def test_clips_at_15(self):
        streams = [np.ones(3, dtype=np.uint8)] * 20
        counts = accumulate_chirps(streams)
        assert list(counts) == [15, 15, 15]

    def test_single_stream(self):
        counts = accumulate_chirps([np.array([1, 0, 1])])
        assert list(counts) == [1, 0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            accumulate_chirps([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            accumulate_chirps([np.zeros(3), np.zeros(4)])

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            accumulate_chirps([np.array([0, 2, 1])])

    def test_non_1d_rejected(self):
        with pytest.raises(ValidationError):
            accumulate_chirps([np.zeros((2, 2))])


def buffer_with_signal(n=200, start=80, length=40, count=8, noise_at=()):
    """A count buffer with a solid block of detections plus point noise."""
    buf = np.zeros(n, dtype=np.int64)
    buf[start : start + length] = count
    for idx in noise_at:
        buf[idx] = max(buf[idx], 3)
    return buf


class TestDetectSignal:
    def test_finds_signal_start(self):
        buf = buffer_with_signal()
        assert detect_signal(buf, k=6, m=32, threshold=2) == 80

    def test_isolated_noise_ignored(self):
        buf = buffer_with_signal(noise_at=(5, 30, 45))
        assert detect_signal(buf, k=6, m=32, threshold=2) == 80

    def test_dense_noise_cluster_triggers_early(self):
        # Six hits inside one 32-sample window *starting on a hit*
        # constitute a (false) detection: the algorithm cannot tell.
        buf = buffer_with_signal(noise_at=(10, 12, 14, 16, 18, 20))
        assert detect_signal(buf, k=6, m=32, threshold=2) == 10

    def test_no_signal_returns_minus_one(self):
        assert detect_signal(np.zeros(100, dtype=int), k=6, m=32, threshold=2) == -1

    def test_threshold_respected(self):
        buf = buffer_with_signal(count=1)
        assert detect_signal(buf, k=6, m=32, threshold=2) == -1
        assert detect_signal(buf, k=6, m=32, threshold=1) == 80

    def test_k_of_m_requirement(self):
        # Exactly 5 hits in a window with k=6: no detection.
        buf = np.zeros(100, dtype=int)
        buf[40:45] = 5
        assert detect_signal(buf, k=6, m=32, threshold=2) == -1
        assert detect_signal(buf, k=5, m=32, threshold=2) == 40

    def test_window_must_start_on_hit(self):
        buf = np.zeros(100, dtype=int)
        buf[50:70] = 5
        # Window starting at 49 has >= k hits, but samples[49] < T.
        assert detect_signal(buf, k=6, m=32, threshold=2) == 50

    def test_signal_at_buffer_start(self):
        buf = buffer_with_signal(start=0)
        assert detect_signal(buf, k=6, m=32, threshold=2) == 0

    def test_signal_at_buffer_end_within_window(self):
        buf = np.zeros(100, dtype=int)
        buf[68:100] = 5
        assert detect_signal(buf, k=6, m=32, threshold=2) == 68

    def test_buffer_shorter_than_window(self):
        assert detect_signal(np.ones(10, dtype=int), k=2, m=32, threshold=1) == -1

    def test_invalid_parameters(self):
        buf = np.zeros(100, dtype=int)
        with pytest.raises(ValidationError):
            detect_signal(buf, k=0, m=32, threshold=2)
        with pytest.raises(ValidationError):
            detect_signal(buf, k=40, m=32, threshold=2)
        with pytest.raises(ValidationError):
            detect_signal(buf, k=6, m=32, threshold=0)
        with pytest.raises(ValidationError):
            detect_signal(np.zeros((2, 50)), k=6, m=32, threshold=2)

    @given(
        start=st.integers(0, 150),
        count=st.integers(2, 15),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_detection_index_satisfies_criterion(self, start, count, seed):
        rng = np.random.default_rng(seed)
        buf = np.zeros(250, dtype=np.int64)
        length = int(rng.integers(35, 80))
        buf[start : start + length] = count
        idx = detect_signal(buf, k=6, m=32, threshold=2)
        assert idx != -1
        window = buf[idx : idx + 32]
        assert buf[idx] >= 2
        assert (window >= 2).sum() >= 6
        # No earlier index satisfies the criterion.
        for s in range(idx):
            w = buf[s : s + 32]
            assert not (buf[s] >= 2 and (w >= 2).sum() >= 6)


class TestDetectAllWindows:
    def test_contiguous_signal_block(self):
        buf = buffer_with_signal(start=80, length=40)
        starts = detect_all_windows(buf, k=6, m=32, threshold=2)
        assert starts[0] == 80
        assert np.all(np.diff(starts) >= 1)

    def test_echo_produces_second_cluster(self):
        buf = np.zeros(400, dtype=int)
        buf[100:140] = 6
        buf[300:340] = 6
        starts = detect_all_windows(buf, k=6, m=32, threshold=2)
        assert 100 in starts
        assert 300 in starts

    def test_empty(self):
        assert detect_all_windows(np.zeros(100, dtype=int), 6, 32, 2).size == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            detect_all_windows(np.zeros(100), 0, 32, 2)


class TestBaselineDetectionIsTheFirstHit:
    """The baseline service detects a block of attempts with
    ``first_windows(k=m=1)``: each row's first sample at the threshold,
    which the per-buffer ``first_hit`` of ``tests/_acoustic_oracle.py``
    finds one buffer at a time."""

    @given(
        counts=hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 6), st.integers(1, 60)),
            elements=st.sampled_from([0, 0, 0, 1, 2, 3, 15]),
        ),
        threshold=st.sampled_from([1, 2, 3]),
    )
    @example(counts=np.array([[0, 0, 1, 0, 1]]), threshold=1)
    @example(counts=np.array([[1, 2, 3]]), threshold=3)
    @example(counts=np.zeros((2, 10), dtype=np.int64), threshold=1)
    @settings(max_examples=200, deadline=None)
    def test_rows_are_the_first_hits(self, counts, threshold):
        first = first_windows(counts, k=1, m=1, threshold=threshold)
        assert first.dtype == np.int64
        assert first.tolist() == [first_hit(row, threshold=threshold) for row in counts]
