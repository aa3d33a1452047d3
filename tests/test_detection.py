"""Tests for repro.ranging.detection (the Figure 3 algorithms)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ValidationError
from repro.ranging.detection import detect_signal, first_windows

from _acoustic_oracle import first_hit


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

    def test_empty_buffer(self):
        assert detect_signal(np.zeros(0, dtype=int), k=6, m=32, threshold=2) == -1
        assert list(first_windows(np.zeros((2, 0), dtype=int), 6, 32, 2)) == [-1, -1]

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


class TestFirstWindows:
    """``first_windows`` runs ``detect-signal`` over every row of a count
    stack with one scan of the flattened stack."""

    def test_each_row_detected_independently(self):
        rows = [buffer_with_signal(start=s) for s in (10, 80, 150)] + [np.zeros(200, dtype=np.int64)]
        assert first_windows(np.stack(rows), 6, 32, 2).tolist() == [10, 80, 150, -1]

    def test_window_never_spans_two_rows(self):
        # Five hits at the end of row 0 and five at the start of row 1
        # make ten in one flat window of 32, but neither row has six.
        counts = np.zeros((2, 100), dtype=np.int64)
        counts[0, -5:] = 8
        counts[1, :5] = 8
        assert first_windows(counts, 6, 32, 2).tolist() == [-1, -1]
        assert [detect_signal(row, 6, 32, 2) for row in counts] == [-1, -1]

    def test_echo_keeps_the_first_cluster(self):
        buf = buffer_with_signal(start=60, length=40)
        buf[140:180] = 5  # the echo: a second, later block of hits
        assert first_windows(buf[None, :], 6, 32, 2).tolist() == [60]

    def test_empty_stack(self):
        first = first_windows(np.zeros((0, 200), dtype=np.int64), 6, 32, 2)
        assert first.dtype == np.int64 and first.shape == (0,)

    def test_rows_shorter_than_window(self):
        counts = np.full((3, 20), 8, dtype=np.int64)
        assert first_windows(counts, 6, 32, 2).tolist() == [-1, -1, -1]


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
