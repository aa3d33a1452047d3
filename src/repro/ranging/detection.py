"""Signal recording and detection (Figure 3 of the paper).

The refined ranging service improves detection confidence by summing the
binary tone-detector outputs of several chirps *at the same buffer
offsets* (each chirp is re-synchronized by its own radio message, so a
genuine acoustic arrival lands at the same offset every time while
random noise does not).  Threshold detection then finds the beginning of
the chirp: a sample's accumulated count must reach the threshold ``T``,
and at least ``k`` of ``m`` consecutive samples must do so.

``accumulate_chirps`` is the paper's ``record-signal`` and
``detect_signal`` its ``detect-signal``; both are faithful 0-indexed
translations of the pseudocode, vectorized with numpy.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..errors import ValidationError

__all__ = [
    "accumulate_chirps",
    "detect_signal",
    "detect_all_windows",
    "first_windows",
]


def accumulate_chirps(chirp_streams: Iterable[np.ndarray]) -> np.ndarray:
    """Sum per-chirp binary detector streams into one count buffer.

    Equivalent of ``record-signal``: each stream is the tone detector's
    binary output for one chirp, already aligned to the chirp's own
    radio sync message.  All streams must have equal length.  Counts are
    clipped at 15 — the service packs accumulation counts into 4 bits
    per buffer offset (Section 3.6.2).
    """
    streams = [np.asarray(s) for s in chirp_streams]
    if not streams:
        raise ValidationError("at least one chirp stream is required")
    length = streams[0].shape[0]
    for s in streams:
        if s.ndim != 1:
            raise ValidationError("chirp streams must be 1-dimensional")
        if s.shape[0] != length:
            raise ValidationError("chirp streams must have equal length")
        if np.any((s != 0) & (s != 1)):
            raise ValidationError("chirp streams must be binary (0/1)")
    counts = np.zeros(length, dtype=np.int64)
    for s in streams:
        counts += s.astype(np.int64)
    return np.minimum(counts, 15)


def detect_signal(samples: np.ndarray, k: int, m: int, threshold: int) -> int:
    """Find the beginning of the acoustic signal in a count buffer.

    Faithful translation of the paper's ``detect-signal``: returns the
    smallest index ``s`` such that

    * ``samples[s] >= threshold`` (the window starts on a hit), and
    * at least ``k`` of the ``m`` samples ``samples[s : s + m]`` reach
      the threshold,

    or ``-1`` when no such window exists.  ``k``, ``m`` and
    ``threshold`` correspond to the paper's pattern-identification
    parameters (the field experiments used ``T = 2``, ``k = 6``,
    ``m = 32`` with 10 accumulated chirps — Section 3.6).
    """
    starts = detect_all_windows(samples, k, m, threshold)
    return int(starts[0]) if starts.size else -1


def detect_all_windows(samples: np.ndarray, k: int, m: int, threshold: int) -> np.ndarray:
    """All window-start indices satisfying the detection criterion.

    Diagnostic companion to :func:`detect_signal` (which returns only
    the first); useful for studying echo-induced secondary detections.
    The window counts are exact integer counts of the listed hits
    (see :func:`_window_starts`).
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValidationError("samples must be 1-dimensional")
    return _window_starts(samples, k, m, threshold)


def first_windows(counts: np.ndarray, k: int, m: int, threshold: int) -> np.ndarray:
    """:func:`detect_signal` for every row of a ``(B, n)`` count stack.

    Returns the int64 index of each row's first window start, or ``-1``
    for a row without one.  The ranging service detects a whole block
    of attempts with one call.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ValidationError("counts must be 2-dimensional")
    rows, n = counts.shape
    # The flat starts are sorted; a sentinel past the last row makes
    # every row's first start at or after its beginning well defined.
    starts = np.concatenate((_window_starts(counts, k, m, threshold), [rows * n]))
    row_begin = np.arange(0, rows * n, n)
    first = starts[starts.searchsorted(row_begin)] - row_begin
    first[first >= n] = -1
    return first


def _window_starts(samples: np.ndarray, k: int, m: int, threshold: int) -> np.ndarray:
    """Flat indices of every window start over the last axis of *samples*.

    A start ``s`` of a row qualifies when ``samples[..., s]`` reaches
    the threshold and at least ``k`` of ``samples[..., s : s + m]`` do.
    The hits are listed once, in flat order; a hit's window count is
    the number of listed hits from it up to ``m`` samples on, one
    ``searchsorted`` over the list (a prefix sum evaluated at the hits
    only), so it is exact.  A window that fits its row (``s <= n - m``)
    never reaches into the next row.
    """
    if m < 1 or k < 1:
        raise ValidationError("k and m must be >= 1")
    if k > m:
        raise ValidationError(f"k ({k}) cannot exceed window size m ({m})")
    if threshold < 1:
        raise ValidationError("threshold must be >= 1")
    n = samples.shape[-1]
    if n < m:
        return np.zeros(0, dtype=np.int64)
    hits = (samples >= threshold).ravel().nonzero()[0]
    window_counts = hits.searchsorted(hits + m) - np.arange(hits.size)
    return hits[(window_counts >= k) & (hits % n <= n - m)]
