"""Signal recording and detection (Figure 3 of the paper).

The refined ranging service improves detection confidence by summing the
binary tone-detector outputs of several chirps *at the same buffer
offsets* (each chirp is re-synchronized by its own radio message, so a
genuine acoustic arrival lands at the same offset every time while
random noise does not).  Threshold detection then finds the beginning of
the chirp: a sample's accumulated count must reach the threshold ``T``,
and at least ``k`` of ``m`` consecutive samples must do so.

The paper's ``record-signal`` is
:meth:`~repro.ranging.link.LinkBlock.counts`, which sums a block of
attempts' chirps at once.  Its ``detect-signal`` is
:func:`first_windows`, a 0-indexed translation of the pseudocode over
every row of a count stack; :func:`detect_signal` is one row of it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = [
    "detect_signal",
    "first_windows",
]


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
    ``m = 32`` with 10 accumulated chirps — Section 3.6).  This is
    :func:`first_windows` for a stack of one row.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValidationError("samples must be 1-dimensional")
    return int(first_windows(samples[None, :], k, m, threshold)[0])


def first_windows(counts: np.ndarray, k: int, m: int, threshold: int) -> np.ndarray:
    """The paper's ``detect-signal`` for every row of a ``(B, n)`` count stack.

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
    row_begin = np.arange(rows) * n
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
