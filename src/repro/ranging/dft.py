"""Sliding-DFT software tone detector (Figure 9 of the paper).

For WSN platforms without a hardware tone detector (e.g. Crossbow's XSM
mote) the paper designs a streaming filter that tracks the amplitude of
two beacon frequency bands — 1/4 and 1/6 of the sampling rate — chosen
so the DFT coefficients are multiplications by {0, ±1, ±2} only (the
complex roots of unity at those frequencies have rational coordinates up
to a factor of sqrt(3), folded into the output scaling).

:class:`SlidingToneFilter` is a faithful port of the Figure 9 pseudocode
(36-sample circular buffer, incremental real/imaginary accumulators);
:func:`tone_detect_waveform` applies it over a waveform, subtracts an
automatic noise estimate, and reports detections — reproducing the
clean/noisy demonstration of Figure 10.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import ValidationError

__all__ = ["SlidingToneFilter", "filter_waveform", "tone_detect_waveform"]

_WINDOW = 36


class SlidingToneFilter:
    """Streaming two-band tone filter over a 36-sample window.

    Call :meth:`update` once per raw sample; it returns the pair of band
    energies ``(E_fs/4, E_fs/6)`` exactly as the Figure 9 pseudocode's
    ``filter(sample)`` does: ``re4^2 + im4^2`` and ``(re6^2 + 3 im6^2)/2``.

    The incremental trick: when a new sample enters, the oldest sample
    (36 back) is subtracted, and the accumulators are updated with the
    *difference*, using the position-dependent coefficient schedule for
    phase index ``n mod 4`` (quarter-rate band) and ``k mod 6``
    (sixth-rate band).
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Return the filter to its initial all-zero state (init())."""
        self._samples = np.zeros(_WINDOW)
        self._n = 0  # position in the window / quarter-band phase
        self._k = 0  # sixth-band phase
        self._re4 = 0.0
        self._im4 = 0.0
        self._re6 = 0.0
        self._im6 = 0.0

    def update(self, sample: float) -> Tuple[float, float]:
        """Push one raw sample; return (quarter-band, sixth-band) energy."""
        sample = float(sample)
        # Subtract the leaving sample, store the entering one.
        delta = sample - self._samples[self._n]
        self._samples[self._n] = sample

        phase4 = self._n % 4
        if phase4 == 0:
            self._re4 += delta
        elif phase4 == 1:
            self._im4 += delta
        elif phase4 == 2:
            self._re4 -= delta
        else:
            self._im4 -= delta

        phase6 = self._k
        if phase6 == 0:
            self._re6 += 2.0 * delta
        elif phase6 == 1:
            self._re6 += delta
            self._im6 += delta
        elif phase6 == 2:
            self._re6 -= delta
            self._im6 += delta
        elif phase6 == 3:
            self._re6 -= 2.0 * delta
        elif phase6 == 4:
            self._re6 -= delta
            self._im6 -= delta
        else:  # phase6 == 5
            self._re6 += delta
            self._im6 -= delta

        self._n = (self._n + 1) % _WINDOW
        self._k = (self._k + 1) % 6
        quarter = self._re4**2 + self._im4**2
        sixth = (self._re6**2 + 3.0 * self._im6**2) / 2.0
        return quarter, sixth


def filter_waveform(waveform) -> np.ndarray:
    """Run the sliding filter over a full waveform.

    Returns an array of shape ``(n, 2)`` with the two band energies per
    sample.
    """
    wave = np.asarray(waveform, dtype=float)
    if wave.ndim != 1:
        raise ValidationError("waveform must be 1-dimensional")
    filt = SlidingToneFilter()
    out = np.empty((wave.shape[0], 2))
    for i, sample in enumerate(wave):
        out[i] = filt.update(sample)
    return out


def tone_detect_waveform(
    waveform,
    *,
    band: int = 0,
    threshold_factor: float = 4.0,
    min_gap: int = _WINDOW,
) -> Tuple[np.ndarray, np.ndarray]:
    """Detect tone bursts in a raw waveform with the sliding filter.

    Implements the paper's noise-isolation idea: "it is useful to
    automatically isolate the amplitude of noise and subtract it from
    the DFT output; a positive result indicates detection of a tone.  We
    evaluate DFT for all frequency components and average the results to
    calculate this amplitude" (Section 3.7).  Here the noise reference
    for one band is the median energy of that band over the recording —
    a robust stand-in for the all-component average that works in the
    same spirit and keeps the routine streaming-friendly.

    Parameters
    ----------
    waveform : array-like
        Raw samples.
    band : {0, 1}
        Which band to detect in: 0 = fs/4, 1 = fs/6.
    threshold_factor : float
        A sample is "tone present" when its band energy exceeds
        ``threshold_factor`` times the noise reference.
    min_gap : int
        Detections closer than this many samples are merged into one
        burst (the filter window smears energy over ~36 samples).

    Returns
    -------
    onsets : ndarray
        Sample indices where distinct tone bursts begin.
    energies : ndarray
        The filtered energy track for the chosen band.
    """
    if band not in (0, 1):
        raise ValidationError("band must be 0 (fs/4) or 1 (fs/6)")
    if threshold_factor <= 0:
        raise ValidationError("threshold_factor must be positive")
    energies = filter_waveform(waveform)[:, band]
    noise_ref = float(np.median(energies))
    if noise_ref <= 0.0:
        noise_ref = float(np.mean(energies)) or 1e-12
    above = energies > threshold_factor * noise_ref
    onsets: List[int] = []
    last = -10 * min_gap
    for idx in np.nonzero(above)[0]:
        if idx - last >= min_gap:
            onsets.append(int(idx))
        last = int(idx)
    return np.asarray(onsets, dtype=np.int64), energies
