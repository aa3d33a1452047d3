"""The acoustic ranging service (baseline and refined variants).

Combines the link simulator with the detection algorithms to produce
distance estimates, mirroring Section 3 of the paper:

* **baseline** (Section 3.3) — a single chirp, detection = first binary
  hit of the hardware tone detector.  Unreliable: noise before the
  arrival yields underestimates, missed arrivals yield overestimates
  from echoes or later noise (Figure 2).
* **refined** (Section 3.5) — a pattern of chirps accumulated per
  buffer offset, ``k``-of-``m`` threshold detection (Figure 3), plus a
  per-environment calibration offset.

The service measures one *directed* link per call; campaign-level
orchestration (rounds, node pairs, persistent link draws) lives in
:mod:`repro.ranging.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .._validation import ensure_rng
from ..acoustics.environment import Environment
from ..acoustics.hardware import HardwareProfile
from ..acoustics.signal import ChirpPattern
from ..errors import CalibrationError, ValidationError
from .detection import first_windows
from .link import AcousticLinkSimulator, LinkBlock, LinkRealization
from .tdoa import TdoaConfig

__all__ = ["DetectionParams", "RangingService"]


@dataclass(frozen=True)
class DetectionParams:
    """Threshold-detection parameters of the refined service.

    The field experiments used ``threshold = 2`` with at least ``k = 6``
    of ``m = 32`` consecutive samples (Section 3.6): low thresholds suit
    high-attenuation environments at the cost of some false-positive
    vulnerability.  The threshold is at most 15: the counts are packed
    into 4 bits per buffer offset (Section 3.6.2), so a higher one
    could never be reached.
    """

    threshold: int = 2
    k: int = 6
    m: int = 32

    def __post_init__(self):
        if self.threshold < 1 or self.k < 1 or self.m < 1:
            raise ValidationError("detection parameters must be >= 1")
        if self.threshold > 15:
            raise ValidationError(
                f"threshold ({self.threshold}) cannot exceed 15, the largest count"
            )
        if self.k > self.m:
            raise ValidationError("k cannot exceed m")


@dataclass
class RangingService:
    """Simulated acoustic ranging service for one environment.

    Parameters
    ----------
    environment : Environment
        Acoustic environment preset.
    mode : {"refined", "baseline"}
        Which detection pipeline to run.
    pattern : ChirpPattern
        Chirp pattern (ignored in baseline mode, which sends one chirp).
    detection : DetectionParams
        Refined-mode threshold parameters.
    tdoa : TdoaConfig
        Buffer geometry; carry calibration offsets here.
    link_simulator : AcousticLinkSimulator or None
        Custom link simulator; built from the other parameters if None.
    """

    environment: Environment
    mode: str = "refined"
    pattern: ChirpPattern = field(default_factory=ChirpPattern)
    detection: DetectionParams = field(default_factory=DetectionParams)
    tdoa: TdoaConfig = field(default_factory=TdoaConfig)
    link_simulator: Optional[AcousticLinkSimulator] = None

    def __post_init__(self):
        if self.mode not in ("refined", "baseline"):
            raise ValidationError(f"mode must be 'refined' or 'baseline'; got {self.mode!r}")
        if self.link_simulator is None:
            self.link_simulator = AcousticLinkSimulator(
                environment=self.environment,
                pattern=self.pattern,
                tdoa=self.tdoa,
            )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure(
        self,
        distance_m: float,
        *,
        source_hw: Optional[HardwareProfile] = None,
        receiver_hw: Optional[HardwareProfile] = None,
        link: Optional[LinkRealization] = None,
        rng=None,
    ) -> Optional[float]:
        """One directed ranging attempt; returns a distance or None.

        ``None`` means no detection — the receiver never identified the
        chirp (out of range, excessive attenuation, bad luck).  This is
        a block of one attempt through :meth:`estimates`.
        """
        block = self.link_simulator.one_attempt(
            distance_m,
            source_hw=source_hw,
            receiver_hw=receiver_hw,
            link=link,
            num_chirps=self.num_chirps,
            rng=rng,
        )
        return self.estimates(block)[0]

    @property
    def num_chirps(self) -> int:
        """Chirps per attempt: one in baseline mode."""
        return 1 if self.mode == "baseline" else self.link_simulator.pattern.num_chirps

    def new_block(self) -> LinkBlock:
        """An empty block of attempts for :meth:`estimates`."""
        return LinkBlock(self.link_simulator, self.num_chirps)

    def estimates(self, block: LinkBlock) -> List[Optional[float]]:
        """Detect every attempt of a drawn block.

        Returns each attempt's distance estimate, or None where nothing
        was detected, in attempt order.  The refined service takes the
        first ``k``-of-``m`` window at the threshold; the baseline takes
        the first hit, which is the window ``k = m = threshold = 1``.
        """
        if self.mode == "baseline":
            k, m, threshold = 1, 1, 1
        else:
            k, m, threshold = self.detection.k, self.detection.m, self.detection.threshold
        # DetectionParams keeps the threshold at or under 15, where the
        # unclipped sums and the 4-bit counts cross it at the same samples.
        first = first_windows(block.hit_sums(), k=k, m=m, threshold=threshold)
        to_distance = self.tdoa.distance_from_index
        return [None if index < 0 else to_distance(index) for index in first.tolist()]

    def detection_probability(
        self,
        distance_m: float,
        *,
        attempts: int = 50,
        within_m: Optional[float] = None,
        rng=None,
    ) -> float:
        """Monte-Carlo probability of detecting a chirp at *distance_m*.

        Used for the max-range studies of Section 3.6.2.  With
        *within_m* set, only detections whose estimate falls within that
        margin of the true distance count — distinguishing genuine chirp
        detections from noise-triggered garbage, as the paper's
        ground-truth-surveyed range experiments could.
        """
        if attempts < 1:
            raise ValidationError("attempts must be >= 1")
        rng = ensure_rng(rng)
        hits = 0
        for _ in range(attempts):
            link = self.link_simulator.draw_link(rng)
            estimate = self.measure(distance_m, link=link, rng=rng)
            if estimate is None:
                continue
            if within_m is not None and abs(estimate - distance_m) > within_m:
                continue
            hits += 1
        return hits / attempts

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def calibrate(
        self,
        distances_m: Sequence[float] = (2.0, 4.0, 6.0, 8.0, 10.0),
        *,
        rounds: int = 10,
        rng=None,
    ) -> "RangingService":
        """Calibrate the constant offset against known distances.

        Mirrors the field procedure of Section 3.6: measure nodes at
        surveyed distances in the target environment, take the median
        signed error as the constant sensing/actuation offset, and fold
        it into ``delta_const`` (here: ``tdoa.calibration_offset_m``).
        Returns a new service carrying the calibrated config.
        """
        rng = ensure_rng(rng)
        errors = []
        for d in distances_m:
            for _ in range(rounds):
                link = self.link_simulator.draw_link(rng)
                est = self.measure(d, link=link, rng=rng)
                if est is not None:
                    errors.append(est - d)
        if not errors:
            raise CalibrationError(
                "calibration produced no detections at any distance; "
                "environment may be too hostile or distances too large"
            )
        offset = float(np.median(errors)) + self.tdoa.calibration_offset_m
        calibrated_tdoa = self.tdoa.with_calibration(offset)
        service = replace(self, tdoa=calibrated_tdoa, link_simulator=None)
        return service
