"""Deployment-scale ranging campaigns.

Orchestrates the ranging service over a full deployment the way the
field experiments ran (Section 3.6): several *rounds*, each node in turn
emitting one chirp sequence while every other node within plausible
acoustic range attempts detection.  Persistent per-link and per-node
draws (hardware profiles, ground-cover gain, echo paths) are held fixed
across rounds so errors correlate exactly the way the paper's filtering
pipeline expects.

The output is a :class:`~repro.core.measurements.MeasurementSet` with
ground truth attached, ready for the filtering/consistency stages and
for localization.

:meth:`RangingCampaign.run` walks the attempts in their draw order
(round, source, receiver) and makes each attempt's draws into a
:class:`~repro.ranging.link.LinkBlock`: the radio delivery draw, the
link at its first use, then the link simulator's own draws.  Each full
block is then simulated and detected at once, without the generator,
and its detections are added in attempt order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from .._validation import as_positions, check_positive, ensure_rng
from ..acoustics.hardware import HardwarePopulation, HardwareProfile
from ..core.measurements import MeasurementSet
from ..errors import ValidationError
from ..network.radio import RadioModel
from .link import LinkBlock, LinkRealization
from .service import RangingService

__all__ = ["CampaignConfig", "RangingCampaign", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of a ranging campaign.

    Attributes
    ----------
    rounds : int
        Measurement rounds; each round is one chirp sequence per node
        (Figure 6 reports three rounds of bidirectional = six rounds of
        directed measurements).
    attempt_range_m : float or None
        Pairs farther apart than this skip the acoustic attempt (the
        radio coordination still happens, but no detector buffer would
        ever fire).  Defaults to 1.3x the TDoA max range — attempts just
        beyond the design range still run and simply fail to detect.
    radio : RadioModel
        Radio used for the coordination messages; a lost sync message
        skips that round's attempt for the affected receiver.
    """

    rounds: int = 3
    attempt_range_m: Optional[float] = None
    radio: RadioModel = field(default_factory=RadioModel)

    def __post_init__(self):
        if self.rounds < 1:
            raise ValidationError("rounds must be >= 1")
        if self.attempt_range_m is not None:
            check_positive(self.attempt_range_m, "attempt_range_m")


class RangingCampaign:
    """Stateful campaign runner: persistent hardware and link draws.

    Parameters
    ----------
    positions : array-like of shape (n, 2)
        Ground-truth node positions.
    service : RangingService
        The (calibrated) ranging service to exercise.
    config : CampaignConfig
        Campaign parameters.
    hardware_population : HardwarePopulation
        Distribution of per-node hardware profiles.
    rng : None, int or Generator
        Randomness source.
    """

    def __init__(
        self,
        positions,
        service: RangingService,
        *,
        config: Optional[CampaignConfig] = None,
        hardware_population: Optional[HardwarePopulation] = None,
        rng=None,
    ) -> None:
        self.positions = as_positions(positions, "positions")
        self.service = service
        self.config = config if config is not None else CampaignConfig()
        self._rng = ensure_rng(rng)
        population = hardware_population if hardware_population is not None else HardwarePopulation()
        self.hardware: Dict[int, HardwareProfile] = {
            i: population.sample(self._rng) for i in range(self.positions.shape[0])
        }
        self._links: Dict[Tuple[int, int], LinkRealization] = {}
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        #: Pair distances, each the bytes of ``np.hypot`` on that pair's
        #: coordinate differences.
        self.distances = np.hypot(diff[..., 0], diff[..., 1])

    @property
    def n_nodes(self) -> int:
        return int(self.positions.shape[0])

    def _attempt_range(self) -> float:
        if self.config.attempt_range_m is not None:
            return self.config.attempt_range_m
        return 1.3 * self.service.tdoa.max_range_m

    def link_for(self, i: int, j: int) -> LinkRealization:
        """Persistent link realization for the undirected pair (i, j)."""
        key = (min(i, j), max(i, j))
        if key not in self._links:
            self._links[key] = self.service.link_simulator.draw_link(self._rng)
        return self._links[key]

    def true_distance(self, i: int, j: int) -> float:
        return float(self.distances[i, j])

    def run(self) -> MeasurementSet:
        """Execute all rounds; returns the raw directed measurement set."""
        measurements = MeasurementSet()
        limit = self._attempt_range()
        n = self.n_nodes
        distances = self.distances.tolist()
        # Every directed pair within the attempt range, in loop order.
        pairs = [
            (source, receiver, distances[source][receiver])
            for source in range(n)
            for receiver in range(n)
            if receiver != source and distances[source][receiver] <= limit
        ]
        block = self.service.new_block()
        hardware = self.hardware
        pending: List[Tuple[int, int, float, int]] = []
        radio = self.config.radio
        rng = self._rng
        emitted: List[Tuple[int, int]] = []
        for round_index in range(self.config.rounds):
            for source, receiver, distance in pairs:
                # The per-chirp radio sync message must arrive for the
                # receiver to record this source's sequence.
                if not radio.delivers(distance, rng):
                    continue
                block.draw(
                    distance, hardware[source], hardware[receiver],
                    self.link_for(source, receiver), rng,
                )
                pending.append((source, receiver, distance, round_index))
                if block.full:
                    emitted.append(self._emit(block, pending, measurements))
        if block.size:
            emitted.append(self._emit(block, pending, measurements))
        telemetry.count("ranging.campaign.attempts", sum(size for size, _ in emitted))
        telemetry.count("ranging.campaign.blocks", len(emitted))
        telemetry.count("ranging.campaign.dense_attempts", sum(dense for _, dense in emitted))
        return measurements

    def _emit(
        self, block: LinkBlock, pending: list, measurements: MeasurementSet
    ) -> Tuple[int, int]:
        """Detect a drawn block and add its detections in attempt order;
        returns the block's attempt and dense-attempt counts."""
        sizes = (block.size, len(block.dense))
        for (source, receiver, distance, round_index), estimate in zip(
            pending, self.service.estimates(block)
        ):
            if estimate is not None:
                measurements.add_distance(
                    source, receiver, estimate, true_distance=distance, round_index=round_index
                )
        pending.clear()
        block.clear()
        return sizes


def run_campaign(
    positions,
    service: RangingService,
    *,
    rounds: int = 3,
    rng=None,
    hardware_population: Optional[HardwarePopulation] = None,
) -> MeasurementSet:
    """Convenience wrapper: build and run a campaign in one call."""
    campaign = RangingCampaign(
        positions,
        service,
        config=CampaignConfig(rounds=rounds),
        hardware_population=hardware_population,
        rng=rng,
    )
    return campaign.run()
