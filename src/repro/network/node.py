"""Sensor node representation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..acoustics.hardware import HardwareProfile
from ..errors import ValidationError
from .clock import DriftingClock

__all__ = ["SensorNode"]


@dataclass
class SensorNode:
    """One mote in a simulated deployment.

    Attributes
    ----------
    node_id : int
        Stable identifier; doubles as the index into position arrays.
    position : tuple of (float, float)
        Ground-truth coordinates in meters.  Algorithms never read this
        directly — it parameterizes the physical simulation and the
        evaluation only.
    is_anchor : bool
        Whether the node knows its own position (Section 4.1's anchors).
    hardware : HardwareProfile
        Per-unit speaker/microphone characteristics.
    clock : DriftingClock
        The node's local clock.
    """

    node_id: int
    position: Tuple[float, float]
    is_anchor: bool = False
    hardware: HardwareProfile = field(default_factory=HardwareProfile)
    clock: DriftingClock = field(default_factory=DriftingClock)

    def __post_init__(self):
        if self.node_id < 0:
            raise ValidationError("node_id must be non-negative")
        x, y = self.position
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ValidationError("position must be finite")
        self.position = (float(x), float(y))

    def distance_to(self, other: "SensorNode") -> float:
        """Ground-truth distance to another node (simulation only)."""
        return float(np.hypot(self.position[0] - other.position[0],
                              self.position[1] - other.position[1]))

    @property
    def position_array(self) -> np.ndarray:
        """Position as a numpy array of shape (2,)."""
        return np.asarray(self.position, dtype=float)
