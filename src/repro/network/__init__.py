"""Network substrate: clocks, radio links, nodes and the discrete-event
simulator that the distributed localization protocol runs on."""

from .clock import MAX_CLOCK_RATE_DIFFERENCE, DriftingClock, sync_ranging_error_m
from .node import SensorNode
from .radio import RadioModel
from .simulator import Message, NetworkSimulator, SimulationStats

__all__ = [
    "MAX_CLOCK_RATE_DIFFERENCE",
    "DriftingClock",
    "sync_ranging_error_m",
    "SensorNode",
    "RadioModel",
    "Message",
    "NetworkSimulator",
    "SimulationStats",
]
