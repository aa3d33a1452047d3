"""Discrete-event network simulator.

A deliberately small event-driven core: nodes exchange messages through
a :class:`RadioModel`, message handlers run at delivery time, and the
simulation advances through a priority queue of timestamped events.  It
is the substrate for the message-passing formulation of the distributed
localization algorithm (Section 4.3, :mod:`repro.core.protocol`: the
local data exchanges and the alignment flood), whose cost we account in
messages sent/received.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .._validation import ensure_rng
from ..errors import ValidationError
from .node import SensorNode
from .radio import RadioModel

__all__ = ["Message", "NetworkSimulator", "SimulationStats"]


@dataclass(frozen=True)
class Message:
    """A radio message in flight or delivered.

    ``sender`` and ``receiver`` are node ids; ``payload`` is arbitrary
    application data (kept immutable by convention).
    """

    sender: int
    receiver: int
    payload: Any
    sent_at: float
    delivered_at: float


@dataclass
class SimulationStats:
    """Counters for protocol cost accounting."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    broadcasts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "broadcasts": self.broadcasts,
        }


class NetworkSimulator:
    """Event-driven message-passing simulator over a node population.

    Parameters
    ----------
    nodes : sequence of SensorNode
        The deployment.  Node ids must be unique.
    radio : RadioModel, optional
        Link model; defaults to :class:`RadioModel` defaults.
    rng : None, int, or numpy Generator
        Randomness source for delivery and delays.

    Notes
    -----
    Handlers are registered per node with :meth:`register_handler`; a
    handler has signature ``handler(simulator, node_id, message)`` and
    may send further messages, which is how multi-hop protocols unfold.
    """

    def __init__(self, nodes, radio: Optional[RadioModel] = None, rng=None) -> None:
        self._nodes: Dict[int, SensorNode] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise ValidationError(f"duplicate node id {node.node_id}")
            self._nodes[node.node_id] = node
        self.radio = radio if radio is not None else RadioModel()
        self._rng = ensure_rng(rng)
        self._queue: List[Tuple[float, int, Message]] = []
        self._tiebreak = itertools.count()
        self._handlers: Dict[int, Callable] = {}
        self._default_handler: Optional[Callable] = None
        self._now = 0.0
        self.stats = SimulationStats()
        self.delivered_log: List[Message] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def node(self, node_id: int) -> SensorNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id}") from None

    def distance(self, a: int, b: int) -> float:
        """Ground-truth distance between two nodes."""
        return self.node(a).distance_to(self.node(b))

    def radio_neighbors(self, node_id: int) -> List[int]:
        """Nodes within radio range of *node_id*."""
        me = self.node(node_id)
        return [
            other.node_id
            for other in self._nodes.values()
            if other.node_id != node_id and self.radio.in_range(me.distance_to(other))
        ]

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def register_handler(self, node_id: int, handler: Callable) -> None:
        """Set the message handler for one node."""
        self.node(node_id)  # validate id
        self._handlers[node_id] = handler

    def register_default_handler(self, handler: Callable) -> None:
        """Handler used by nodes without a specific registration."""
        self._default_handler = handler

    def send(self, sender: int, receiver: int, payload: Any) -> bool:
        """Unicast *payload*; returns whether the link will deliver it."""
        self.stats.messages_sent += 1
        distance = self.distance(sender, receiver)
        if not self.radio.delivers(distance, self._rng):
            self.stats.messages_dropped += 1
            return False
        delay = max(0.0, self.radio.sample_xmit_delay_s(self._rng))
        message = Message(
            sender=sender,
            receiver=receiver,
            payload=payload,
            sent_at=self._now,
            delivered_at=self._now + delay,
        )
        heapq.heappush(self._queue, (message.delivered_at, next(self._tiebreak), message))
        return True

    def broadcast(self, sender: int, payload: Any) -> int:
        """Broadcast to all radio neighbors; returns receivers reached."""
        self.stats.broadcasts += 1
        reached = 0
        for neighbor in self.radio_neighbors(sender):
            if self.send(sender, neighbor, payload):
                reached += 1
        # send() counts each neighbor transmission; a broadcast is one
        # airtime event, so undo the over-count and charge one send.
        self.stats.messages_sent -= max(0, len(self.radio_neighbors(sender)) - 1)
        return reached

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> Optional[Message]:
        """Deliver the next queued message; None if the queue is empty."""
        if not self._queue:
            return None
        delivered_at, _, message = heapq.heappop(self._queue)
        self._now = delivered_at
        self.stats.messages_delivered += 1
        self.delivered_log.append(message)
        handler = self._handlers.get(message.receiver, self._default_handler)
        if handler is not None:
            handler(self, message.receiver, message)
        return message

    def run(self, max_events: int = 1_000_000) -> int:
        """Deliver messages until the queue drains; returns event count.

        *max_events* guards against protocols that never quiesce.
        """
        count = 0
        while self._queue:
            if count >= max_events:
                raise RuntimeError(
                    f"simulation exceeded max_events={max_events}; "
                    "protocol may not terminate"
                )
            self.step()
            count += 1
        return count
