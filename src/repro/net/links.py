"""Point-to-point links: rate limiting, propagation delay, FIFO queues.

Each :class:`Link` is full-duplex — two independent :class:`_Direction`
objects each modelling a serializing transmitter with a tail-drop FIFO.
This is the component that substitutes for the paper's VirtualBox NIC rate
limits and ``tc``-injected delay: capacity comes from the serialization
rate, latency from ``delay_ms``, and congestion from the bounded queue.
Per-direction byte/packet/drop counters feed :mod:`repro.net.telemetry`.

Each direction additionally carries a **background load term**
(:meth:`Link.set_background_from`): an aggregate Mbps of traffic that is
modelled in the fluid domain rather than packet-by-packet (the hybrid
scenario backend's mice/background flow classes).  Background load
shrinks the direction's *effective* serialization rate — foreground
packets serialize at ``rate - background`` — and is folded into
telemetry, so the controller sees the link as busy even though no
background packet ever enters the queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Tuple

from .packets import Packet
from .sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .devices import Node

__all__ = ["Link", "LinkStats", "MIN_EFFECTIVE_RATE_FRACTION"]

#: Background load can slow a direction down to this fraction of its
#: configured rate, never below: an over-subscribed fluid class must not
#: stall the packet domain entirely (serialization times would diverge).
MIN_EFFECTIVE_RATE_FRACTION = 0.01


@dataclass
class LinkStats:
    """Per-direction counters (monotonic; telemetry samples deltas)."""

    tx_packets: int = 0
    tx_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0
    queue_peak: int = 0


class _Direction:
    """One transmit direction: serializer + tail-drop FIFO.

    At most one packet is being serialised at a time, so the direction
    holds it in ``_in_flight`` and posts a bound method for every
    serialisation, then the receiver's ``receive`` with the packet and
    link as arguments for its delivery: no closure and no cancellable
    handle per packet, since nothing ever cancels a hop."""

    #: the packet being serialised; meaningful while ``busy``
    _in_flight: Packet

    def __init__(self, sim: Simulator, link: "Link", receiver: "Node") -> None:
        self.sim = sim
        self.link = link
        self.receiver = receiver
        self.queue: Deque[Packet] = deque()
        self.busy = False
        self.stats = LinkStats()
        self.background_mbps = 0.0

    def send(self, packet: Packet) -> bool:
        """Enqueue for transmission; False (and a drop) when the queue is
        full or the link is administratively/physically down."""
        link = self.link
        queue = self.queue
        stats = self.stats
        if not link.up or len(queue) >= link.queue_packets:
            stats.dropped_packets += 1
            stats.dropped_bytes += packet.size
            return False
        queue.append(packet)
        if len(queue) > stats.queue_peak:
            stats.queue_peak = len(queue)
        if not self.busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        queue = self.queue
        if not queue:
            self.busy = False
            return
        self.busy = True
        packet = self._in_flight = queue.popleft()
        # the rate left to packet-level traffic after the fluid
        # background class took its share, floored at
        # MIN_EFFECTIVE_RATE_FRACTION of the configured rate
        rate = self.link.rate_mbps
        floor = rate * MIN_EFFECTIVE_RATE_FRACTION
        left = rate - self.background_mbps
        tx_time = packet.size * 8.0 / ((floor if floor > left else left) * 1e6)
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += packet.size
        self.sim.post(tx_time, self._serialised)

    def _serialised(self) -> None:
        # serialization finished: deliver this packet after the
        # propagation delay, then start the next one
        link = self.link
        self.sim.post(
            link.delay_ms / 1e3, self.receiver.receive, self._in_flight, link
        )
        self._start_next()


class Link:
    """Full-duplex link between two nodes.

    Parameters
    ----------
    rate_mbps:
        Serialization rate per direction (the VirtualBox bandwidth cap in
        the paper's testbed).
    delay_ms:
        One-way propagation delay (the ``tc`` delay in the paper).
    queue_packets:
        FIFO depth per direction; tail drop beyond it.
    """

    def __init__(
        self,
        sim: Simulator,
        node_a: "Node",
        node_b: "Node",
        rate_mbps: float = 1000.0,
        delay_ms: float = 0.1,
        queue_packets: int = 100,
    ) -> None:
        if rate_mbps <= 0:
            raise ValueError("rate_mbps must be positive")
        if delay_ms < 0:
            raise ValueError("delay_ms must be non-negative")
        if queue_packets < 1:
            raise ValueError("queue_packets must be >= 1")
        self.sim = sim
        self.node_a = node_a
        self.node_b = node_b
        self.rate_mbps = float(rate_mbps)
        self.delay_ms = float(delay_ms)
        self.queue_packets = int(queue_packets)
        self.up = True  # failure injection: down links black-hole traffic
        self._ab = _Direction(sim, self, node_b)
        self._ba = _Direction(sim, self, node_a)

    def endpoints(self) -> Tuple["Node", "Node"]:
        return self.node_a, self.node_b

    def other(self, node: "Node") -> "Node":
        if node is self.node_a:
            return self.node_b
        if node is self.node_b:
            return self.node_a
        raise ValueError(f"{node.name} is not attached to this link")

    def stats_from(self, node: "Node") -> LinkStats:
        """Counters for the direction transmitting out of ``node``."""
        return self.direction_from(node).stats

    def direction_from(self, node: "Node") -> _Direction:
        """The transmit direction out of ``node``: a stable handle whose
        ``stats`` / ``queue`` / ``background_mbps`` the vectorised
        telemetry collectors read in bulk each tick (resolving the
        direction once at start instead of per sample)."""
        if node is self.node_a:
            return self._ab
        if node is self.node_b:
            return self._ba
        raise ValueError(f"{node.name} is not attached to this link")

    def set_background_from(self, node: "Node", mbps: float) -> None:
        """Set the fluid background load (Mbps) transmitting out of
        ``node``; takes effect from the next packet serialization."""
        if mbps < 0:
            raise ValueError(f"background load must be >= 0, got {mbps}")
        self.direction_from(node).background_mbps = float(mbps)

    def background_from(self, node: "Node") -> float:
        """Current background load (Mbps) out of ``node``."""
        return self.direction_from(node).background_mbps

    def queue_depth_from(self, node: "Node") -> int:
        return len(self.direction_from(node).queue)

    def __repr__(self) -> str:
        return (
            f"Link({self.node_a.name}<->{self.node_b.name}, "
            f"{self.rate_mbps} Mbps, {self.delay_ms} ms)"
        )
