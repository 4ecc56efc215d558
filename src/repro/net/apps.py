"""Traffic applications: ping, TCP (AIMD), UDP/CBR and iperf-style reports.

These substitute for the ``ping``, ``iperf3`` and ``bwm-ng`` tools in the
paper's virtual testbed.  The TCP model is a deliberately compact
NewReno-flavoured AIMD: slow start to ``ssthresh``, congestion avoidance
(+1 MSS per RTT), multiplicative decrease on retransmission timeout, EWMA
RTT estimation for the RTO.  That is enough to reproduce the *shapes* the
paper's Figs. 11-12 rely on — bottleneck saturation, fair sharing among
competing flows and throughput steps after a PBR path change — without
modelling SACK blocks or byte-level reassembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .devices import Host
from .packets import ACK_SIZE, DATA_MTU, ICMP_SIZE, Packet
from .sim import Event, Simulator

__all__ = ["PingApp", "TcpFlow", "UdpFlow", "FlowReport"]

_flow_ids = iter(range(1, 1_000_000))


def _next_flow_id() -> int:
    return next(_flow_ids)


class PingApp:
    """Periodic ICMP echo with RTT capture (the paper's Fig. 11 probe)."""

    def __init__(
        self,
        host: Host,
        dst: Host,
        interval: float = 1.0,
        count: Optional[int] = None,
        tos: int = 0,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.host = host
        self.dst = dst
        self.interval = interval
        self.count = count
        self.tos = tos
        self.flow_id = _next_flow_id()
        self.rtts: List[Tuple[float, float]] = []  # (send time, rtt ms)
        self.sent = 0
        self.lost_so_far = 0
        self._pending: Dict[int, float] = {}
        host.register_flow(self.flow_id, self._on_reply)

    def start(self, at: float = 0.0) -> "PingApp":
        self.host.sim.post(at, self._tick)
        return self

    def stop(self) -> None:
        self.count = self.sent  # no further ticks send anything
        # retire the receive handler so a departed probe cannot pin
        # itself in the host's handler map (collected RTTs are kept)
        self.host.unregister_flow(self.flow_id)
        self._pending.clear()

    def _tick(self) -> None:
        if self.count is not None and self.sent >= self.count:
            return
        seq = self.sent
        self.sent += 1
        packet = Packet(
            src=self.host.name,
            dst=self.dst.name,
            size=ICMP_SIZE,
            protocol="icmp",
            tos=self.tos,
            flow_id=self.flow_id,
            seq=seq,
            src_ip=self.host.ip,
            dst_ip=self.dst.ip,
            created_at=self.host.sim.now,
        )
        self._pending[seq] = self.host.sim.now
        self.host.send_packet(packet)
        self.host.sim.post(self.interval, self._tick)

    def _on_reply(self, packet: Packet) -> None:
        sent_at = self._pending.pop(packet.seq, None)
        if sent_at is None:
            return
        rtt_ms = (self.host.sim.now - sent_at) * 1e3
        self.rtts.append((sent_at, rtt_ms))

    # ------------------------------------------------------------- results

    @property
    def received(self) -> int:
        return len(self.rtts)

    @property
    def loss_rate(self) -> float:
        outstanding = len(self._pending)
        if self.sent == 0:
            return 0.0
        return outstanding / self.sent

    def rtt_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(send times, RTTs in ms) as arrays, time-ordered."""
        if not self.rtts:
            return np.array([]), np.array([])
        arr = np.asarray(self.rtts)
        return arr[:, 0], arr[:, 1]


@dataclass
class FlowReport:
    """iperf3-style summary of a finished (or sampled) flow."""

    flow_id: int
    src: str
    dst: str
    duration_s: float
    bytes_delivered: int
    mean_mbps: float
    retransmits: int
    interval_mbps: List[float] = field(default_factory=list)
    #: RFC 3550 smoothed inter-arrival jitter (UDP) — what the VoIP
    #: MOS model consumes; 0.0 where the app doesn't measure it
    jitter_ms: float = 0.0
    #: mean one-way transit time of delivered packets (UDP)
    mean_latency_ms: float = 0.0
    loss_rate: float = 0.0


class TcpFlow:
    """Bulk TCP transfer with AIMD congestion control.

    Parameters
    ----------
    host, dst:
        Sender and receiver hosts.
    tos:
        ToS byte stamped on every segment (PBR match key in Fig. 12).
    duration:
        Seconds of sending after ``start``; the flow keeps the pipe full
        the whole time (iperf-style), rather than sending a fixed volume.
    """

    MSS = DATA_MTU
    INITIAL_CWND = 2.0
    INITIAL_SSTHRESH = 64.0
    MAX_CWND = 512.0
    MIN_RTO = 0.2

    def __init__(
        self,
        host: Host,
        dst: Host,
        tos: int = 0,
        duration: float = 60.0,
    ):
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.host = host
        self.dst = dst
        self.tos = tos
        self.duration = duration
        self.flow_id = _next_flow_id()
        self.sim: Simulator = host.sim

        self.cwnd = self.INITIAL_CWND
        self.ssthresh = self.INITIAL_SSTHRESH
        self.next_seq = 0
        self.inflight: Dict[int, Event] = {}  # seq -> timeout event
        self.first_tx: Dict[int, float] = {}  # seq -> send time (RTT sampling)
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.retransmits = 0
        self.bytes_acked = 0
        self.ack_log: List[Tuple[float, int]] = []  # (t, bytes)
        self.started_at: Optional[float] = None
        self.stop_at: Optional[float] = None
        self._start_event: Optional[Event] = None
        self._stopped = False

        # receiver side: count delivered bytes, ack every segment
        dst.register_flow(self.flow_id, self._receiver_on_data)
        host.register_flow(self.flow_id, self._sender_on_ack)

    # -------------------------------------------------------------- sender

    def start(self, at: float = 0.0) -> "TcpFlow":
        def begin():
            if self._stopped:
                return
            self.started_at = self.sim.now
            self.stop_at = self.sim.now + self.duration
            self._pump()

        self._start_event = self.sim.schedule(at, begin)
        return self

    def stop(self) -> None:
        """Tear the flow down now: stop sending, cancel every pending
        retransmission timer and unregister both hosts' handlers.

        Collected results (``ack_log``, ``goodput_mbps``) stay valid;
        the flow simply ends at the current instant instead of at its
        scheduled ``stop_at``.  Idempotent — the retirement path of a
        long-lived service calls this for every departing flow."""
        self._stopped = True
        if self._start_event is not None:
            self._start_event.cancel()
        if self.stop_at is None or self.sim.now < self.stop_at:
            self.stop_at = self.sim.now
        for event in self.inflight.values():
            event.cancel()
        self.inflight.clear()
        self.first_tx.clear()
        self.host.unregister_flow(self.flow_id)
        self.dst.unregister_flow(self.flow_id)

    @property
    def _sending(self) -> bool:
        return self.stop_at is not None and self.sim.now < self.stop_at

    def _rto(self) -> float:
        if self.srtt is None:
            return 1.0
        return max(self.MIN_RTO, self.srtt + 4.0 * self.rttvar)

    def _pump(self) -> None:
        while self._sending and len(self.inflight) < int(self.cwnd):
            seq = self.next_seq
            self.next_seq += 1
            self._transmit(seq, first=True)

    def _transmit(self, seq: int, first: bool) -> None:
        packet = Packet(
            src=self.host.name,
            dst=self.dst.name,
            size=self.MSS,
            protocol="tcp",
            tos=self.tos,
            flow_id=self.flow_id,
            seq=seq,
            src_ip=self.host.ip,
            dst_ip=self.dst.ip,
            created_at=self.sim.now,
        )
        if first:
            self.first_tx[seq] = self.sim.now
        self.host.send_packet(packet)
        timeout = self.sim.schedule(self._rto(), lambda: self._on_timeout(seq))
        old = self.inflight.get(seq)
        if old is not None:
            old.cancel()
        self.inflight[seq] = timeout

    def _on_timeout(self, seq: int) -> None:
        if seq not in self.inflight:
            return
        # multiplicative decrease; retransmit the lost segment
        self.retransmits += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self.first_tx.pop(seq, None)  # Karn: no RTT sample from retransmit
        # always retransmit outstanding data
        self._transmit(seq, first=False)

    def _sender_on_ack(self, packet: Packet) -> None:
        seq = packet.ack
        timer = self.inflight.pop(seq, None)
        if timer is None:
            return  # duplicate/ack for already-retired segment
        timer.cancel()
        sent_at = self.first_tx.pop(seq, None)
        if sent_at is not None:
            sample = self.sim.now - sent_at
            if self.srtt is None:
                self.srtt = sample
                self.rttvar = sample / 2.0
            else:
                self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
                self.srtt = 0.875 * self.srtt + 0.125 * sample
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0  # slow start
        else:
            self.cwnd += 1.0 / self.cwnd  # congestion avoidance
        self.cwnd = min(self.cwnd, self.MAX_CWND)
        self.bytes_acked += self.MSS
        self.ack_log.append((self.sim.now, self.MSS))
        self._pump()

    # ------------------------------------------------------------ receiver

    def _receiver_on_data(self, packet: Packet) -> None:
        ack = Packet(
            src=self.dst.name,
            dst=self.host.name,
            size=ACK_SIZE,
            protocol="tcp",
            tos=packet.tos,
            flow_id=self.flow_id,
            seq=0,
            ack=packet.seq,
            src_ip=self.dst.ip,
            dst_ip=self.host.ip,
        )
        self.dst.send_packet(ack)

    # ------------------------------------------------------------- results

    def goodput_mbps(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Mean acked throughput over [t0, t1] (defaults: whole lifetime)."""
        if self.started_at is None:
            return 0.0
        t0 = self.started_at if t0 is None else t0
        t1 = (self.stop_at if self.stop_at is not None else self.sim.now) if t1 is None else t1
        if t1 <= t0:
            return 0.0
        total = sum(b for t, b in self.ack_log if t0 <= t < t1)
        return total * 8.0 / (t1 - t0) / 1e6

    def interval_mbps(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-second throughput series (iperf3's per-second report)."""
        if self.started_at is None or not self.ack_log:
            return np.array([]), np.array([])
        t = np.asarray([x[0] for x in self.ack_log])
        b = np.asarray([x[1] for x in self.ack_log], dtype=np.float64)
        end = self.stop_at if self.stop_at is not None else t.max()
        edges = np.arange(self.started_at, end + 1.0, 1.0)
        sums, _ = np.histogram(t, bins=edges, weights=b)
        centers = (edges[:-1] + edges[1:]) / 2.0
        return centers, sums * 8.0 / 1e6

    def report(self) -> FlowReport:
        _, series = self.interval_mbps()
        return FlowReport(
            flow_id=self.flow_id,
            src=self.host.name,
            dst=self.dst.name,
            duration_s=self.duration,
            bytes_delivered=self.bytes_acked,
            mean_mbps=self.goodput_mbps(),
            retransmits=self.retransmits,
            interval_mbps=series.tolist(),
        )


class UdpFlow:
    """Constant-bit-rate UDP sender (no feedback, no retransmission).

    ``train_packets`` batches the sender's timer: instead of one
    scheduler event per packet, each tick emits a back-to-back *train*
    of up to that many packets and sleeps one inter-packet interval per
    packet sent.  The total packet count equals the strictly-paced
    sender's (the final train is clipped to the flow's remaining packet
    budget, so a short flow never overshoots its CBR rate); only the
    pacing granularity coarsens, and the event count drops by the train
    length — the knob scale-tier scenarios use to keep thousands of
    mice affordable in pure DES runs.  The default of 1 preserves the
    original strictly-paced behaviour.
    """

    def __init__(
        self,
        host: Host,
        dst: Host,
        rate_mbps: float,
        duration: float = 60.0,
        tos: int = 0,
        packet_size: int = DATA_MTU,
        train_packets: int = 1,
    ):
        if rate_mbps <= 0:
            raise ValueError("rate_mbps must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if train_packets < 1:
            raise ValueError("train_packets must be >= 1")
        self.host = host
        self.dst = dst
        self.rate_mbps = rate_mbps
        self.duration = duration
        self.tos = tos
        self.packet_size = packet_size
        self.train_packets = int(train_packets)
        self.flow_id = _next_flow_id()
        self.sent_packets = 0
        self.received_bytes = 0
        self.rx_log: List[Tuple[float, int]] = []
        # RFC 3550 jitter: smoothed |delta transit| between consecutive
        # arrivals, J += (|D| - J) / 16 (seconds internally)
        self._jitter_s = 0.0
        self._last_transit_s: Optional[float] = None
        self._transit_sum_s = 0.0
        self._transit_n = 0
        self._start_time: Optional[float] = None
        self._stop_time: Optional[float] = None
        self._packet_budget = 0
        self._start_event = None
        self._stopped = False
        dst.register_flow(self.flow_id, self._on_data)

    def start(self, at: float = 0.0) -> "UdpFlow":
        def begin():
            if self._stopped:
                return
            self._start_time = self.host.sim.now
            self._stop_time = self.host.sim.now + self.duration
            # the strictly-paced sender ticks once per interval while
            # now < stop, i.e. ceil(duration / interval) packets; train
            # batching must emit exactly that many, never more
            interval = self.packet_size * 8.0 / (self.rate_mbps * 1e6)
            self._packet_budget = int(math.ceil(self.duration / interval))
            self._tick()

        self._start_event = self.host.sim.schedule(at, begin)
        return self

    def stop(self) -> None:
        """Stop sending now and unregister the receiver's handler.

        The next timer tick (if any is pending) sees the moved
        ``_stop_time`` and does nothing; results collected so far
        (``delivered_mbps``, ``loss_rate``) stay valid.  Idempotent."""
        self._stopped = True
        if self._start_event is not None:
            self._start_event.cancel()
        if self._stop_time is None or self.host.sim.now < self._stop_time:
            self._stop_time = self.host.sim.now
        self.dst.unregister_flow(self.flow_id)

    def _tick(self) -> None:
        if self.host.sim.now >= self._stop_time:
            return
        budget_left = self._packet_budget - self.sent_packets
        if budget_left <= 0:
            return
        for _ in range(min(self.train_packets, budget_left)):
            packet = Packet(
                src=self.host.name,
                dst=self.dst.name,
                size=self.packet_size,
                protocol="udp",
                tos=self.tos,
                flow_id=self.flow_id,
                seq=self.sent_packets,
                src_ip=self.host.ip,
                dst_ip=self.dst.ip,
                created_at=self.host.sim.now,
            )
            self.host.send_packet(packet)
            self.sent_packets += 1
        interval = self.packet_size * 8.0 / (self.rate_mbps * 1e6)
        self.host.sim.post(self.train_packets * interval, self._tick)

    def _on_data(self, packet: Packet) -> None:
        self.received_bytes += packet.size
        self.rx_log.append((self.dst.sim.now, packet.size))
        if packet.created_at is not None:
            transit = self.dst.sim.now - packet.created_at
            self._transit_sum_s += transit
            self._transit_n += 1
            if self._last_transit_s is not None:
                d = abs(transit - self._last_transit_s)
                self._jitter_s += (d - self._jitter_s) / 16.0
            self._last_transit_s = transit

    def delivered_mbps(self) -> float:
        """Mean delivered rate over the flow's *active window* — from
        the first send to min(now, scheduled stop), extended to the last
        arrival when packets outlive the sender.

        Averaging over the receive-log span instead (the original
        definition) breaks down for short or train-batched flows: a
        mouse whose whole lifetime fits in one back-to-back packet train
        would report the link's serialization rate, not the trickle it
        actually carried.
        """
        if not self.rx_log or self._start_time is None:
            return 0.0
        end = min(self.host.sim.now, self._stop_time)
        end = max(end, self.rx_log[-1][0])
        window = end - self._start_time
        if window <= 0:
            return 0.0
        return self.received_bytes * 8.0 / window / 1e6

    @property
    def loss_rate(self) -> float:
        if self.sent_packets == 0:
            return 0.0
        return 1.0 - (self.received_bytes / self.packet_size) / self.sent_packets

    @property
    def jitter_ms(self) -> float:
        """RFC 3550 smoothed inter-arrival jitter in milliseconds."""
        return self._jitter_s * 1e3

    @property
    def mean_latency_ms(self) -> float:
        """Mean one-way transit time of delivered packets (ms)."""
        if self._transit_n == 0:
            return 0.0
        return self._transit_sum_s / self._transit_n * 1e3

    def report(self) -> FlowReport:
        """iperf3/RTCP-style summary: rate, jitter, latency and loss."""
        return FlowReport(
            flow_id=self.flow_id,
            src=self.host.name,
            dst=self.dst.name,
            duration_s=self.duration,
            bytes_delivered=self.received_bytes,
            mean_mbps=self.delivered_mbps(),
            retransmits=0,
            jitter_ms=self.jitter_ms,
            mean_latency_ms=self.mean_latency_ms,
            loss_rate=self.loss_rate,
        )
