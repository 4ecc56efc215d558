"""Telemetry collection and a columnar time-series store.

Mirrors the paper's telemetry service (Fig. 3/4): agents sample per-link
byte counters (what ``bwm-ng`` showed on the VMs) and per-path
latency/available-bandwidth estimates at fixed intervals; samples land in
a time-series database keyed by metric name; the Controller later reads
windows of history out of it and hands them to Hecate for forecasting.

The store is **columnar**: metrics that are sampled together (every
``link:*`` series of one collector, the three series of one path probe)
share a single time axis and one ``(samples, metrics)`` value matrix
(:class:`ColumnGroup`), appended a whole row at a time.  Appends are
amortised O(1) (growable ring-style chunks, capacity doubling), windowed
reads are O(log n + k) via ``searchsorted`` on the shared time axis, and
``last``/``latest``/``series`` return zero-copy (read-only) views — the
always-on paths the Controller polls every tick never re-materialise a
history.  :meth:`TimeSeriesDB.window_since` adds an incremental cursor
read on top: a reader keeps the integer cursor from its previous call
and receives only the samples appended since, which is what lets the
re-optimization loop and Hecate's forecast cache skip untouched series
entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .topology import Network

__all__ = [
    "TimeSeriesDB",
    "ColumnGroup",
    "LinkTelemetryCollector",
    "PathTelemetryProbe",
    "MIN_RATE_MBPS",
]

#: Below this configured rate a direction has no usable capacity (a
#: failed or administratively zeroed link): its ``util`` sample is 0.0
#: by definition instead of a division blow-up — the ``mbps`` series
#: still reports whatever the direction carried.
MIN_RATE_MBPS = 1e-6

#: Initial per-group capacity (rows); doubled on exhaustion.
_INITIAL_CAPACITY = 256


def _empty() -> np.ndarray:
    out = np.empty(0, dtype=np.float64)
    out.flags.writeable = False
    return out


class ColumnGroup:
    """Metrics sampled together: one shared time axis, one value matrix.

    The write handle the telemetry agents hold: :meth:`append` writes a
    whole row — one timestamp, one value per metric — as two numpy
    assignments, no per-metric Python loop.  Reads go through the owning
    :class:`TimeSeriesDB`, which maps each metric name onto its column.
    """

    __slots__ = ("names", "_t", "_v", "n", "sorted")

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        if not self.names:
            raise ValueError("a column group needs at least one metric")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate metric names in group: {names}")
        self._t = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._v = np.empty(
            (_INITIAL_CAPACITY, len(self.names)), dtype=np.float64
        )
        self.n = 0
        #: cleared the first time an append goes backwards in time;
        #: windowed reads then fall back from bisection to a mask.
        self.sorted = True

    @property
    def width(self) -> int:
        return len(self.names)

    def _grow(self, need: int) -> None:
        capacity = max(self._t.size * 2, need)
        t = np.empty(capacity, dtype=np.float64)
        v = np.empty((capacity, self.width), dtype=np.float64)
        t[: self.n] = self._t[: self.n]
        v[: self.n] = self._v[: self.n]
        self._t, self._v = t, v

    # ------------------------------------------------------------ writes

    def append(self, t: float, values: Sequence[float]) -> None:
        """Append one sample row across every metric of the group."""
        if len(values) != self.width:
            # checked explicitly: numpy would silently broadcast a
            # length-1 row across every column instead of raising
            raise ValueError(
                f"row has {len(values)} values for {self.width} metrics"
            )
        n = self.n
        if n >= self._t.size:
            self._grow(n + 1)
        if n and t < self._t[n - 1]:
            self.sorted = False
        self._t[n] = t
        self._v[n] = values
        self.n = n + 1

    def _append_one(self, t: float, value: float) -> None:
        """Width-1 fast path (``TimeSeriesDB.insert``)."""
        n = self.n
        if n >= self._t.size:
            self._grow(n + 1)
        if n and t < self._t[n - 1]:
            self.sorted = False
        self._t[n] = t
        self._v[n, 0] = value
        self.n = n + 1

    def _extend(self, ts: np.ndarray, values: np.ndarray) -> None:
        """Width-1 bulk append (``TimeSeriesDB.insert_many``)."""
        count = ts.size
        if count == 0:
            return
        need = self.n + count
        if need > self._t.size:
            self._grow(need)
        if self.sorted and (
            (self.n and ts[0] < self._t[self.n - 1])
            or (count > 1 and bool(np.any(np.diff(ts) < 0.0)))
        ):
            self.sorted = False
        self._t[self.n : need] = ts
        self._v[self.n : need, 0] = values
        self.n = need

    # ------------------------------------------------------------- reads

    def times(self) -> np.ndarray:
        view = self._t[: self.n]
        view.flags.writeable = False
        return view

    def column(self, col: int) -> np.ndarray:
        view = self._v[: self.n, col]
        view.flags.writeable = False
        return view


class TimeSeriesDB:
    """Metric name -> columnar (t, value) series.

    The read API is shape/dtype-compatible with the original
    list-of-tuples store (every method returns ``float64`` arrays, empty
    arrays for unknown metrics), but returns **read-only views** into
    the columnar backing instead of materialised copies.  A view taken
    before a growth reallocation stays valid — it sees the snapshot it
    was taken over, never a torn read.
    """

    def __init__(self) -> None:
        #: metric name -> (owning group, column index)
        self._columns: Dict[str, Tuple[ColumnGroup, int]] = {}

    # ------------------------------------------------------------ writes

    def _own_column(self, metric: str) -> Tuple[ColumnGroup, int]:
        """The metric's (group, column), creating a standalone
        single-column group on first write; rejects individual writes
        into a metric owned by a wider group (they would desynchronise
        the group's shared time axis)."""
        entry = self._columns.get(metric)
        if entry is None:
            entry = (ColumnGroup((metric,)), 0)
            self._columns[metric] = entry
        elif entry[0].width != 1:
            raise ValueError(
                f"metric {metric!r} belongs to a column group; append "
                "whole rows through the ColumnGroup handle"
            )
        return entry

    def insert(self, metric: str, t: float, value: float) -> None:
        self._own_column(metric)[0]._append_one(float(t), float(value))

    def insert_many(
        self, metric: str, ts: Sequence[float], values: Sequence[float]
    ) -> None:
        """Bulk append one metric (vectorised; one capacity check)."""
        ts = np.asarray(ts, dtype=np.float64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if ts.size != values.size:
            raise ValueError(
                f"mismatched lengths: {ts.size} timestamps, "
                f"{values.size} values"
            )
        self._own_column(metric)[0]._extend(ts, values)

    def column_group(self, metrics: Sequence[str]) -> ColumnGroup:
        """A shared write handle for metrics sampled together.

        Re-requesting the identical layout returns the existing group
        (so a stopped collector can restart); any other overlap with
        already-registered metrics is an error.
        """
        metrics = tuple(metrics)
        first = self._columns.get(metrics[0]) if metrics else None
        if first is not None and first[0].names == metrics:
            return first[0]
        taken = [name for name in metrics if name in self._columns]
        if taken:
            raise ValueError(
                f"metrics already registered: {taken[:3]}"
                f"{'...' if len(taken) > 3 else ''}"
            )
        group = ColumnGroup(metrics)
        for col, name in enumerate(metrics):
            self._columns[name] = (group, col)
        return group

    # ------------------------------------------------------------- reads

    def metrics(self) -> List[str]:
        return sorted(self._columns)

    def count(self, metric: str) -> int:
        """Samples recorded for ``metric`` (0 if unknown) — also the
        cursor value :meth:`window_since` returns once caught up."""
        entry = self._columns.get(metric)
        return entry[0].n if entry else 0

    def total_samples(self) -> int:
        """Samples across all metrics (a deterministic volume figure)."""
        return sum(entry[0].n for entry in self._columns.values())

    def series(self, metric: str) -> Tuple[np.ndarray, np.ndarray]:
        entry = self._columns.get(metric)
        if entry is None:
            return _empty(), _empty()
        group, col = entry
        return group.times(), group.column(col)

    def window(
        self,
        metric: str,
        t0: float,
        t1: float,
        include_end: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Samples with ``t0 <= t <= t1`` (``t < t1`` when
        ``include_end=False``).

        The upper bound is **inclusive** by default: a reader asking for
        "the last W seconds up to now" must see a sample stamped exactly
        *now* (probe and reader commonly fire at the same simulated
        instant; the old half-open bound silently dropped the newest
        sample).  O(log n + k) on in-order series; falls back to a mask
        scan if the series was ever appended out of order.
        """
        t, v = self.series(metric)
        if t.size == 0:
            return t, v
        group = self._columns[metric][0]
        if group.sorted:
            i0 = int(np.searchsorted(t, t0, side="left"))
            i1 = int(
                np.searchsorted(t, t1, side="right" if include_end else "left")
            )
            return t[i0:i1], v[i0:i1]
        mask = (t >= t0) & ((t <= t1) if include_end else (t < t1))
        return t[mask], v[mask]

    def window_since(
        self, metric: str, cursor: int
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Incremental read: samples appended after ``cursor``.

        ``cursor`` is the value returned by the previous call (0 to
        start).  Returns ``(t, values, new_cursor)``; when nothing was
        appended the arrays are empty and the cursor is unchanged, which
        is the signal callers use to skip recomputation (e.g. Hecate's
        forecast cache).  O(1) plus the size of the increment.
        """
        entry = self._columns.get(metric)
        if entry is None:
            return _empty(), _empty(), 0
        group, col = entry
        start = min(max(int(cursor), 0), group.n)
        return group.times()[start:], group.column(col)[start:], group.n

    def last(self, metric: str, n: int = 1) -> np.ndarray:
        """The last ``n`` values as a zero-copy tail view (O(1), never
        materialises the history; ``n <= 0`` returns an empty array)."""
        entry = self._columns.get(metric)
        if entry is None or n <= 0:
            return _empty()
        group, col = entry
        return group.column(col)[max(group.n - n, 0) :]

    def latest(self, metric: str, default: float = 0.0) -> float:
        """The most recent value of ``metric``, O(1)."""
        entry = self._columns.get(metric)
        if entry is None or entry[0].n == 0:
            return default
        group, col = entry
        return float(group._v[group.n - 1, col])

    def __len__(self) -> int:
        return len(self._columns)


def _guarded_inverse(rates: np.ndarray) -> np.ndarray:
    """1/rate per direction, with unusable rates (< MIN_RATE_MBPS)
    mapped to 0 so utilization divisions can never produce inf/NaN."""
    return np.where(
        rates >= MIN_RATE_MBPS,
        1.0 / np.maximum(rates, MIN_RATE_MBPS),
        0.0,
    )


class LinkTelemetryCollector:
    """Samples per-link, per-direction counters every ``interval`` s.

    Records, for each directed link ``a->b``:

    - ``link:a->b:mbps``     achieved throughput over the last interval
    - ``link:a->b:util``     that throughput / configured rate
    - ``link:a->b:drops``    packets tail-dropped in the interval

    A direction's fluid background load (hybrid backend, see
    :meth:`repro.net.links.Link.set_background_from`) is folded into the
    throughput and utilization samples: the controller and Hecate must
    see mice-class load even though it never crosses the link packet by
    packet.  Because of that folding (and because counters are sampled
    on interval edges while rates can change mid-interval), ``util`` may
    legitimately exceed 1.0 — it reports *offered* load against the
    configured rate, not a clipped occupancy.  Directions whose
    configured rate is below :data:`MIN_RATE_MBPS` (failed or zeroed
    links) report ``util`` 0.0 by definition.

    One sample tick is a single vectorised pass: counters for every
    directed link are gathered into arrays, deltas/rates/utilizations
    are computed with numpy, and the whole tick lands in the store as
    one :class:`ColumnGroup` row append.  The link *set* is captured
    when sampling begins (``Network.add_link`` is build-time only), but
    rates are re-read every tick, so runtime impairments
    (``Network.set_link_rate``) show up in ``util`` immediately.
    """

    def __init__(self, network: Network, db: TimeSeriesDB, interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.network = network
        self.db = db
        self.interval = interval
        self._running = False
        self._group: Optional[ColumnGroup] = None
        self._dirs: Tuple = ()
        self._n = 0

    def start(self, at: float = 0.0) -> "LinkTelemetryCollector":
        self._running = True
        if self._group is None and self.network.links:
            self._build_columns()
        self.network.sim.post(at, self._sample)
        return self

    def stop(self) -> None:
        self._running = False

    def _build_columns(self) -> None:
        dirs = []
        tags = []
        links = []
        for key, link in self.network.links.items():
            a, b = sorted(key)
            for src_name, dst_name in ((a, b), (b, a)):
                node = self.network.node(src_name)
                dirs.append(link.direction_from(node))
                tags.append(f"{src_name}->{dst_name}")
                links.append(link)
        self._dirs = tuple(dirs)
        self._links = tuple(links)
        self._n = len(dirs)
        self._prev_bytes = np.zeros(self._n, dtype=np.float64)
        self._prev_drops = np.zeros(self._n, dtype=np.float64)
        self._row = np.empty(3 * self._n, dtype=np.float64)
        self._scale = 8.0 / self.interval / 1e6
        self._group = self.db.column_group(
            [f"link:{tag}:mbps" for tag in tags]
            + [f"link:{tag}:util" for tag in tags]
            + [f"link:{tag}:drops" for tag in tags]
        )

    def _sample(self) -> None:
        if not self._running:
            return
        if self._group is None and self.network.links:
            self._build_columns()  # built with links after a bare start
        if self._group is not None:
            now = self.network.sim.now
            n = self._n
            dirs = self._dirs
            tx = np.fromiter(
                (d.stats.tx_bytes for d in dirs), np.float64, count=n
            )
            drops = np.fromiter(
                (d.stats.dropped_packets for d in dirs), np.float64, count=n
            )
            bg = np.fromiter(
                (d.background_mbps for d in dirs), np.float64, count=n
            )
            # rates re-read every tick: set_link_rate is runtime-legal
            rates = np.fromiter(
                (lnk.rate_mbps for lnk in self._links), np.float64, count=n
            )
            row = self._row
            mbps = row[:n]
            np.subtract(tx, self._prev_bytes, out=mbps)
            mbps *= self._scale
            mbps += bg
            np.multiply(mbps, _guarded_inverse(rates), out=row[n : 2 * n])
            np.subtract(drops, self._prev_drops, out=row[2 * n :])
            self._prev_bytes = tx
            self._prev_drops = drops
            self._group.append(now, row)
        self.network.sim.post(self.interval, self._sample)


@dataclass
class PathObservation:
    """One telemetry snapshot of a named path."""

    t: float
    available_mbps: float
    latency_ms: float
    bottleneck_util: float
    jitter_ms: float = 0.0
    loss_rate: float = 0.0


class PathTelemetryProbe:
    """Derives per-path QoS metrics from link telemetry.

    For a named router path, each sample records:

    - ``path:NAME:available_mbps`` — min over links of
      ``capacity - carried traffic`` (the headroom Hecate forecasts),
    - ``path:NAME:latency_ms`` — propagation plus a queueing estimate from
      current queue depths,
    - ``path:NAME:util`` — utilization of the bottleneck link,
    - ``path:NAME:jitter_ms`` — RFC 3550-style smoothed latency
      variation (``J += (|dLatency| - J) / 16`` per sample), the jitter
      the VoIP MOS model scores,
    - ``path:NAME:loss`` — this interval's dropped-packet fraction
      along the path (drops / transmitted, both as deltas).

    Like the link collector, one sample is a single vectorised pass over
    the path's hops and one 5-column row append (the five series share
    their time axis).  The same rate guard applies: hops with no usable
    configured rate contribute 0 utilization and headroom.
    """

    def __init__(
        self,
        network: Network,
        db: TimeSeriesDB,
        name: str,
        path: Sequence[str],
        interval: float = 1.0,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if len(path) < 2:
            raise ValueError("path needs at least two nodes")
        self.network = network
        self.db = db
        self.name = name
        self.path = list(path)
        self.interval = interval
        self._running = False
        self._group: Optional[ColumnGroup] = None
        self.observations: List[PathObservation] = []

    def start(self, at: float = 0.0) -> "PathTelemetryProbe":
        self._running = True
        if self._group is None:
            self._build_columns()
        self.network.sim.post(at, self._sample)
        return self

    def stop(self) -> None:
        self._running = False

    def _build_columns(self) -> None:
        dirs = []
        links = []
        for a, b in zip(self.path[:-1], self.path[1:]):
            link = self.network.link(a, b)
            node = self.network.node(a)
            dirs.append(link.direction_from(node))
            links.append(link)
        self._dirs = tuple(dirs)
        self._links = tuple(links)
        self._prev_bytes = np.zeros(len(dirs), dtype=np.float64)
        self._prev_drops = np.zeros(len(dirs), dtype=np.float64)
        self._prev_pkts = np.zeros(len(dirs), dtype=np.float64)
        self._prev_latency_ms: Optional[float] = None
        self._jitter_ms = 0.0
        self._row = np.empty(5, dtype=np.float64)
        self._scale = 8.0 / self.interval / 1e6
        self._group = self.db.column_group(
            [
                f"path:{self.name}:available_mbps",
                f"path:{self.name}:latency_ms",
                f"path:{self.name}:util",
                f"path:{self.name}:jitter_ms",
                f"path:{self.name}:loss",
            ]
        )

    def _sample(self) -> None:
        if not self._running:
            return
        now = self.network.sim.now
        dirs = self._dirs
        k = len(dirs)
        tx = np.fromiter((d.stats.tx_bytes for d in dirs), np.float64, count=k)
        drops = np.fromiter(
            (d.stats.dropped_packets for d in dirs), np.float64, count=k
        )
        pkts = np.fromiter(
            (d.stats.tx_packets for d in dirs), np.float64, count=k
        )
        depth = np.fromiter(
            (len(d.queue) for d in dirs), np.float64, count=k
        )
        bg = np.fromiter(
            (d.background_mbps for d in dirs), np.float64, count=k
        )
        # rates/delays re-read every tick: set_link_rate/set_link_delay
        # are runtime-legal impairments the probe must track live
        rates = np.fromiter(
            (lnk.rate_mbps for lnk in self._links), np.float64, count=k
        )
        prop_ms = sum(lnk.delay_ms for lnk in self._links)
        # one 1500 B packet's serialization time per hop (ms)
        queue_ms_per_pkt = 12.0 / np.maximum(rates, MIN_RATE_MBPS)
        carried = tx - self._prev_bytes
        carried *= self._scale
        carried += bg
        self._prev_bytes = tx
        headroom = np.maximum(rates - carried, 0.0)
        latency_ms = prop_ms + float(np.dot(depth, queue_ms_per_pkt))
        # jitter: smoothed latency variation between consecutive samples
        if self._prev_latency_ms is not None:
            d_lat = abs(latency_ms - self._prev_latency_ms)
            self._jitter_ms += (d_lat - self._jitter_ms) / 16.0
        self._prev_latency_ms = latency_ms
        # loss: this interval's dropped fraction of attempted packets
        dropped = float(np.sum(drops - self._prev_drops))
        attempted = float(np.sum(pkts - self._prev_pkts)) + dropped
        self._prev_drops = drops
        self._prev_pkts = pkts
        loss_rate = dropped / attempted if attempted > 0 else 0.0
        obs = PathObservation(
            t=now,
            available_mbps=float(headroom.min()),
            latency_ms=latency_ms,
            bottleneck_util=float(np.max(carried * _guarded_inverse(rates))),
            jitter_ms=self._jitter_ms,
            loss_rate=loss_rate,
        )
        self.observations.append(obs)
        row = self._row
        row[0] = obs.available_mbps
        row[1] = obs.latency_ms
        row[2] = obs.bottleneck_util
        row[3] = obs.jitter_ms
        row[4] = obs.loss_rate
        self._group.append(now, row)
        self.network.sim.post(self.interval, self._sample)
