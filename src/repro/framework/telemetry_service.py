"""Telemetry Service (Fig. 3/4): owns the time-series DB and the agents.

Fig. 4's ``startTelemetry``/``createTelemetry`` pair maps to
:meth:`TelemetryService.start` (arming the per-link collector) and
:meth:`TelemetryService.create_path_probe` (per-tunnel agents).  The
Controller retrieves stored history with ``getTelemetry`` — topic
``telemetry.get`` — as "a dataset of time-indexed values".

What lands in the DB, at every ``interval`` seconds of virtual time
(metric-name schema shared with the Dashboard and Hecate):

==============================  ==========================================
metric                          meaning
==============================  ==========================================
``link:A->B:mbps``              achieved directed throughput, last interval
``link:A->B:util``              that throughput / configured link rate
``link:A->B:drops``             packets tail-dropped in the interval
``path:NAME:available_mbps``    bottleneck headroom along tunnel ``NAME``
                                (the series Hecate forecasts)
``path:NAME:latency_ms``        propagation + current-queue estimate
``path:NAME:util``              bottleneck-link utilization
==============================  ==========================================

Creating a tunnel implicitly arms its path probe (the Controller calls
:meth:`create_path_probe` from ``register_tunnel``), so Hecate can be
asked about a path the moment one sample exists: with fewer than
``HecateService.MIN_TRAIN_SAMPLES`` observations it falls back to the
latest raw measurement instead of a trained forecast — the cold-start
behaviour a freshly deployed controller needs.  Bus access
(``telemetry.get`` / ``telemetry.start``) exists so remote components
never touch the DB object directly, mirroring the paper's
service-over-message-queue layering.  ``telemetry.get`` accepts an
optional ``since`` cursor (returned by the previous reply) and then
serves only the samples appended since — the incremental read that
keeps the Controller's per-placement and per-reoptimization telemetry
pulls O(new samples) on long runs.
"""

from __future__ import annotations

from numbers import Integral
from typing import Dict, Optional, Sequence

from repro.bus import Message, MessageBus
from repro.net.telemetry import LinkTelemetryCollector, PathTelemetryProbe, TimeSeriesDB
from repro.net.topology import Network

__all__ = ["TelemetryService", "TELEMETRY_GET_TOPIC", "TELEMETRY_START_TOPIC"]

TELEMETRY_GET_TOPIC = "telemetry.get"
TELEMETRY_START_TOPIC = "telemetry.start"


class TelemetryService:
    def __init__(
        self,
        network: Network,
        bus: Optional[MessageBus] = None,
        interval: float = 1.0,
    ):
        self.network = network
        self.interval = interval
        self.db = TimeSeriesDB()
        self.link_collector = LinkTelemetryCollector(network, self.db, interval)
        self.path_probes: Dict[str, PathTelemetryProbe] = {}
        self.started = False
        if bus is not None:
            bus.subscribe(TELEMETRY_GET_TOPIC, self._on_get)
            bus.subscribe(TELEMETRY_START_TOPIC, self._on_start)

    # ------------------------------------------------------------ control

    def start(self, at: float = 0.0) -> "TelemetryService":
        """Fig. 4 startTelemetry: begin periodic link sampling."""
        if not self.started:
            self.link_collector.start(at)
            self.started = True
        return self

    def create_path_probe(self, name: str, path: Sequence[str], at: float = 0.0) -> None:
        """Fig. 4 createTelemetry: arm an agent on one named path."""
        if name in self.path_probes:
            return
        probe = PathTelemetryProbe(
            self.network, self.db, name, path, interval=self.interval
        )
        probe.start(at)
        self.path_probes[name] = probe

    def stop(self) -> None:
        self.link_collector.stop()
        for probe in self.path_probes.values():
            probe.stop()
        self.started = False

    # ------------------------------------------------------------- access

    def _on_get(self, message: Message):
        """``telemetry.get``: full history, or — when the payload carries
        a ``since`` cursor — only the samples appended after it (the
        incremental read the Controller's hot loop uses; resending the
        returned ``cursor`` next time keeps the reply O(new samples)
        instead of O(history))."""
        metric = message.payload.get("metric", "available_mbps")
        path = message.payload.get("path")
        if path is None:
            return {"ok": False, "error": "missing 'path'"}
        key = f"path:{path}:{metric}"
        since = message.payload.get("since")
        if since is None:
            t, v = self.db.series(key)
            cursor = self.db.count(key)
        else:
            if isinstance(since, bool) or not isinstance(since, Integral):
                return {
                    "ok": False,
                    "error": f"since must be an integer cursor, got {since!r}",
                }
            t, v, cursor = self.db.window_since(key, since)
        return {
            "ok": True,
            "path": path,
            "metric": metric,
            "cursor": cursor,
            "t": [float(x) for x in t],
            "values": [float(x) for x in v],
        }

    def _on_start(self, message: Message):
        path = message.payload.get("path")
        name = message.payload.get("name")
        if path and name:
            self.create_path_probe(name, path)
            return {"ok": True, "probe": name}
        self.start()
        return {"ok": True, "probe": None}
