"""Event-level pins for the packet path.

``data/packet_path_pins.json`` was captured at the commit *before* the
packet fast path (one event loop, no per-packet closures, the PBR
decision memo and the PolKA residue memo) touched ``net/sim.py``,
``net/links.py``, ``net/devices.py``, ``freertr/tunnel.py`` and
``polka/routing.py``.  The scenario-level pins compare a
``ScenarioResult``; these compare what the result is computed *from*,
so a reordered event or a misrouted packet shows even where the
aggregates happen to agree.  Per cell:

- ``events``: ``Simulator.events_processed``;
- ``rx_log``: per host, the sha256 of its ``rx_log`` — every delivery's
  event time as ``float.hex()``, the flow (app flow ids are a
  process-wide counter, so they are rebased to the run's first app) and
  the size;
- ``links``: every ``LinkStats`` field of both directions of every
  link;
- ``routers``: every ``RouterStats`` field of every router;
- ``pbr``: ``[acl, tunnel_id, hits]`` of every ``PbrEntry``, in order,
  on every edge policy.

The four cells: ``fig11-latency-migration`` (ICMP and the egress-edge
``icmp-reply``), ``fig12-flow-aggregation`` (TCP with ACKs, tail drops
and two re-pointing migrations) and ``qoe-mixed-steady`` (five
classified flows over two tunnels) on ``des``, and ``scale-qoe-mix-2k``
on ``hybrid`` (24 PBR entries on a fat tree, background load, drops).

Everything is compared with ``==``.  To re-capture after an intentional
change: ``PYTHONPATH=src python tests/net/test_packet_path_pins.py >
tests/net/data/packet_path_pins.json`` — it captures under
``PYTHONHASHSEED`` 0 and 4242 and refuses to print unless both agree —
and say why in the commit.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import ScenarioRunner, get_scenario

PIN_FILE = Path(__file__).parent / "data" / "packet_path_pins.json"

#: (scenario, backend, horizon, warmup)
CELLS = (
    ("fig11-latency-migration", "des", 20.0, 2.0),
    ("fig12-flow-aggregation", "des", 8.0, 32.0),
    ("qoe-mixed-steady", "des", 6.0, 2.0),
    ("scale-qoe-mix-2k", "hybrid", 2.0, 1.0),
)
HASH_SEEDS = ("0", "4242")


def _rx_digest(rx_log, base):
    blob = ";".join(
        f"{t.hex()},{flow_id - base},{size}" for t, flow_id, size in rx_log
    )
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def packet_path_pin(name, backend, horizon, warmup):
    scenario = get_scenario(name).quick(horizon=horizon, warmup=warmup)
    runner = ScenarioRunner(scenario, backend=backend)
    runner.run()
    network, sdn = runner.network, runner.sdn
    base = min(
        record.app.flow_id for record in sdn.controller.flows.values()
    )
    links = {}
    for link in network.links.values():
        for node in link.endpoints():
            key = f"{node.name}>{link.other(node).name}"
            links[key] = dataclasses.asdict(link.stats_from(node))
    return {
        "events": network.sim.events_processed,
        "rx_log": {
            host: _rx_digest(node.rx_log, base)
            for host, node in sorted(network.hosts.items())
        },
        "links": dict(sorted(links.items())),
        "routers": {
            router: dataclasses.asdict(node.stats)
            for router, node in sorted(network.routers.items())
        },
        "pbr": {
            router: [[e.acl, e.tunnel_id, e.hits] for e in policy.entries]
            for router, policy in sorted(sdn.router_config.policies.items())
        },
    }


def capture():
    return {f"{cell[0]}[{cell[1]}]": packet_path_pin(*cell) for cell in CELLS}


def _pins():
    return json.loads(PIN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}[{c[1]}]")
def test_packet_path_is_event_identical(cell):
    assert packet_path_pin(*cell) == _pins()[f"{cell[0]}[{cell[1]}]"]


def test_pins_exercise_what_they_name():
    """The cells really carry deliveries, drops, re-pointed entries,
    PolKA hops and hits on more than one PBR entry."""
    pins = _pins()
    assert set(pins) == {f"{c[0]}[{c[1]}]" for c in CELLS}
    for pin in pins.values():
        assert pin["events"] > 0
        assert sum(r["polka_forwarded"] for r in pin["routers"].values()) > 0
        assert sum(r["decapsulated"] for r in pin["routers"].values()) > 0
    fig12 = pins["fig12-flow-aggregation[des]"]
    assert sum(s["dropped_packets"] for s in fig12["links"].values()) > 0
    assert len({tid for _, tid, _ in fig12["pbr"]["MIA"]}) == 3  # migrated
    scale = pins["scale-qoe-mix-2k[hybrid]"]
    assert sum(s["dropped_packets"] for s in scale["links"].values()) > 0
    hit = [e for entries in scale["pbr"].values() for e in entries if e[2]]
    assert len(hit) >= 20


if __name__ == "__main__":
    if "--one" in sys.argv:
        print(json.dumps(capture(), indent=1, sort_keys=True))
        sys.exit(0)
    captures = [
        subprocess.run(
            [sys.executable, __file__, "--one"],
            env={**os.environ, "PYTHONHASHSEED": seed},
            check=True, capture_output=True, text=True,
        ).stdout
        for seed in HASH_SEEDS
    ]
    if len(set(captures)) != 1:
        sys.exit(f"captures differ between PYTHONHASHSEED {HASH_SEEDS}")
    sys.stdout.write(captures[0])
