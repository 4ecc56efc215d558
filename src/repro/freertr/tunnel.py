"""PolKA tunnels and policy-based routing on edge routers.

A tunnel pins an explicit router path ("``tunnel domain-name``" in the
Fig. 10 config); freeRtr converts that path into a PolKA routeID which the
ingress edge stamps on matching packets.  PBR binds an access-list to a
tunnel — and re-pointing one PBR entry is the *only* state change needed
to migrate traffic (the property Figs. 11-12 demonstrate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.packets import Packet
from repro.net.topology import Network
from repro.polka.routing import Route

from .acl import AccessList

__all__ = ["PolkaTunnel", "PbrEntry", "EdgePolicy"]

#: Decisions one edge policy remembers before it starts over.  A flow is
#: at most two keys at an edge (its data one way, its ACKs or echo
#: replies the other).  The busiest edge measured, one of
#: ``scale-fat-tree-2k`` on ``des`` with 266 access-lists installed,
#: holds 66 keys; an edge of the hybrid scale tier holds 6 to 13
#: (docs/PERFORMANCE.md, "What a packet hop costs").
DECISION_MEMO_SIZE = 1024

#: what the decision memo is keyed on: every packet field an
#: :class:`~repro.freertr.acl.AclRule` can read
_MemoKey = Tuple[str, int, str, str]


@dataclass
class PolkaTunnel:
    """A configured unidirectional PolKA tunnel.

    Attributes
    ----------
    tunnel_id:
        Numeric id (``interface tunnel3`` -> 3).
    path:
        Explicit router path, ingress edge first, egress edge last.
    route:
        Compiled PolKA route (routeID + moduli).
    """

    tunnel_id: int
    path: Tuple[str, ...]
    route: Route

    @property
    def ingress(self) -> str:
        return self.path[0]

    @property
    def egress(self) -> str:
        return self.path[-1]

    def describe(self) -> str:
        hops = " ".join(self.path)
        return (
            f"interface tunnel{self.tunnel_id}\n"
            f" tunnel domain-name {hops}\n"
            f" tunnel destination {self.egress}\n"
            f" tunnel mode polka (routeID=0b{self.route.route_id:b}, "
            f"{self.route.header_bits} bits)"
        )


@dataclass
class PbrEntry:
    """One policy-based-routing binding: ACL name -> tunnel id."""

    acl: str
    tunnel_id: int
    hits: int = 0


class EdgePolicy:
    """The PBR classifier installed on one edge router.

    Evaluates entries in order; the first whose access-list permits the
    packet selects the tunnel.  Exposed to the router as the
    ``classifier`` callable returning ``(route_id, egress)``.

    The scan runs once per distinct ``(protocol, tos, src_ip, dst_ip)``:
    its outcome — the matching :class:`PbrEntry`, or None — is kept in a
    bounded decision memo that every change to the access-lists or to
    the entry order drops.  Re-pointing an entry (:meth:`bind` on a
    bound access-list) changes no match, and the tunnel is read from the
    entry on every packet, so a migration invalidates nothing.
    """

    def __init__(self, router_name: str) -> None:
        self.router_name = router_name
        self.access_lists: Dict[str, AccessList] = {}
        self.tunnels: Dict[int, PolkaTunnel] = {}
        self.entries: List[PbrEntry] = []
        self.reconfigurations: int = 0
        self._decisions: Dict[_MemoKey, Optional[PbrEntry]] = {}

    # -------------------------------------------------------------- config

    def add_access_list(self, acl: AccessList) -> None:
        replaced = self.access_lists.get(acl.name)
        if replaced is not None:
            replaced.unwatch(self._decisions)
        self.access_lists[acl.name] = acl
        acl.watch(self._decisions)
        self._decisions.clear()

    def remove_access_list(self, name: str) -> None:
        """Delete an access-list that no PBR entry references.

        Requires the caller to :meth:`unbind` first — deleting an ACL
        out from under a live PBR entry would silently stop classifying
        its flow, so that is an error rather than a cascade."""
        if name not in self.access_lists:
            raise KeyError(f"unknown access-list {name!r}")
        if any(entry.acl == name for entry in self.entries):
            raise ValueError(
                f"access-list {name!r} is still referenced by a PBR entry; "
                "unbind it first"
            )
        self.access_lists.pop(name).unwatch(self._decisions)
        self._decisions.clear()
        self.reconfigurations += 1

    def add_tunnel(self, tunnel: PolkaTunnel) -> None:
        if tunnel.ingress != self.router_name:
            raise ValueError(
                f"tunnel {tunnel.tunnel_id} ingress {tunnel.ingress} is not "
                f"router {self.router_name}"
            )
        self.tunnels[tunnel.tunnel_id] = tunnel

    def bind(self, acl_name: str, tunnel_id: int) -> None:
        """Install (or re-point) the PBR entry for ``acl_name``.

        Re-pointing an existing entry is the paper's one-touch migration:
        a single PBR change at the ingress edge moves the flow.
        """
        if acl_name not in self.access_lists:
            raise KeyError(f"unknown access-list {acl_name!r}")
        if tunnel_id not in self.tunnels:
            raise KeyError(f"unknown tunnel {tunnel_id}")
        for entry in self.entries:
            if entry.acl == acl_name:
                if entry.tunnel_id != tunnel_id:
                    entry.tunnel_id = tunnel_id
                    self.reconfigurations += 1
                return
        self.entries.append(PbrEntry(acl=acl_name, tunnel_id=tunnel_id))
        self._decisions.clear()
        self.reconfigurations += 1

    def unbind(self, acl_name: str) -> None:
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.acl != acl_name]
        if len(self.entries) == before:
            raise KeyError(f"no PBR entry for access-list {acl_name!r}")
        self._decisions.clear()
        self.reconfigurations += 1

    def binding_of(self, acl_name: str) -> Optional[int]:
        for entry in self.entries:
            if entry.acl == acl_name:
                return entry.tunnel_id
        return None

    # ------------------------------------------------------------ classify

    def _first_match(self, packet: Packet) -> Optional[PbrEntry]:
        for entry in self.entries:
            acl = self.access_lists.get(entry.acl)
            if acl is not None and acl.permits(packet):
                return entry
        return None

    def classify(self, packet: Packet) -> Optional[Tuple[int, str]]:
        key = (packet.protocol, packet.tos, packet.src_ip, packet.dst_ip)
        decisions = self._decisions
        try:
            entry = decisions[key]
        except KeyError:
            entry = self._first_match(packet)
            if len(decisions) >= DECISION_MEMO_SIZE:
                decisions.clear()
            decisions[key] = entry
        if entry is None:
            return None
        entry.hits += 1
        tunnel = self.tunnels[entry.tunnel_id]
        return tunnel.route.route_id, tunnel.egress

    def install_on(self, network: Network) -> None:
        """Attach this policy as the router's classifier."""
        network.routers[self.router_name].classifier = self.classify

    def describe(self) -> str:
        lines = [f"! edge policy on {self.router_name}"]
        for acl in self.access_lists.values():
            lines.append(acl.describe())
        for tunnel in sorted(self.tunnels.values(), key=lambda t: t.tunnel_id):
            lines.append(tunnel.describe())
        for entry in self.entries:
            lines.append(f"pbr match {entry.acl} set tunnel {entry.tunnel_id}")
        return "\n".join(lines)
