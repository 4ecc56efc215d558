"""PolKA: Polynomial Key-based Architecture for source routing.

Reimplementation of the source-routing substrate the paper integrates with
Hecate.  Node identifiers are irreducible polynomials over GF(2); a path is
compiled (via the polynomial Chinese Remainder Theorem) into a single
``routeID`` carried unmodified in the packet header, and each core node
derives its output port with one polynomial ``mod`` — the operation P4
switches execute on their CRC engines.

Public API
----------
- :mod:`repro.polka.gf2` — GF(2)[t] arithmetic (ints as bit-vectors).
- :func:`repro.polka.crt.crt` — polynomial CRT.
- :class:`repro.polka.routing.PolkaDomain` — node-ID assignment + route
  compilation + stateless forwarding walk.
- :class:`repro.polka.routing.PortSwitchingRoute` — pop-per-hop baseline.
"""

from . import gf2
from .crt import crt, pairwise_coprime, verify_crt
from .routing import PolkaDomain, PolkaNode, PortSwitchingRoute, Route, assign_node_ids

__all__ = [
    "gf2",
    "crt",
    "pairwise_coprime",
    "verify_crt",
    "PolkaDomain",
    "PolkaNode",
    "PortSwitchingRoute",
    "Route",
    "assign_node_ids",
]
