"""PolKA source routing: node identifiers, routeIDs and stateless forwarding.

The controller assigns each core node an irreducible polynomial ``nodeID``
and numbers each node's ports; a path is compiled into a single ``routeID``
via the polynomial CRT (:mod:`repro.polka.crt`).  A core node forwards by
computing ``routeID mod nodeID`` — no per-flow or per-route state, and the
header is never rewritten in flight.  A conventional port-switching source
route (the baseline PolKA is compared against in Sec. II.B of the paper) is
provided for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import gf2
from .crt import crt as _crt_solve
from .crt import pairwise_coprime

__all__ = [
    "PolkaNode",
    "Route",
    "PortSwitchingRoute",
    "PolkaDomain",
    "assign_node_ids",
]


#: ``gf2.mod`` behind a bounded memo, for :meth:`PolkaNode.forward`: a
#: simulated packet stream asks for the same few (routeID, nodeID)
#: residues millions of times (208 distinct pairs in 919 902 calls on
#: ``scale-fat-tree-2k`` under ``des``, the most measured).  The
#: remainder is a pure function of two ints, so remembering it on the
#: host changes nothing about the modelled switch, which still keeps no
#: per-route state.
_residue = lru_cache(maxsize=4096)(gf2.mod)


def assign_node_ids(names: Sequence[str], max_port: int) -> Dict[str, int]:
    """Assign distinct irreducible polynomial IDs to ``names``.

    The residue at a node is the output-port polynomial, so the node ID's
    degree must exceed the bit-length of the largest port number:
    ``deg(nodeID) > deg(port)`` i.e. ``2**deg(nodeID) > max_port``.

    Distinct irreducibles are pairwise coprime, satisfying the CRT
    precondition by construction.
    """
    if max_port < 0:
        raise ValueError("max_port must be non-negative")
    min_degree = max(1, int(max_port).bit_length())
    polys = gf2.first_irreducibles(len(names), min_degree=min_degree)
    return dict(zip(names, polys))


@dataclass(frozen=True)
class PolkaNode:
    """A PolKA core node: an irreducible ``node_id`` plus numbered ports.

    ``ports`` maps a neighbour name to the local output-port number; the
    port's polynomial representation is simply its number (bit ``i`` of the
    port number is the coefficient of ``t^i``), matching the paper's
    examples where port label 2 corresponds to the polynomial ``t``.
    """

    name: str
    node_id: int
    ports: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not gf2.is_irreducible(self.node_id):
            raise ValueError(
                f"node {self.name}: id {gf2.poly_to_str(self.node_id)} is not irreducible"
            )
        limit = 1 << gf2.deg(self.node_id)
        for neighbour, port in self.ports.items():
            if not 0 <= port < limit:
                raise ValueError(
                    f"node {self.name}: port {port} towards {neighbour} does not fit "
                    f"node id of degree {gf2.deg(self.node_id)} (max {limit - 1})"
                )

    def port_to(self, neighbour: str) -> int:
        try:
            return self.ports[neighbour]
        except KeyError:
            raise KeyError(f"node {self.name} has no port towards {neighbour}") from None

    def forward(self, route_id: int) -> int:
        """Data-plane op: output port = ``route_id mod node_id``.

        One polynomial remainder — the operation P4 hardware implements by
        reusing its CRC engine.
        """
        return _residue(route_id, self.node_id)


@dataclass(frozen=True)
class Route:
    """A compiled PolKA route.

    Attributes
    ----------
    path:
        Node names edge-to-edge, e.g. ``("MIA", "SAO", "AMS")``.  The first
        and last entries are edge nodes; ``core`` nodes between them forward
        by residue.
    route_id:
        The CRT-combined polynomial carried in the packet header.
    moduli:
        The core-node IDs the routeID was built against (for verification).
    """

    path: Tuple[str, ...]
    route_id: int
    moduli: Tuple[int, ...]

    @property
    def header_bits(self) -> int:
        """Bits needed to carry the routeID (PolKA's header cost metric)."""
        return max(1, self.route_id.bit_length())

    def __len__(self) -> int:
        return len(self.path)


@dataclass
class PortSwitchingRoute:
    """Baseline source route: an explicit list of output ports.

    Each hop pops the head of the list, *rewriting the header in flight*
    (the cost PolKA eliminates).  ``rewrites`` counts those mutations so the
    ablation bench can report header-rewrites-per-packet: PolKA = 0,
    port switching = path length.
    """

    ports: List[int]
    rewrites: int = 0

    @property
    def header_bits(self) -> int:
        return sum(max(1, p.bit_length()) for p in self.ports)

    def forward(self) -> int:
        """Pop and return the next output port (mutates the header)."""
        if not self.ports:
            raise IndexError("port-switching route exhausted")
        self.rewrites += 1
        return self.ports.pop(0)


class PolkaDomain:
    """Controller-side view of a PolKA routing domain.

    Owns the node-ID assignment for a set of core nodes and compiles paths
    into :class:`Route` objects.  ``adjacency`` maps each node name to its
    ``{neighbour: port_number}`` table; edge nodes that only originate or
    terminate tunnels may appear solely as neighbours.
    """

    def __init__(
        self,
        adjacency: Mapping[str, Mapping[str, int]],
        node_ids: Optional[Mapping[str, int]] = None,
    ) -> None:
        self._adjacency: Dict[str, Dict[str, int]] = {
            name: dict(ports) for name, ports in adjacency.items()
        }
        max_port = 0
        for ports in self._adjacency.values():
            if ports:
                max_port = max(max_port, max(ports.values()))
        if node_ids is None:
            node_ids = assign_node_ids(sorted(self._adjacency), max_port)
        ids = dict(node_ids)
        if not pairwise_coprime(list(ids.values())):
            raise ValueError("PolKA node IDs must be pairwise coprime")
        self.nodes: Dict[str, PolkaNode] = {
            name: PolkaNode(name=name, node_id=ids[name], ports=self._adjacency[name])
            for name in self._adjacency
        }

    def node(self, name: str) -> PolkaNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"unknown PolKA node {name!r}") from None

    def route_for_path(self, path: Sequence[str]) -> Route:
        """Compile a node path into a PolKA :class:`Route`.

        Raises ``KeyError`` if a hop is unknown or unconnected and
        ``ValueError`` for degenerate paths.
        """
        if len(path) < 2:
            raise ValueError(f"path {path!r} is too short to route")
        residues: List[int] = []
        moduli: List[int] = []
        for here, nxt in zip(path[:-1], path[1:]):
            node = self.node(here)
            residues.append(node.port_to(nxt))
            moduli.append(node.node_id)
        route_id, _ = _crt_solve(residues, moduli)
        return Route(path=tuple(path), route_id=route_id, moduli=tuple(moduli))

    def port_switching_route(self, path: Sequence[str]) -> PortSwitchingRoute:
        """Compile the same path as a pop-per-hop port list (baseline)."""
        if len(path) < 2:
            raise ValueError(f"path {path!r} is too short to route")
        ports = [self.node(h).port_to(n) for h, n in zip(path[:-1], path[1:])]
        return PortSwitchingRoute(ports=ports)

    def walk(self, route: Route) -> List[Tuple[str, int]]:
        """Replay a route hop-by-hop, returning ``(node, port)`` decisions.

        This is the data-plane simulation: each node computes its own mod of
        the *unchanged* routeID.  Used heavily by tests to prove that the
        compiled routeID reproduces the intended path.
        """
        decisions = []
        for here, nxt in zip(route.path[:-1], route.path[1:]):
            node = self.node(here)
            port = node.forward(route.route_id)
            decisions.append((here, port))
            if port != node.port_to(nxt):
                raise AssertionError(
                    f"routeID walk diverged at {here}: got port {port}, "
                    f"expected {node.port_to(nxt)} towards {nxt}"
                )
        return decisions
