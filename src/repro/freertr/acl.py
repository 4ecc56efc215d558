"""freeRtr-style access lists with from-scratch IPv4 prefix matching.

The Fig. 10 configuration filters flows by source network, destination
host, IP protocol number and ToS byte::

    access-list flow3
     permit 6 40.40.1.0 255.255.255.0 40.40.2.2 255.255.255.255 tos 64

Protocol 6 is TCP (1 = ICMP, 17 = UDP).  A packet is steered by the first
matching rule; an access list with no matching rule denies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.net.packets import Packet

__all__ = [
    "ip_to_int",
    "mask_to_prefix_len",
    "parse_prefix",
    "AclRule",
    "AccessList",
    "PROTO_NUMBERS",
]

PROTO_NUMBERS = {"icmp": 1, "tcp": 6, "udp": 17}
_PROTO_NAMES = {v: k for k, v in PROTO_NUMBERS.items()}


def ip_to_int(ip: str) -> int:
    """Parse dotted-quad IPv4 into a 32-bit integer (strict)."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {ip!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"invalid IPv4 address {ip!r}")
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid IPv4 octet in {ip!r}")
        value = (value << 8) | octet
    return value


def mask_to_prefix_len(mask: str) -> int:
    """Dotted-quad netmask -> prefix length; rejects non-contiguous masks."""
    value = ip_to_int(mask)
    # a valid mask is all-ones followed by all-zeros
    inverted = (~value) & 0xFFFFFFFF
    if inverted & (inverted + 1):
        raise ValueError(f"non-contiguous netmask {mask!r}")
    return 32 - inverted.bit_length()


def parse_prefix(text: str) -> tuple:
    """Parse ``"40.40.1.0/24"`` or a bare address into (network, length)."""
    if "/" in text:
        addr, _, length = text.partition("/")
        prefix_len = int(length)
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"invalid prefix length in {text!r}")
    else:
        addr, prefix_len = text, 32
    network = ip_to_int(addr)
    mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF if prefix_len else 0
    return network & mask, prefix_len


def _prefix_contains(network: int, prefix_len: int, ip: int) -> bool:
    if prefix_len == 0:
        return True
    mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
    return (ip & mask) == network


@dataclass(frozen=True)
class AclRule:
    """One permit rule: protocol, source prefix, destination prefix, ToS.

    ``protocol=None`` matches any protocol; ``tos=None`` matches any ToS.
    """

    src_network: int
    src_prefix_len: int
    dst_network: int
    dst_prefix_len: int
    protocol: Optional[int] = None
    tos: Optional[int] = None

    @classmethod
    def parse(cls, tokens: Sequence[str]) -> "AclRule":
        """Parse Fig. 10's token layout:

        ``permit <proto> <src> <srcmask> <dst> <dstmask> [tos <value>]``
        where proto is a number or name, or ``any``.
        """
        tokens = list(tokens)
        if not tokens or tokens[0] != "permit":
            raise ValueError(f"ACL rule must start with 'permit': {tokens!r}")
        tokens = tokens[1:]
        if len(tokens) < 5:
            raise ValueError(f"truncated ACL rule: {tokens!r}")
        proto_tok = tokens[0].lower()
        if proto_tok == "any":
            protocol = None
        elif proto_tok in PROTO_NUMBERS:
            protocol = PROTO_NUMBERS[proto_tok]
        else:
            protocol = int(proto_tok)
        src_net, src_len = parse_prefix(tokens[1])
        src_len_from_mask = mask_to_prefix_len(tokens[2])
        dst_net, dst_len = parse_prefix(tokens[3])
        dst_len_from_mask = mask_to_prefix_len(tokens[4])
        tos = None
        rest = tokens[5:]
        if rest:
            if len(rest) != 2 or rest[0].lower() != "tos":
                raise ValueError(f"unexpected ACL suffix: {rest!r}")
            tos = int(rest[1])
        return cls(
            src_network=src_net,
            src_prefix_len=src_len_from_mask if "/" not in tokens[1] else src_len,
            dst_network=dst_net,
            dst_prefix_len=dst_len_from_mask if "/" not in tokens[3] else dst_len,
            protocol=protocol,
            tos=tos,
        )

    def matches(self, packet: Packet) -> bool:
        if self.protocol is not None:
            proto = packet.protocol
            # echo replies count as ICMP for classification purposes
            if proto == "icmp-reply":
                proto = "icmp"
            if PROTO_NUMBERS.get(proto) != self.protocol:
                return False
        if self.tos is not None and packet.tos != self.tos:
            return False
        try:
            src = ip_to_int(packet.src_ip)
            dst = ip_to_int(packet.dst_ip)
        except ValueError:
            return False  # packets without IPs never match IP ACLs
        return _prefix_contains(
            self.src_network, self.src_prefix_len, src
        ) and _prefix_contains(self.dst_network, self.dst_prefix_len, dst)

    def describe(self) -> str:
        proto = "any" if self.protocol is None else _PROTO_NAMES.get(
            self.protocol, str(self.protocol)
        )
        tos = "" if self.tos is None else f" tos {self.tos}"
        return (
            f"permit {proto} "
            f"{_int_to_ip(self.src_network)}/{self.src_prefix_len} -> "
            f"{_int_to_ip(self.dst_network)}/{self.dst_prefix_len}{tos}"
        )


def _int_to_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class AccessList:
    """Named, ordered collection of permit rules (first match wins)."""

    def __init__(self, name: str, rules: Optional[List[AclRule]] = None):
        self.name = name
        self.rules: List[AclRule] = list(rules or [])
        self._memos: Tuple[Dict[Any, Any], ...] = ()

    def add(self, rule: AclRule) -> None:
        self.rules.append(rule)
        for memo in self._memos:
            memo.clear()

    def watch(self, memo: Dict[Any, Any]) -> None:
        """Empty ``memo`` after every rule added from now on (once per
        memo, however often it is registered).  An edge policy that
        installs this list keeps its classification decisions in such a
        dict; this is how they are dropped when they go stale."""
        for known in self._memos:
            if known is memo:
                return
        self._memos += (memo,)

    def unwatch(self, memo: Dict[Any, Any]) -> None:
        """Stop emptying ``memo``: its policy uninstalled this list."""
        kept = [known for known in self._memos if known is not memo]
        self._memos = tuple(kept)

    def permits(self, packet: Packet) -> bool:
        return any(rule.matches(packet) for rule in self.rules)

    def describe(self) -> str:
        lines = [f"access-list {self.name}"]
        lines += [f" {rule.describe()}" for rule in self.rules]
        return "\n".join(lines)
