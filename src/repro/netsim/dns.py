"""Domain Naming System: zone database and server.

The paper's DNS Explorer Module "retrieves the set of all
address-to-name mappings from a domain, using zone transfers ...
descending recursively into the DNS tree starting from a specific
point".  This module provides the tree: a :class:`ZoneDatabase` holding
forward (name-to-address) and reverse (address-to-name) zones, and a
:class:`DnsServer` that answers A/PTR/NS/SOA/AXFR queries over the
simulated UDP transport.  Zone transfers stream in chunks terminated by
the SOA record, so the explorer's traffic pattern (the "10 pkts/sec"
network load of Table 4) is reproduced.

Crucially for Fremont's evaluation, the DNS is *not necessarily
current*: stale entries (hosts that left the network) and unregistered
hosts are both representable, and WKS/HINFO records are mostly absent,
as the paper observes of real deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .addresses import Ipv4Address
from .node import Node
from .packet import (
    DnsMessage,
    DnsOp,
    DnsQuestion,
    DnsRecordType,
    DnsResourceRecord,
    DNS_PORT,
    Ipv4Packet,
    UdpDatagram,
)

__all__ = ["ZoneDatabase", "DnsServer", "reverse_name", "reverse_zone_for_network"]

#: Records per AXFR response chunk (controls transfer packet count).
AXFR_CHUNK_SIZE = 20


def reverse_name(ip: Ipv4Address) -> str:
    """The in-addr.arpa PTR owner name for an address."""
    octets = ip.octets
    return f"{octets[3]}.{octets[2]}.{octets[1]}.{octets[0]}.in-addr.arpa"


def reverse_zone_for_network(network: Ipv4Address, prefix: int) -> str:
    """The reverse zone apex covering *network* at byte-aligned *prefix*."""
    if prefix not in (8, 16, 24):
        raise ValueError(f"reverse zones are byte aligned, got /{prefix}")
    octets = network.octets
    labels = [str(octets[index]) for index in range(prefix // 8)]
    return ".".join(reversed(labels)) + ".in-addr.arpa"


def _zone_labels(zone: str):
    """The in-addr.arpa labels of *zone*, most significant octet first,
    or None if the name is not a reverse zone."""
    if not zone.endswith(".in-addr.arpa"):
        return None
    labels = zone[: -len(".in-addr.arpa")].split(".")
    if not all(label.isdigit() for label in labels):
        return None
    return list(reversed(labels))


@dataclass
class ZoneDatabase:
    """All DNS data for one administrative domain.

    ``add_host`` registers both the forward A record and the reverse PTR
    record.  Gateways get one A record per interface under the same name
    (the multi-A heuristic), and often additional per-interface names
    with a ``-gw`` style suffix (the naming-convention heuristic).
    """

    domain: str = "cs.colorado.edu"
    nameserver: str = "ns.cs.colorado.edu"
    forward: Dict[str, List[Ipv4Address]] = field(default_factory=dict)
    reverse: Dict[Ipv4Address, List[str]] = field(default_factory=dict)
    hinfo: Dict[str, str] = field(default_factory=dict)
    wks: Dict[str, str] = field(default_factory=dict)

    def add_host(self, name: str, ip: Ipv4Address, *, ptr: bool = True) -> None:
        self.forward.setdefault(name, [])
        if ip not in self.forward[name]:
            self.forward[name].append(ip)
        if ptr:
            self.reverse.setdefault(ip, [])
            if name not in self.reverse[ip]:
                self.reverse[ip].append(name)

    def remove_host(self, name: str) -> None:
        addresses = self.forward.pop(name, [])
        for ip in addresses:
            names = self.reverse.get(ip, [])
            if name in names:
                names.remove(name)
            if not names:
                self.reverse.pop(ip, None)

    def names_for(self, ip: Ipv4Address) -> List[str]:
        return list(self.reverse.get(ip, []))

    def addresses_for(self, name: str) -> List[Ipv4Address]:
        return list(self.forward.get(name, []))

    # ------------------------------------------------------------------
    # Zone construction
    # ------------------------------------------------------------------

    def _child_octets_with_data(self, prefix_octets: List[int]) -> List[int]:
        """Octets of the next label down holding any reverse data."""
        depth = len(prefix_octets)
        children: Set[int] = set()
        for ip in self.reverse:
            octets = ip.octets
            if list(octets[:depth]) == prefix_octets:
                children.add(octets[depth])
        return sorted(children)

    def soa_record(self, zone: str) -> DnsResourceRecord:
        return DnsResourceRecord(name=zone, rtype=DnsRecordType.SOA, rdata=self.nameserver)

    def zone_records(self, zone: str) -> Optional[List[DnsResourceRecord]]:
        """Full AXFR contents for *zone* (without the terminating SOA).

        Returns None when this database is not authoritative for *zone*.
        Reverse /16 apexes hold NS delegations for their /24 children;
        reverse /24 zones hold PTR records; the forward zone holds A (and
        sparse HINFO/WKS) records.
        """
        if zone == self.domain:
            records = []
            for name in sorted(self.forward):
                for ip in self.forward[name]:
                    records.append(
                        DnsResourceRecord(name=name, rtype=DnsRecordType.A, rdata=str(ip))
                    )
                if name in self.hinfo:
                    records.append(
                        DnsResourceRecord(
                            name=name, rtype=DnsRecordType.HINFO, rdata=self.hinfo[name]
                        )
                    )
                if name in self.wks:
                    records.append(
                        DnsResourceRecord(
                            name=name, rtype=DnsRecordType.WKS, rdata=self.wks[name]
                        )
                    )
            return records
        octet_labels = _zone_labels(zone)
        if octet_labels is None:
            return None
        prefix_octets = [int(label) for label in octet_labels]
        if len(prefix_octets) in (1, 2):
            # /8 or /16 apex: NS delegations to the children with data.
            records = []
            for octet in self._child_octets_with_data(prefix_octets):
                child = f"{octet}.{zone}"
                records.append(
                    DnsResourceRecord(
                        name=child, rtype=DnsRecordType.NS, rdata=self.nameserver
                    )
                )
            return records
        if len(prefix_octets) == 3:  # /24 zone: PTR data
            records = []
            for ip in sorted(self.reverse):
                if list(ip.octets[:3]) == prefix_octets:
                    for name in self.reverse[ip]:
                        records.append(
                            DnsResourceRecord(
                                name=reverse_name(ip), rtype=DnsRecordType.PTR, rdata=name
                            )
                        )
            return records
        return None

    def answer(self, question: DnsQuestion) -> Tuple[List[DnsResourceRecord], str]:
        """(answers, rcode) for a single non-AXFR query."""
        if question.rtype is DnsRecordType.A:
            addresses = self.forward.get(question.name)
            if not addresses:
                return [], "NXDOMAIN"
            return (
                [
                    DnsResourceRecord(name=question.name, rtype=DnsRecordType.A, rdata=str(ip))
                    for ip in addresses
                ],
                "NOERROR",
            )
        if question.rtype is DnsRecordType.PTR:
            for ip, names in self.reverse.items():
                if reverse_name(ip) == question.name:
                    return (
                        [
                            DnsResourceRecord(
                                name=question.name, rtype=DnsRecordType.PTR, rdata=name
                            )
                            for name in names
                        ],
                        "NOERROR",
                    )
            return [], "NXDOMAIN"
        if question.rtype is DnsRecordType.SOA:
            if self.zone_records(question.name) is not None:
                return [self.soa_record(question.name)], "NOERROR"
            return [], "NXDOMAIN"
        if question.rtype is DnsRecordType.NS:
            records = self.zone_records(question.name)
            if records is None:
                return [], "NXDOMAIN"
            return [r for r in records if r.rtype is DnsRecordType.NS], "NOERROR"
        return [], "NOTIMP"


class DnsServer:
    """A name server bound to a host's UDP port 53.

    AXFR responses stream in chunks of :data:`AXFR_CHUNK_SIZE` records,
    one packet per chunk with a small inter-chunk delay, ending with the
    zone's SOA record (as real zone transfers do).
    """

    #: seconds between AXFR chunks (drives the Table 4 DNS load figure)
    CHUNK_INTERVAL = 0.1

    def __init__(self, node: Node, database: ZoneDatabase) -> None:
        self.node = node
        self.database = database
        self.queries_answered = 0
        self.transfers_served = 0
        node.register_udp_service(DNS_PORT, self._serve)

    def _send_response(
        self,
        client: Ipv4Address,
        client_port: int,
        message: DnsMessage,
    ) -> None:
        self.node.send_udp(client, client_port, payload=message, src_port=DNS_PORT)

    def _serve(self, node: Node, nic, packet: Ipv4Packet, udp: UdpDatagram) -> None:
        query = udp.payload
        if not isinstance(query, DnsMessage) or query.op is not DnsOp.QUERY:
            return
        self.queries_answered += 1
        question = query.question
        if question.rtype is DnsRecordType.AXFR:
            self._serve_axfr(packet.src, udp.src_port, question)
            return
        answers, rcode = self.database.answer(question)
        self._send_response(
            packet.src,
            udp.src_port,
            DnsMessage(
                op=DnsOp.RESPONSE,
                question=question,
                answers=tuple(answers),
                authoritative=True,
                rcode=rcode,
            ),
        )

    def _serve_axfr(self, client: Ipv4Address, client_port: int, question: DnsQuestion) -> None:
        records = self.database.zone_records(question.name)
        if records is None:
            self._send_response(
                client,
                client_port,
                DnsMessage(op=DnsOp.RESPONSE, question=question, rcode="REFUSED"),
            )
            return
        self.transfers_served += 1
        # Stream chunks; the terminating SOA goes in the final chunk.
        full = list(records) + [self.database.soa_record(question.name)]
        chunks = [
            full[start : start + AXFR_CHUNK_SIZE]
            for start in range(0, len(full), AXFR_CHUNK_SIZE)
        ]

        def send_chunk(index: int) -> None:
            self._send_response(
                client,
                client_port,
                DnsMessage(
                    op=DnsOp.RESPONSE,
                    question=question,
                    answers=tuple(chunks[index]),
                    authoritative=True,
                ),
            )
            if index + 1 < len(chunks):
                self.node.sim.schedule(
                    self.CHUNK_INTERVAL, lambda: send_chunk(index + 1)
                )

        send_chunk(0)
