"""Traffic Watch Explorer Module (paper future work, implemented).

"A 'promiscuous' mode network traffic monitor would be able to discover
all communicating machines in a network.  We will use this to extend
our system into the discovery of network services."

TrafficWatch opens the NIT in promiscuous mode and decodes *every* IP
frame on the attached segment (where ARPwatch only parses ARP).  It
discovers:

* communicating interfaces (MAC + IP from frame headers, so even hosts
  whose ARP exchanges happened before the watch began),
* network services: a host that *answers* from a well-known UDP port is
  offering that service (the paper's point that service reality lives
  in traffic, not in stale DNS WKS records).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ...netsim.addresses import Ipv4Address, MacAddress, vendor_for_mac
from ...netsim.nic import Nic
from ...netsim.packet import (
    DNS_PORT,
    EthernetFrame,
    Ipv4Packet,
    RIP_PORT,
    UDP_ECHO_PORT,
    UdpDatagram,
)
from ..records import Observation
from .base import PassiveExplorerModule, RunResult

__all__ = ["TrafficWatch", "WELL_KNOWN_SERVICES"]

#: UDP ports treated as service identities when seen as a *source* port
WELL_KNOWN_SERVICES = {
    UDP_ECHO_PORT: "echo",
    DNS_PORT: "domain",
    RIP_PORT: "rip",
    161: "agent",
    1997: "gdp",
    2049: "nfs",
}


class TrafficWatch(PassiveExplorerModule):
    """Promiscuous traffic monitor with service discovery."""

    name = "TrafficWatch"
    source = "NIT"
    inputs = "none"
    outputs = "Communicating intfs.; services per host"

    def __init__(self, node, journal, *, nic: Optional[Nic] = None) -> None:
        super().__init__(node, journal, nic=nic)
        #: ip -> mac for frames sourced on this wire
        self._talkers: Dict[Ipv4Address, MacAddress] = {}
        #: (ip, service name) pairs observed answering
        self.services: Set[Tuple[Ipv4Address, str]] = set()
        self.frames_decoded = 0

    def _reset(self) -> None:
        self._talkers.clear()
        self.services.clear()

    def _report(self, result: RunResult) -> None:
        local = self.nic.subnet
        for ip, mac in sorted(self._talkers.items()):
            # Frames from beyond the gateway carry the gateway's MAC;
            # only bind MAC to IP for addresses on this wire.
            observation = Observation(
                source=self.name,
                ip=str(ip),
                mac=str(mac) if ip in local else None,
                vendor=vendor_for_mac(mac) if ip in local else None,
            )
            self.report(result, observation)
        result.discovered["interfaces"] = len(self._talkers)
        result.discovered["services"] = len(self.services)
        result.discovered["service_hosts"] = len({ip for ip, _s in self.services})

    def _on_frame(self, frame: EthernetFrame, now: float) -> None:
        if not isinstance(frame.payload, Ipv4Packet):
            return
        self.frames_decoded += 1
        packet = frame.payload
        self._talkers[packet.src] = frame.src_mac
        payload = packet.payload
        if isinstance(payload, UdpDatagram):
            service = WELL_KNOWN_SERVICES.get(payload.src_port)
            if service is not None:
                # Answering *from* a well-known port: the service runs.
                self.services.add((packet.src, service))

    def service_table(self) -> Dict[str, list]:
        """Service name -> sorted offering addresses (inquiry helper)."""
        table: Dict[str, list] = {}
        for ip, service in sorted(self.services):
            table.setdefault(service, []).append(str(ip))
        return table
