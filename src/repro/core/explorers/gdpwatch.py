"""GDP Watch Explorer Module (paper future work, implemented).

Passively listens for Cisco Gateway Discovery Protocol announcements on
the attached subnet.  Where deployed, GDP hands Fremont a gateway
interface "for free" — no probing, no community strings — which is why
the paper wanted it "to help fill in some of Fremont's discovery gaps".
"""

from __future__ import annotations

from typing import Dict, Optional

from ...netsim.addresses import Ipv4Address, vendor_for_mac
from ...netsim.gdp import GDP_PORT
from ...netsim.nic import Nic
from ...netsim.packet import EthernetFrame, Ipv4Packet, UdpDatagram
from ..records import Observation
from .base import PassiveExplorerModule, RunResult

__all__ = ["GdpWatch"]


class GdpWatch(PassiveExplorerModule):
    """Passive GDP announcement monitor on one attached segment."""

    name = "GDPwatch"
    source = "GDP"
    inputs = "none"
    outputs = "Gateway interfaces (with priority)"

    def __init__(self, node, journal, *, nic: Optional[Nic] = None) -> None:
        super().__init__(node, journal, nic=nic)
        #: gateway ip -> (mac, priority)
        self._gateways: Dict[Ipv4Address, tuple] = {}

    def _reset(self) -> None:
        self._gateways.clear()

    def _report(self, result: RunResult) -> None:
        for ip, (mac, _priority) in sorted(self._gateways.items()):
            record = self.report_resolved(
                result,
                Observation(
                    source=self.name,
                    ip=str(ip),
                    mac=str(mac),
                    vendor=vendor_for_mac(mac),
                ),
            )
            self.journal.ensure_gateway(
                source=self.name, interface_ids=[record.record_id]
            )
        result.discovered["gateways"] = len(self._gateways)

    def _on_frame(self, frame: EthernetFrame, now: float) -> None:
        if not isinstance(frame.payload, Ipv4Packet):
            return
        packet = frame.payload
        udp = packet.payload
        if not isinstance(udp, UdpDatagram) or udp.dst_port != GDP_PORT:
            return
        report = udp.payload
        if (
            isinstance(report, tuple)
            and len(report) == 3
            and report[0] == "gdp-report"
        ):
            if self._result is not None:
                self._result.replies_received += 1
            self._gateways[packet.src] = (frame.src_mac, report[2])
