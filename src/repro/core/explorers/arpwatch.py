"""ARPwatch Explorer Module.

"Fremont's ARPwatch Explorer Module passively monitors ARP message
exchanges, and builds a table of Ethernet/IP address pairs for the
directly attached subnets.  Because this module uses the Network
Interface Tap (NIT) feature of SunOS, this module must be run with
system privileges."

It generates no traffic and can be left running for long periods; its
discovery rate is bounded by who actually talks (Table 5: 61% after 30
minutes, 89% after 24 hours).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...netsim.addresses import MacAddress, vendor_for_mac
from ...netsim.nic import Nic
from ...netsim.packet import ArpOp, ArpPacket, EthernetFrame
from ..records import Observation
from .base import PassiveExplorerModule, RunResult

__all__ = ["ArpWatch"]


class ArpWatch(PassiveExplorerModule):
    """Passive ARP monitor on one attached segment."""

    name = "ARPwatch"
    source = "ARP"
    inputs = "none"
    outputs = "Enet. & IP address matches (over time)"

    #: re-report a known pair to refresh its verification timestamp
    REVERIFY_INTERVAL = 600.0

    def __init__(self, node, journal, *, nic: Optional[Nic] = None) -> None:
        super().__init__(node, journal, nic=nic)
        #: (ip, mac) -> last time reported to the Journal
        self._reported: Dict[Tuple[str, str], float] = {}
        self.pairs_seen = 0

    # ------------------------------------------------------------------

    def _reset(self) -> None:
        self._reported.clear()

    def _report(self, result: RunResult) -> None:
        distinct_ips = {ip for ip, _mac in self._reported}
        result.discovered["interfaces"] = len(distinct_ips)
        result.discovered["pairs"] = len(self._reported)

    # ------------------------------------------------------------------

    def _on_frame(self, frame: EthernetFrame, now: float) -> None:
        if not isinstance(frame.payload, ArpPacket):
            return
        arp = frame.payload
        # Both requests and replies carry a validated sender binding.
        self._note_pair(str(arp.sender_ip), str(arp.sender_mac), now)
        if arp.op is ArpOp.REPLY and arp.target_mac is not None:
            # The target binding in a reply is the requester's own.
            self._note_pair(str(arp.target_ip), str(arp.target_mac), now)

    def _note_pair(self, ip: str, mac: str, now: float) -> None:
        if self._result is None:
            return
        self.pairs_seen += 1
        key = (ip, mac)
        last = self._reported.get(key)
        if last is not None and now - last < self.REVERIFY_INTERVAL:
            return
        self._reported[key] = now
        vendor = vendor_for_mac(MacAddress.parse(mac))
        self.report(
            self._result,
            Observation(source=self.name, ip=ip, mac=mac, vendor=vendor),
        )
        self._result.replies_received += 1
