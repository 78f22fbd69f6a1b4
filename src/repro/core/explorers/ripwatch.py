"""RIPwatch Explorer Module.

"The RIP module monitors RIP advertisements on shared subnets, building
a list of hosts, subnets, and networks as they are seen in the
advertisements. ... Like the ARPwatch module, the RIPwatch module uses
the Sun NIT with a packet filter."

RIP-1 entries carry no mask; each advertised address is classified by
comparison with the receiving interface's own mask, as the paper
describes.  The module also hunts the paper's "promiscuous" RIP hosts:
sources that rebroadcast every route they have learned.  The detection
heuristic is dominance: a source whose advertised routes are (almost)
all available from another source on the same wire at a strictly lower
metric has nothing of its own to offer and is flagged.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ...netsim.addresses import Ipv4Address, MacAddress, Subnet, vendor_for_mac
from ...netsim.nic import Nic
from ...netsim.packet import EthernetFrame, Ipv4Packet, RipCommand, RipPacket
from ..records import Observation, Quality
from .base import PassiveExplorerModule, RunResult

__all__ = ["RipWatch"]


class RipWatch(PassiveExplorerModule):
    """Passive RIP advertisement monitor on one attached segment."""

    name = "RIPwatch"
    source = "RIP"
    inputs = "none"
    outputs = "Subnets, Nets, Hosts"

    #: a source advertising fewer routes than this is never flagged
    PROMISCUOUS_MIN_ROUTES = 5

    def __init__(self, node, journal, *, nic: Optional[Nic] = None) -> None:
        super().__init__(node, journal, nic=nic)
        #: source ip -> {advertised address: best metric seen}
        self._routes_by_source: Dict[Ipv4Address, Dict[Ipv4Address, int]] = {}
        self._mac_by_source: Dict[Ipv4Address, MacAddress] = {}

    # ------------------------------------------------------------------

    def _reset(self) -> None:
        self._routes_by_source.clear()
        self._mac_by_source.clear()

    # ------------------------------------------------------------------

    def _on_frame(self, frame: EthernetFrame, now: float) -> None:
        if not isinstance(frame.payload, Ipv4Packet):
            return
        packet = frame.payload
        if not isinstance(packet.payload, RipPacket):
            return
        rip = packet.payload
        if rip.command is not RipCommand.RESPONSE:
            return
        if self._result is not None:
            self._result.replies_received += 1
        routes = self._routes_by_source.setdefault(packet.src, {})
        self._mac_by_source[packet.src] = frame.src_mac
        for entry in rip.entries:
            best = routes.get(entry.address)
            if best is None or entry.metric < best:
                routes[entry.address] = entry.metric

    # ------------------------------------------------------------------
    # Classification and reporting
    # ------------------------------------------------------------------

    def _classify(self, address: Ipv4Address) -> Tuple[str, Optional[Subnet]]:
        """Classify an advertised address as network / subnet / host by
        comparing with the receiving interface's mask (RIP-1 semantics).
        """
        my_mask = self.nic.mask
        natural = address.natural_mask() if address.address_class in "ABC" else None
        if natural is None:
            return "unknown", None
        my_network = Subnet.containing(self.nic.ip, natural)
        if address not in my_network:
            # Outside our network: we only know its natural boundary.
            return "network", Subnet.containing(address, natural)
        if address.value & ~my_mask.value & 0xFFFFFFFF:
            # Host bits set below our subnet mask: a host route.
            return "host", Subnet.containing(address, my_mask)
        return "subnet", Subnet.containing(address, my_mask)

    def _dominated(self, source: Ipv4Address) -> bool:
        """Is *every* route from *source* available more cheaply from
        another source on the wire?

        A genuine gateway always advertises its directly connected
        subnets at metric 1, which nothing can strictly beat — so at
        least one of its routes survives.  A promiscuous rebroadcaster
        has learned everything second-hand at metric+1, so every entry
        it offers is dominated.
        """
        routes = self._routes_by_source[source]
        if len(routes) < self.PROMISCUOUS_MIN_ROUTES:
            return False
        for address, metric in routes.items():
            beaten = any(
                other_routes.get(address) is not None
                and other_routes[address] < metric
                for other, other_routes in self._routes_by_source.items()
                if other != source
            )
            if not beaten:
                return False
        return True

    def _report(self, result: RunResult) -> None:
        subnets: Set[Subnet] = set()
        networks: Set[Subnet] = set()
        hosts: Set[Ipv4Address] = set()
        promiscuous = 0
        for source, routes in sorted(self._routes_by_source.items()):
            is_promiscuous = self._dominated(source)
            if is_promiscuous:
                promiscuous += 1
                result.notes.append(f"promiscuous RIP source: {source}")
            mac = self._mac_by_source.get(source)
            self.report(
                result,
                Observation(
                    source=self.name,
                    ip=str(source),
                    mac=str(mac) if mac else None,
                    vendor=vendor_for_mac(mac) if mac else None,
                    rip_source=True,
                    promiscuous_rip=is_promiscuous,
                ),
            )
            if is_promiscuous:
                # Its advertisements are untrustworthy: do not let them
                # seed further discovery.
                continue
            for address in routes:
                kind, subnet = self._classify(address)
                if kind == "subnet" and subnet is not None:
                    subnets.add(subnet)
                elif kind == "network" and subnet is not None:
                    networks.add(subnet)
                elif kind == "host":
                    hosts.add(address)
        # The wire we listen on is itself a known subnet.
        subnets.add(self.nic.subnet)
        for subnet in sorted(subnets, key=str):
            _record, changed = self.journal.ensure_subnet(
                str(subnet), source=self.name, mask=str(subnet.mask)
            )
            if changed:
                result.changes += 1
        for network in sorted(networks, key=str):
            _record, changed = self.journal.ensure_subnet(
                str(network), source=self.name, quality=Quality.QUESTIONABLE
            )
            if changed:
                result.changes += 1
        for host in sorted(hosts):
            self.report(result, Observation(source=self.name, ip=str(host)))
        result.discovered["subnets"] = len(subnets)
        result.discovered["networks"] = len(networks)
        result.discovered["host_routes"] = len(hosts)
        result.discovered["rip_sources"] = len(self._routes_by_source)
        result.discovered["promiscuous"] = promiscuous
