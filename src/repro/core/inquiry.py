"""Inquiry agents: asking the Journal operational questions.

The paper opens with a scenario: the Classics department's server is
unreachable, and what the manager needs is "the tool that will tell you
what the route is supposed to be to get to the Classics subnet" — plus
the knowledge that the route runs through a workstation-gateway in the
Athletics department that somebody unplugged.

:class:`NetworkPicture` is that tool: a query facade over a discovered
Journal.  It answers *where is this host*, *what is the designed route
between these subnets*, *which gateways carry it and when were they
last seen alive*, and *what changed recently* — all from discovery
data, no live probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..netsim.addresses import Ipv4Address, Subnet
from .correlate import subnet_containing
from .journal import Journal
from .records import GatewayRecord, InterfaceRecord

__all__ = ["NetworkPicture", "RouteHop", "RouteExplanation"]


def _is_subnet_key(text: str) -> bool:
    try:
        Subnet.parse(text)
    except ValueError:
        return False
    return True


@dataclass
class RouteHop:
    """One gateway along a designed route."""

    gateway_id: int
    gateway_name: str
    from_subnet: str
    to_subnet: str
    #: seconds since any interface of this gateway was last verified by
    #: a live (non-DNS) observation; None if never
    silent_for: Optional[float] = None

    #: a gateway quieter than this is flagged in the rendering, seconds
    SILENCE_THRESHOLD = 600.0

    def describe(self) -> str:
        if self.silent_for is None:
            health = "never verified live"
        elif self.silent_for > self.SILENCE_THRESHOLD:
            health = f"SILENT for {self.silent_for:.0f}s"
        else:
            health = f"alive {self.silent_for:.0f}s ago"
        return (
            f"{self.from_subnet} --[{self.gateway_name}]--> {self.to_subnet}"
            f"  ({health})"
        )


@dataclass
class RouteExplanation:
    """The designed route between two subnets, hop by hop."""

    source: str
    destination: str
    hops: List[RouteHop] = field(default_factory=list)
    reachable: bool = False

    def suspects(self, *, silent_threshold: float = 600.0) -> List[RouteHop]:
        """Hops whose gateway has gone quiet — the likely culprits."""
        return [
            hop
            for hop in self.hops
            if hop.silent_for is None or hop.silent_for > silent_threshold
        ]

    def describe(self) -> str:
        if not self.reachable:
            return (
                f"no discovered route from {self.source} to {self.destination}"
            )
        lines = [f"designed route {self.source} -> {self.destination}:"]
        lines.extend(f"  {hop.describe()}" for hop in self.hops)
        return "\n".join(lines)


class NetworkPicture:
    """Read-only operational queries over a discovered Journal."""

    def __init__(self, journal: Journal) -> None:
        self.journal = journal

    # ------------------------------------------------------------------
    # Host and interface questions
    # ------------------------------------------------------------------

    def where_is(self, what: str) -> List[InterfaceRecord]:
        """Find interface records by IP address or DNS name."""
        try:
            Ipv4Address.parse(what)
        except ValueError:
            return self.journal.interfaces_by_name(what)
        return self.journal.interfaces_by_ip(what)

    def subnet_of(self, what: str) -> Optional[Subnet]:
        """Which subnet does this host or address live on?"""
        records = self.where_is(what)
        for record in records:
            subnet = subnet_containing(record.ip, record.subnet_mask)
            if subnet is not None:
                return subnet
        return None

    def last_seen(self, what: str) -> Optional[float]:
        """Seconds since the newest live (non-DNS) verification."""
        times = []
        for record in self.where_is(what):
            times.extend(
                attribute.last_verified_live
                for attribute in record.attributes.values()
                if attribute.last_verified_live is not None
            )
        if not times:
            return None
        return self.journal.now - max(times)

    # ------------------------------------------------------------------
    # Topology questions
    # ------------------------------------------------------------------

    def _gateway_silence(self, gateway: GatewayRecord) -> Optional[float]:
        times = []
        for interface_id in gateway.interface_ids:
            record = self.journal.interfaces.get(interface_id)
            if record is None:
                continue
            times.extend(
                attribute.last_verified_live
                for attribute in record.attributes.values()
                if attribute.last_verified_live is not None
            )
        if not times:
            return None
        return self.journal.now - max(times)

    def route_between(self, source: str, destination: str) -> RouteExplanation:
        """The designed route between two subnets: the Journal topology
        store's confidence-weighted path (see
        :meth:`~repro.core.topology.TopologyStore.path`), one hop per
        gateway crossed."""
        explanation = RouteExplanation(source=source, destination=destination)
        if not (_is_subnet_key(source) and _is_subnet_key(destination)):
            return explanation
        path = self.journal.topology().path(source, destination)
        if not path.found:
            return explanation
        explanation.reachable = True
        # Between subnets the hops pair up around each gateway crossed:
        # (from subnet, gateway), (gateway, to subnet).
        for index in range(0, len(path.hops), 2):
            gateway_id = path.hops[index]["gateway"]
            gateway = self.journal.gateways.get(gateway_id)
            explanation.hops.append(
                RouteHop(
                    gateway_id=gateway_id,
                    gateway_name=path.hops[index]["gateway_name"],
                    from_subnet=path.nodes[index],
                    to_subnet=path.nodes[index + 2],
                    silent_for=(
                        self._gateway_silence(gateway) if gateway else None
                    ),
                )
            )
        return explanation

    def gateways_for(self, subnet_key: str) -> List[GatewayRecord]:
        """The local gateways serving a subnet."""
        record = self.journal.subnet_by_key(subnet_key)
        if record is None:
            return []
        return [
            self.journal.gateways[gateway_id]
            for gateway_id in record.gateway_ids
            if gateway_id in self.journal.gateways
        ]

    # ------------------------------------------------------------------
    # Change questions
    # ------------------------------------------------------------------

    def what_changed_since(self, when: float) -> List[str]:
        """Human-readable list of Journal changes after *when*."""
        changes: List[str] = []
        for record in self.journal.all_interfaces():
            for name, attribute in sorted(record.attributes.items()):
                if attribute.last_changed > when and attribute.history:
                    old_value, _until = attribute.history[-1]
                    changes.append(
                        f"interface {record.ip or record.record_id}: {name} "
                        f"changed {old_value!r} -> {attribute.value!r}"
                    )
                elif attribute.first_discovered > when:
                    changes.append(
                        f"interface {record.ip or record.record_id}: {name} "
                        f"discovered = {attribute.value!r}"
                    )
        for gateway in self.journal.all_gateways():
            for subnet_key, attribute in sorted(gateway.connected_subnets.items()):
                if attribute.first_discovered > when:
                    changes.append(
                        f"gateway {gateway.name or gateway.record_id}: "
                        f"attached to {subnet_key}"
                    )
        return changes
