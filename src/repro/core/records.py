"""Journal record types.

The Journal groups data "into records representing interfaces,
gateways, and subnets", and "all data items are stored with the date
and time of initial discovery, last change, and last verification".
We honour that at field granularity: every stored value is an
:class:`Attribute` carrying the triple timestamp, the module that
reported it, and a quality tag (the paper's future-work "questionable
quality" flag, implemented here).

Records deliberately allow the inconsistencies the analysis programs
hunt for: two interface records may share an IP address (duplicate
assignment) or an Ethernet address (proxy ARP / gateway), and the
Journal's indexes surface exactly those collisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = [
    "Attribute",
    "Quality",
    "InterfaceRecord",
    "GatewayRecord",
    "SubnetRecord",
    "Observation",
]


class Quality:
    """Information-quality tags (paper: Future Work, implemented)."""

    GOOD = "good"
    QUESTIONABLE = "questionable"


#: sources whose verifications do not count as proof the interface is
#: alive on the wire.  "The DNS module ... not necessarily current":
#: the paper's interface display shows time since last verification
#: "ignoring time of last DNS verification".
PASSIVE_RECORD_SOURCES = frozenset({"DNS"})


@dataclass
class Attribute:
    """One stored data item with its provenance and triple timestamp."""

    value: Any
    first_discovered: float
    last_changed: float
    last_verified: float
    source: str
    quality: str = Quality.GOOD
    #: module that performed the most recent verification.  Kept
    #: separately from ``source`` because stale-address analysis must
    #: ignore "verifications" that came only from the DNS.
    verified_by: str = ""
    #: most recent verification by a *live* observer (anything outside
    #: PASSIVE_RECORD_SOURCES); None if only the DNS ever vouched
    last_verified_live: Optional[float] = None
    #: previous values, most recent last — fuels hardware-change analysis
    history: List[Tuple[Any, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.verified_by:
            self.verified_by = self.source
        if (
            self.last_verified_live is None
            and self.source not in PASSIVE_RECORD_SOURCES
        ):
            self.last_verified_live = self.last_verified

    @classmethod
    def new(cls, value: Any, now: float, source: str, quality: str = Quality.GOOD) -> "Attribute":
        return cls(
            value=value,
            first_discovered=now,
            last_changed=now,
            last_verified=now,
            source=source,
            quality=quality,
        )

    def verify(self, now: float, source: str, quality: str = Quality.GOOD) -> None:
        """The same value was observed again."""
        if now >= self.last_verified:
            self.last_verified = now
            self.verified_by = source
        if source not in PASSIVE_RECORD_SOURCES and (
            self.last_verified_live is None or now >= self.last_verified_live
        ):
            self.last_verified_live = now
        if quality == Quality.GOOD and self.quality == Quality.QUESTIONABLE:
            # A good-quality confirmation upgrades a questionable item.
            self.quality = Quality.GOOD
            self.source = source

    def change(self, value: Any, now: float, source: str, quality: str = Quality.GOOD) -> None:
        """A different value was observed; the old one goes to history."""
        self.history.append((self.value, self.last_verified))
        self.value = value
        self.last_changed = now
        self.last_verified = now
        self.source = source
        self.verified_by = source
        if source not in PASSIVE_RECORD_SOURCES:
            self.last_verified_live = now
        self.quality = quality

    def observe(self, value: Any, now: float, source: str, quality: str = Quality.GOOD) -> bool:
        """Verify or change depending on the value.  True if changed."""
        if value == self.value:
            self.verify(now, source, quality)
            return False
        # Never let questionable data overwrite good data.
        if quality == Quality.QUESTIONABLE and self.quality == Quality.GOOD:
            return False
        self.change(value, now, source, quality)
        return True


class _Record:
    """Shared behaviour: a bag of named attributes plus identity."""

    #: attribute names that participate in equality/merging
    FIELDS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        #: assigned by the owning Journal (0 for a detached record)
        self.record_id = 0
        self.attributes: Dict[str, Attribute] = {}
        self.created_at: Optional[float] = None
        self.last_modified: float = 0.0
        #: Journal revision at which this record was last touched.  The
        #: Journal stamps it; consumers (the incremental Correlator) use
        #: it as a cache-invalidation key for derived per-record state.
        self.revision: int = 0

    def get(self, name: str) -> Optional[Any]:
        attribute = self.attributes.get(name)
        return attribute.value if attribute is not None else None

    def attribute(self, name: str) -> Optional[Attribute]:
        return self.attributes.get(name)

    def set(
        self,
        name: str,
        value: Any,
        now: float,
        source: str,
        quality: str = Quality.GOOD,
    ) -> bool:
        """Observe a value for *name*.  Returns True if anything changed
        (a new attribute or a changed value — the Discovery Manager's
        fruitfulness measure)."""
        if self.created_at is None:
            self.created_at = now
        existing = self.attributes.get(name)
        if existing is None:
            self.attributes[name] = Attribute.new(value, now, source, quality)
            self.last_modified = max(self.last_modified, now)
            return True
        changed = existing.observe(value, now, source, quality)
        self.last_modified = max(self.last_modified, now)
        return changed

    @property
    def first_discovered(self) -> float:
        values = [a.first_discovered for a in self.attributes.values()]
        return min(values) if values else (self.created_at or 0.0)

    @property
    def last_verified(self) -> float:
        values = [a.last_verified for a in self.attributes.values()]
        return max(values) if values else (self.created_at or 0.0)

    def sources(self) -> Set[str]:
        return {a.source for a in self.attributes.values()}


class InterfaceRecord(_Record):
    """One network interface (Table 1 fields).

    Fields: ``mac`` (MAC layer address), ``ip`` (network layer address),
    ``dns_name``, ``subnet_mask``, ``gateway_id`` (gateway to which this
    interface belongs), plus derived extras: ``vendor`` (from the OUI)
    and ``rip_source`` (emits RIP traffic).
    """

    FIELDS = (
        "mac",
        "ip",
        "dns_name",
        "subnet_mask",
        "gateway_id",
        "vendor",
        "rip_source",
        "promiscuous_rip",
    )

    #: struct-equivalent size from the paper's Table 2
    PAPER_BYTES = 200

    @property
    def ip(self) -> Optional[str]:
        return self.get("ip")

    @property
    def mac(self) -> Optional[str]:
        return self.get("mac")

    @property
    def dns_name(self) -> Optional[str]:
        return self.get("dns_name")

    @property
    def subnet_mask(self) -> Optional[str]:
        return self.get("subnet_mask")

    @property
    def gateway_id(self) -> Optional[int]:
        return self.get("gateway_id")

    def describe(self) -> str:
        return (
            f"interface #{self.record_id} ip={self.ip} mac={self.mac} "
            f"name={self.dns_name} mask={self.subnet_mask}"
        )


class GatewayRecord(_Record):
    """A gateway: a collection of interfaces plus attached subnets.

    "The Traceroute Explorer Module is able, in some cases, to determine
    the subnet to which a gateway is attached without being able to
    determine the address of the interface on that subnet" — hence
    ``connected_subnets`` is stored independently of the member list.
    """

    FIELDS = ("name",)
    PAPER_BYTES = 84

    def __init__(self) -> None:
        super().__init__()
        #: record ids of member InterfaceRecords
        self.interface_ids: List[int] = []
        #: subnet keys (e.g. "128.138.243.0/24") with attach timestamps
        self.connected_subnets: Dict[str, Attribute] = {}

    def add_interface(self, interface_id: int, now: float) -> bool:
        if interface_id in self.interface_ids:
            return False
        self.interface_ids.append(interface_id)
        self.last_modified = max(self.last_modified, now)
        return True

    def attach_subnet(self, subnet_key: str, now: float, source: str) -> bool:
        existing = self.connected_subnets.get(subnet_key)
        if existing is not None:
            questionable = existing.quality == Quality.QUESTIONABLE
            existing.verify(now, source)
            self.last_modified = max(self.last_modified, now)
            # A good confirmation upgrading a questionable link is a
            # change: the topology's edge confidence moves with it.
            return questionable and existing.quality == Quality.GOOD
        self.connected_subnets[subnet_key] = Attribute.new(subnet_key, now, source)
        self.last_modified = max(self.last_modified, now)
        return True

    @property
    def name(self) -> Optional[str]:
        return self.get("name")

    def describe(self) -> str:
        return (
            f"gateway #{self.record_id} name={self.name} "
            f"interfaces={len(self.interface_ids)} "
            f"subnets={sorted(self.connected_subnets)}"
        )


class SubnetRecord(_Record):
    """A subnet, with attached gateways and DNS census statistics.

    "The DNS module records in the Journal the number of hosts on each
    subnet and the highest and lowest addresses assigned on each
    subnet."
    """

    FIELDS = ("subnet", "mask", "host_count", "lowest_address", "highest_address")
    PAPER_BYTES = 76

    def __init__(self) -> None:
        super().__init__()
        #: record ids of GatewayRecords attached to this subnet
        self.gateway_ids: List[int] = []

    def attach_gateway(self, gateway_id: int, now: float) -> bool:
        if gateway_id in self.gateway_ids:
            return False
        self.gateway_ids.append(gateway_id)
        self.last_modified = max(self.last_modified, now)
        return True

    @property
    def subnet(self) -> Optional[str]:
        return self.get("subnet")

    def describe(self) -> str:
        return (
            f"subnet #{self.record_id} {self.subnet} "
            f"gateways={self.gateway_ids} hosts={self.get('host_count')}"
        )


@dataclass
class Observation:
    """One interface sighting reported by an Explorer Module.

    This is the unit of data flowing from modules into the Journal; the
    Journal's merge logic decides whether it verifies, extends, or
    conflicts with existing records.
    """

    source: str
    ip: Optional[str] = None
    mac: Optional[str] = None
    dns_name: Optional[str] = None
    subnet_mask: Optional[str] = None
    vendor: Optional[str] = None
    rip_source: Optional[bool] = None
    promiscuous_rip: Optional[bool] = None
    quality: str = Quality.GOOD

    def fields(self) -> Dict[str, Any]:
        """The non-empty attribute values carried by this observation."""
        candidates = {
            "ip": self.ip,
            "mac": self.mac,
            "dns_name": self.dns_name,
            "subnet_mask": self.subnet_mask,
            "vendor": self.vendor,
            "rip_source": self.rip_source,
            "promiscuous_rip": self.promiscuous_rip,
        }
        return {name: value for name, value in candidates.items() if value is not None}
