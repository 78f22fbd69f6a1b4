"""Analysis programs: uncovering network problems from Journal data.

Table 8 of the paper lists the problems the prototype uncovers:

* IP addresses no longer in use,
* hardware changes,
* inconsistent network masks,
* duplicate address assignments,
* promiscuous RIP hosts.

Each finder below returns a list of :class:`Finding` objects so the CLI
and presentation programs can render them uniformly.  The distinction
between a *hardware change* and a *duplicate assignment* — both appear
as one IP with several Ethernet addresses — is temporal: sequential
(old interface stopped being verified before the new one appeared)
means new hardware; overlapping verification means two live hosts
fighting over the address.

Finders plug into a registry via the :func:`analysis_program`
decorator: a registered program takes ``(journal, options)`` and
returns a list of findings.  :func:`run_all_analyses` and the CLI
both enumerate the registry, so a new finder needs only the decorator —
no dispatch table to update.
Beyond Table 8, two topology-backed programs watch the discovered
graph itself: partitioned subnets and single-point-of-failure
gateways.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Callable, Dict, List, Optional

from ..netsim.addresses import Ipv4Address, Netmask, Subnet
from .journal import Journal
from .query import Stale
from .records import InterfaceRecord

__all__ = [
    "AnalysisOptions",
    "Finding",
    "SubnetUtilisation",
    "address_space_report",
    "analysis_program",
    "analysis_programs",
    "find_stale_addresses",
    "find_hardware_changes",
    "find_duplicate_addresses",
    "find_mask_conflicts",
    "find_promiscuous_rip",
    "find_address_conflicts",
    "find_partitioned_subnets",
    "find_cut_gateways",
    "run_all_analyses",
]

#: how a Finding identifies its class (matches Table 8 rows)
KIND_STALE = "ip-no-longer-in-use"
KIND_HARDWARE = "hardware-change"
KIND_MASK = "inconsistent-netmask"
KIND_DUPLICATE = "duplicate-address"
KIND_PROMISCUOUS = "promiscuous-rip"
KIND_ADDRESS_CONFLICT = "address-conflict"
#: topology-backed programs (beyond Table 8)
KIND_PARTITIONED = "partitioned-subnet"
KIND_CUT_GATEWAY = "single-point-of-failure"


@dataclass
class Finding:
    """One detected problem."""

    kind: str
    subject: str
    details: str
    record_ids: List[int] = field(default_factory=list)

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.details}"


# ----------------------------------------------------------------------
# The analysis-program registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs shared by every registered analysis program."""

    stale_horizon: float
    default_prefix: int = 24


AnalysisProgram = Callable[[Journal, AnalysisOptions], List[Finding]]

_ANALYSES: Dict[str, AnalysisProgram] = {}


def analysis_program(name: str) -> Callable[[AnalysisProgram], AnalysisProgram]:
    """Register a standing analysis program under *name*.

    The decorated callable takes ``(journal, options)`` and returns a
    list of :class:`Finding`; :func:`run_all_analyses` runs every
    registered program and keys its result dict by these names, in
    registration order.
    """

    def register(program: AnalysisProgram) -> AnalysisProgram:
        if name in _ANALYSES:
            raise ValueError(f"analysis program already registered: {name}")
        _ANALYSES[name] = program
        return program

    return register


def analysis_programs() -> List[str]:
    """Registered program names, in registration (report) order."""
    return list(_ANALYSES)


def _non_dns_last_verified(record: InterfaceRecord) -> Optional[float]:
    """Last verification by anything other than the DNS module.

    The paper's interface display shows "time since last verification of
    existence (ignoring time of last DNS verification)": a record kept
    alive only by a stale DNS entry is exactly the signal that the host
    is gone.
    """
    times = [
        attribute.last_verified_live
        for attribute in record.attributes.values()
        if attribute.last_verified_live is not None
    ]
    return max(times) if times else None


def find_stale_addresses(journal: Journal, *, horizon: float) -> List[Finding]:
    """Interfaces not verified by any live probe since *horizon*.

    "When this happens, Fremont stops updating the interface data record
    (except perhaps via the DNS Explorer Module).  A network manager can
    observe this, and then contact the owner of the missing host to
    verify that the network address can be reused."
    """
    findings = []
    # The staleness test itself lives in the Stale predicate, so the
    # same horizon can also be queried over the wire.
    for record in journal.query("interfaces", Stale(horizon)):
        if record.ip is None:
            continue
        last = _non_dns_last_verified(record)
        age = journal.now - (last if last is not None else record.first_discovered)
        source = "never verified off-DNS" if last is None else f"silent for {age:.0f}s"
        findings.append(
            Finding(
                kind=KIND_STALE,
                subject=record.ip,
                details=f"{source}; address may be reusable "
                f"(dns_name={record.dns_name})",
                record_ids=[record.record_id],
            )
        )
    return findings


def find_hardware_changes(journal: Journal) -> List[Finding]:
    """Same IP, different Ethernet address, *sequentially*."""
    findings = []
    # Case 1: the mac attribute changed in place on one record.
    for record in journal.all_interfaces():
        mac_attribute = record.attribute("mac")
        if mac_attribute is not None and mac_attribute.history:
            old_values = [value for value, _when in mac_attribute.history]
            findings.append(
                Finding(
                    kind=KIND_HARDWARE,
                    subject=record.ip or f"record-{record.record_id}",
                    details=f"Ethernet address changed {old_values} -> "
                    f"{mac_attribute.value}",
                    record_ids=[record.record_id],
                )
            )
    # Case 2: two records for one IP whose activity does not overlap.
    for ip, group in _records_by_ip(journal).items():
        with_mac = [r for r in group if r.mac is not None]
        if len(with_mac) < 2:
            continue
        ordered = sorted(with_mac, key=lambda r: r.first_discovered)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.last_verified <= later.first_discovered:
                findings.append(
                    Finding(
                        kind=KIND_HARDWARE,
                        subject=ip,
                        details=f"{earlier.mac} (last seen "
                        f"{earlier.last_verified:.0f}) replaced by "
                        f"{later.mac} (first seen {later.first_discovered:.0f})",
                        record_ids=[earlier.record_id, later.record_id],
                    )
                )
    return findings


def find_duplicate_addresses(journal: Journal, *, overlap_window: float = 0.0) -> List[Finding]:
    """Same IP, different Ethernet addresses, *concurrently* active."""
    findings = []
    for ip, group in _records_by_ip(journal).items():
        with_mac = [r for r in group if r.mac is not None]
        if len(with_mac) < 2:
            continue
        macs = {r.mac for r in with_mac}
        if len(macs) < 2:
            continue
        ordered = sorted(with_mac, key=lambda r: r.first_discovered)
        for earlier, later in zip(ordered, ordered[1:]):
            # Overlapping lifetimes: the older interface was verified
            # after the newer one appeared.
            if earlier.last_verified > later.first_discovered + overlap_window:
                findings.append(
                    Finding(
                        kind=KIND_DUPLICATE,
                        subject=ip,
                        details=f"both {earlier.mac} and {later.mac} "
                        "answer for this address",
                        record_ids=[earlier.record_id, later.record_id],
                    )
                )
    return findings


def find_mask_conflicts(
    journal: Journal, *, default_prefix: int = 24
) -> List[Finding]:
    """Interfaces of one subnet reporting different masks.

    Grouping uses the *majority* mask per address neighbourhood, so the
    odd host out is the one reported — "hosts that are not configured
    properly for a subnetted environment".
    """
    findings = []
    by_subnet: Dict[Subnet, List[InterfaceRecord]] = defaultdict(list)
    for record in journal.all_interfaces():
        if record.ip is None or record.subnet_mask is None:
            continue
        try:
            ip = Ipv4Address.parse(record.ip)
        except ValueError:
            continue
        # Group by the default campus prefix regardless of the record's
        # own (possibly wrong) mask: the conflict is relative to peers.
        by_subnet[Subnet.containing(ip, Netmask.from_prefix(default_prefix))].append(
            record
        )
    for subnet, records in sorted(by_subnet.items(), key=lambda kv: str(kv[0])):
        masks: Dict[str, List[InterfaceRecord]] = defaultdict(list)
        for record in records:
            masks[record.subnet_mask].append(record)
        if len(masks) < 2:
            continue
        majority = max(masks, key=lambda m: len(masks[m]))
        for mask, holders in sorted(masks.items()):
            if mask == majority:
                continue
            for record in holders:
                findings.append(
                    Finding(
                        kind=KIND_MASK,
                        subject=record.ip or "?",
                        details=f"mask {mask} disagrees with majority "
                        f"{majority} on {subnet}",
                        record_ids=[record.record_id],
                    )
                )
    return findings


def find_promiscuous_rip(journal: Journal) -> List[Finding]:
    """Hosts flagged by RIPwatch as rebroadcasting learned routes."""
    findings = []
    for record in journal.all_interfaces():
        if record.get("promiscuous_rip"):
            findings.append(
                Finding(
                    kind=KIND_PROMISCUOUS,
                    subject=record.ip or f"record-{record.record_id}",
                    details="advertises only routes available more cheaply "
                    "elsewhere; its RIP output is untrustworthy",
                    record_ids=[record.record_id],
                )
            )
    return findings


def find_address_conflicts(journal: Journal) -> List[Finding]:
    """The reverse case: one Ethernet address with several IPs.

    "The reverse situation may represent a system configuration change,
    a gateway doing proxy ARP, or the multiple interfaces of a gateway."
    Interfaces already assigned to a gateway are excluded; what remains
    is worth a manager's look.
    """
    findings = []
    by_mac: Dict[str, List[InterfaceRecord]] = defaultdict(list)
    for record in journal.all_interfaces():
        if record.mac is not None and record.ip is not None:
            by_mac[record.mac].append(record)
    for mac, records in sorted(by_mac.items()):
        if len(records) < 2:
            continue
        if any(r.gateway_id is not None for r in records):
            continue  # explained: multiple interfaces of a known gateway
        ips = sorted({r.ip for r in records if r.ip})
        if len(ips) < 2:
            continue
        findings.append(
            Finding(
                kind=KIND_ADDRESS_CONFLICT,
                subject=mac,
                details=f"answers for addresses {ips}: reconfiguration or "
                "proxy ARP",
                record_ids=[r.record_id for r in records],
            )
        )
    return findings


# ----------------------------------------------------------------------
# Topology-backed finders: problems visible only in the discovered
# graph, not in any single record
# ----------------------------------------------------------------------


def find_partitioned_subnets(journal: Journal) -> List[Finding]:
    """Subnets disconnected from the main discovered component.

    A campus network is expected to be one connected graph; a subnet in
    a side component either lost its gateway or the explorers have not
    found the link yet — both worth an operator's attention.
    """
    components = journal.topology().components()
    findings: List[Finding] = []
    if len(components) <= 1:
        return findings
    main = components[0]
    for component in components[1:]:
        for subnet in sorted(component):
            findings.append(
                Finding(
                    kind=KIND_PARTITIONED,
                    subject=subnet,
                    details=(
                        f"no discovered route to the main component of "
                        f"{len(main)} subnet(s); isolated alongside "
                        f"{len(component) - 1} other subnet(s)"
                    ),
                )
            )
    return findings


def find_cut_gateways(journal: Journal) -> List[Finding]:
    """Gateways whose failure would partition the discovered topology
    (articulation points): single points of failure."""
    return [
        Finding(
            kind=KIND_CUT_GATEWAY,
            subject=name,
            details=(
                f"failure cuts off {len(impact.cut_subnets)} "
                f"subnet(s) ({', '.join(impact.cut_subnets)}) and "
                f"{impact.isolated_hosts} host interface(s)"
            ),
            record_ids=[gid],
        )
        for gid, name, impact in journal.topology().cut_gateways()
    ]


# ----------------------------------------------------------------------
# Registrations: the Table 8 finders in their classic report order,
# then the topology programs
# ----------------------------------------------------------------------


@analysis_program(KIND_STALE)
def _run_stale(journal: Journal, options: AnalysisOptions) -> List[Finding]:
    return find_stale_addresses(journal, horizon=options.stale_horizon)


@analysis_program(KIND_HARDWARE)
def _run_hardware(journal: Journal, options: AnalysisOptions) -> List[Finding]:
    return find_hardware_changes(journal)


@analysis_program(KIND_MASK)
def _run_mask(journal: Journal, options: AnalysisOptions) -> List[Finding]:
    return find_mask_conflicts(journal, default_prefix=options.default_prefix)


@analysis_program(KIND_DUPLICATE)
def _run_duplicate(journal: Journal, options: AnalysisOptions) -> List[Finding]:
    return find_duplicate_addresses(journal)


@analysis_program(KIND_PROMISCUOUS)
def _run_promiscuous(journal: Journal, options: AnalysisOptions) -> List[Finding]:
    return find_promiscuous_rip(journal)


@analysis_program(KIND_ADDRESS_CONFLICT)
def _run_address_conflict(
    journal: Journal, options: AnalysisOptions
) -> List[Finding]:
    return find_address_conflicts(journal)


@analysis_program(KIND_PARTITIONED)
def _run_partitioned(journal: Journal, options: AnalysisOptions) -> List[Finding]:
    return find_partitioned_subnets(journal)


@analysis_program(KIND_CUT_GATEWAY)
def _run_cut_gateways(journal: Journal, options: AnalysisOptions) -> List[Finding]:
    return find_cut_gateways(journal)


def run_all_analyses(
    journal: Journal,
    *,
    stale_horizon: Optional[float] = None,
    default_prefix: int = 24,
) -> Dict[str, List[Finding]]:
    """Run every registered analysis program (Table 8 plus the
    topology-backed finders).  ``stale_horizon`` defaults to a week of
    simulated time before now."""
    if stale_horizon is None:
        stale_horizon = journal.now - 7 * 24 * 3600.0
    options = AnalysisOptions(
        stale_horizon=stale_horizon, default_prefix=default_prefix
    )
    registry = journal.telemetry
    with registry.trace("analysis") as span:
        with registry.histogram(
            "fremont_analysis_seconds", "Duration of one full Table 8 analysis run"
        ).time():
            findings = {
                name: program(journal, options)
                for name, program in _ANALYSES.items()
            }
        total = sum(len(items) for items in findings.values())
        span.set_tag("findings", total)
    counter = registry.counter(
        "fremont_analysis_findings_total",
        "Findings produced by the Table 8 analysis programs",
        labels=("kind",),
    )
    for kind, items in findings.items():
        if items:
            counter.labels(kind=kind).inc(len(items))
    return findings


def _records_by_ip(journal: Journal) -> Dict[str, List[InterfaceRecord]]:
    """The interfaces sharing an address, two or more to a group, by one
    walk of the Journal's ``by_ip`` index: addresses compare by
    :func:`~repro.core.query.ip_key`, so ``010.000.000.001`` and
    ``10.0.0.1`` are one.  Groups come in address order, keyed by their
    first holder's address text, holders in record-id order."""
    interfaces = journal.interfaces
    groups: Dict[str, List[InterfaceRecord]] = {}
    for _key, group in groupby(journal.by_ip.items(), key=itemgetter(0)):
        holders = sorted(rid for _ip, rid in group if rid in interfaces)
        if len(holders) >= 2:
            records = [interfaces[rid] for rid in holders]
            groups[records[0].ip] = records
    return groups


# ----------------------------------------------------------------------
# Address-space utilisation (the introduction's motivation: "it is
# useful to find out about such activities, particularly before one
# runs out of network addresses on a segment")
# ----------------------------------------------------------------------


@dataclass
class SubnetUtilisation:
    """Address-space accounting for one subnet."""

    subnet: str
    capacity: int
    assigned: int
    #: interfaces silent past the stale horizon: candidates to reclaim
    reclaimable: int
    lowest: Optional[str] = None
    highest: Optional[str] = None

    @property
    def utilisation(self) -> float:
        return self.assigned / self.capacity if self.capacity else 0.0

    def describe(self) -> str:
        return (
            f"{self.subnet}: {self.assigned}/{self.capacity} assigned "
            f"({self.utilisation:.0%}), {self.reclaimable} reclaimable, "
            f"range {self.lowest}..{self.highest}"
        )


def address_space_report(
    journal: Journal,
    *,
    stale_horizon: Optional[float] = None,
    default_prefix: int = 24,
) -> List[SubnetUtilisation]:
    """Per-subnet address usage, with reclaim candidates.

    Interfaces group into subnets by their recorded mask (falling back
    to the campus default); an interface unseen by any live probe since
    *stale_horizon* counts as reclaimable — the address its departed
    owner never released.
    """
    if stale_horizon is None:
        stale_horizon = journal.now - 7 * 24 * 3600.0
    groups: Dict[Subnet, List[InterfaceRecord]] = defaultdict(list)
    for record in journal.all_interfaces():
        if record.ip is None:
            continue
        try:
            ip = Ipv4Address.parse(record.ip)
        except ValueError:
            continue
        mask = None
        if record.subnet_mask:
            try:
                mask = Netmask.parse(record.subnet_mask)
            except ValueError:
                mask = None
        if mask is None:
            mask = Netmask.from_prefix(default_prefix)
        groups[Subnet.containing(ip, mask)].append(record)
    report = []
    for subnet, records in sorted(groups.items(), key=lambda kv: str(kv[0])):
        addresses = sorted(
            {Ipv4Address.parse(r.ip) for r in records if r.ip is not None}
        )
        reclaimable = 0
        for record in records:
            last = _non_dns_last_verified(record)
            if last is None or last < stale_horizon:
                reclaimable += 1
        report.append(
            SubnetUtilisation(
                subnet=str(subnet),
                capacity=max(subnet.size - 2, 0),
                assigned=len(addresses),
                reclaimable=reclaimable,
                lowest=str(addresses[0]) if addresses else None,
                highest=str(addresses[-1]) if addresses else None,
            )
        )
    return report
