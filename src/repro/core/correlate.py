"""Cross-correlation over the Journal.

"Because it is the shared place where observations are stored, and
because there are several Explorer Modules recording complimentary
findings there, the Journal is more than just the sum of its parts.
For example, the fact that the same Ethernet address is observed by two
ARP modules running on different subnets is not significant until that
information is written into the Journal.  Only then ... can that
gateway be discovered."

The :class:`Correlator` performs the Discovery-Manager-side inference:

* gateway discovery from one Ethernet address appearing with several
  network addresses on *different* subnets (SunOS workstation-gateways
  use one station MAC on every interface);
* proxy-ARP recognition when one Ethernet address answers for several
  addresses on the *same* subnet ("recognise the device type when
  multiple IP addresses are reported for a single Ethernet address");
* gateway-to-subnet linking from recorded interface masks.

The graph those records describe is derived in one place,
:class:`~repro.core.topology.TopologyStore` (``journal.topology()``);
:class:`TopologyGraph` is the plain form it hands to the exporters.

Incremental operation: the Discovery Manager correlates after every
Explorer Module run, so a naive implementation rescans the whole
Journal each time and a long campaign degrades quadratically with
Journal size.  The Correlator therefore consumes the Journal's dirty
sets (:meth:`~repro.core.journal.Journal.changes_since`): each pass
examines only records touched since the last correlation, using
persistent ``by_mac`` / ``by_ip`` reverse maps that are updated from
the same delta.  ``correlate(full=True)`` forces the classic full
rescan; by construction both paths converge to the same Journal state
(property-tested in ``tests/core/test_correlate_incremental.py``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..netsim.addresses import Ipv4Address, Netmask, Subnet
from .journal import Journal, JournalChanges
from .records import GatewayRecord, InterfaceRecord

__all__ = [
    "DEFAULT_PREFIX",
    "Correlator",
    "CorrelationReport",
    "FederatedCorrelator",
    "TopologyGraph",
    "subnet_containing",
]

SOURCE = "correlator"

#: the prefix of an address whose mask no one has reported (the campus
#: default)
DEFAULT_PREFIX = 24


def subnet_containing(ip: Optional[str], mask: Optional[str] = None) -> Optional[Subnet]:
    """The subnet that holds address *ip*: by *mask* when it parses,
    else by :data:`DEFAULT_PREFIX`.  None for a missing or unparsable
    address.  The one subnet-placement rule: the Correlator, the
    topology store and the inquiry layer all place addresses by it."""
    if ip is None:
        return None
    try:
        address = Ipv4Address.parse(ip)
    except ValueError:
        return None
    if mask:
        try:
            return Subnet.containing(address, Netmask.parse(mask))
        except ValueError:
            pass
    return Subnet.containing(address, Netmask.from_prefix(DEFAULT_PREFIX))


@dataclass
class CorrelationReport:
    """What one correlation pass concluded."""

    gateways_inferred: int = 0
    gateways_merged: int = 0
    proxy_arp_devices: List[str] = field(default_factory=list)
    subnet_links_added: int = 0
    interfaces_assigned: int = 0
    notes: List[str] = field(default_factory=list)
    #: "full" or "incremental" — which engine produced this report
    mode: str = "full"
    #: how many interface records the pass actually examined
    interfaces_examined: int = 0


@dataclass
class TopologyGraph:
    """The discovered subnet/gateway incidence structure (Figure 2)."""

    #: subnet key -> sorted gateway record ids attached to it
    subnets: Dict[str, List[int]] = field(default_factory=dict)
    #: gateway record id -> (display name, sorted subnet keys)
    gateways: Dict[int, Tuple[str, List[str]]] = field(default_factory=dict)

    def edges(self) -> List[Tuple[str, str]]:
        """(gateway display name, subnet key) incidence pairs."""
        result = []
        for gateway_id, (name, subnet_keys) in sorted(self.gateways.items()):
            for key in subnet_keys:
                result.append((name, key))
        return result

    def connected_components(self) -> List[Set[str]]:
        """Components over subnets (two subnets connect via a gateway)."""
        parent: Dict[str, str] = {}

        def find(item: str) -> str:
            while parent.setdefault(item, item) != item:
                parent[item] = parent[parent[item]]
                item = parent[item]
            return item

        def union(a: str, b: str) -> None:
            parent[find(a)] = find(b)

        for subnet in self.subnets:
            find(subnet)
        for _gateway_id, (_name, subnet_keys) in self.gateways.items():
            for other in subnet_keys[1:]:
                union(subnet_keys[0], other)
        groups: Dict[str, Set[str]] = defaultdict(set)
        for subnet in self.subnets:
            groups[find(subnet)].add(subnet)
        return sorted(groups.values(), key=lambda g: (-len(g), sorted(g)[0]))


class Correlator:
    """Cross-correlates Journal records into a coherent network picture.

    One Correlator instance is meant to live as long as its Journal (the
    Discovery Manager keeps one): it carries the incremental state — the
    last-correlated revision, the interface reverse maps, and the memoised
    per-record subnet cache.  A fresh instance simply performs a full
    rescan on its first :meth:`correlate` call.
    """

    def __init__(self, journal: Journal) -> None:
        self.journal = journal
        self._h_pass = journal.telemetry.histogram(
            "fremont_correlation_seconds",
            "Duration of one correlation pass",
            labels=("mode",),
        )
        self._c_passes = journal.telemetry.counter(
            "fremont_correlation_passes_total",
            "Correlation passes by mode",
            labels=("mode",),
        )
        #: Journal revision covered by the last correlate(); None = never
        self.last_revision: Optional[int] = None
        self.full_passes = 0
        self.incremental_passes = 0
        #: mac -> record ids holding that MAC *and* an IP (pass 1's input)
        self._by_mac: Dict[str, Set[int]] = {}
        #: ip -> record ids holding that IP (pass 2's input)
        self._by_ip: Dict[str, Set[int]] = {}
        #: record id -> (mac-or-None, ip-or-None) as currently indexed
        self._indexed: Dict[int, Tuple[Optional[str], Optional[str]]] = {}
        #: record id -> (record revision, computed subnet); the record
        #: revision is the invalidation key — the subnet table itself
        #: never feeds the computation, so its revision does not appear
        self._subnet_memo: Dict[int, Tuple[int, Optional[Subnet]]] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def subnet_of_record(self, record: InterfaceRecord) -> Optional[Subnet]:
        """The subnet an interface record belongs to, by its own address
        and mask (:func:`subnet_containing`).  Memoised per record, keyed
        on the record's Journal revision."""
        cached = self._subnet_memo.get(record.record_id)
        if cached is not None and cached[0] == record.revision:
            return cached[1]
        subnet = subnet_containing(record.ip, record.subnet_mask)
        self._subnet_memo[record.record_id] = (record.revision, subnet)
        return subnet

    # ------------------------------------------------------------------
    # Reverse-map maintenance
    # ------------------------------------------------------------------

    def _index_interface(self, record: InterfaceRecord) -> None:
        rid = record.record_id
        mac, ip = record.mac, record.ip
        entry = (mac if (mac is not None and ip is not None) else None, ip)
        old = self._indexed.get(rid)
        if old == entry:
            return
        if old is not None:
            self._drop_entry(rid, old)
        if entry == (None, None):
            self._indexed.pop(rid, None)
            return
        self._indexed[rid] = entry
        if entry[0] is not None:
            self._by_mac.setdefault(entry[0], set()).add(rid)
        if entry[1] is not None:
            self._by_ip.setdefault(entry[1], set()).add(rid)

    def _deindex_interface(self, rid: int) -> None:
        old = self._indexed.pop(rid, None)
        if old is not None:
            self._drop_entry(rid, old)
        self._subnet_memo.pop(rid, None)

    def _drop_entry(self, rid: int, entry: Tuple[Optional[str], Optional[str]]) -> None:
        mac, ip = entry
        if mac is not None:
            holders = self._by_mac.get(mac)
            if holders is not None:
                holders.discard(rid)
                if not holders:
                    del self._by_mac[mac]
        if ip is not None:
            holders = self._by_ip.get(ip)
            if holders is not None:
                holders.discard(rid)
                if not holders:
                    del self._by_ip[ip]

    def _rebuild_indexes(self) -> None:
        self._by_mac.clear()
        self._by_ip.clear()
        self._indexed.clear()
        for record in self.journal.interfaces.values():
            self._index_interface(record)

    def _apply_interface_delta(self, changes: JournalChanges) -> None:
        for rid in changes.deleted_interfaces:
            self._deindex_interface(rid)
        for rid in changes.interfaces:
            record = self.journal.interfaces.get(rid)
            if record is None:
                self._deindex_interface(rid)
            else:
                self._index_interface(record)

    # ------------------------------------------------------------------
    # Passes
    #
    # Every pass iterates in record-id (creation) order, never in
    # timestamp order: verification timestamps diverge between a
    # full-rescan and an incremental history, and iteration order must
    # not — it decides merge keepers and subnet creation order.
    # ------------------------------------------------------------------

    def infer_gateways_from_shared_macs(
        self,
        report: CorrelationReport,
        *,
        macs: Optional[Iterable[str]] = None,
    ) -> None:
        """One MAC + several IPs: a gateway if the IPs span subnets, a
        proxy-ARP device (or reconfiguration) if they share one.  With
        *macs* given, only those groups are (re-)examined."""
        journal = self.journal
        scope = self._by_mac.keys() if macs is None else macs
        for mac in sorted(scope):
            holders = self._by_mac.get(mac)
            if holders is None or len(holders) < 2:
                continue
            records = [
                journal.interfaces[rid]
                for rid in sorted(holders)
                if rid in journal.interfaces
            ]
            if len(records) < 2:
                continue
            report.interfaces_examined += len(records)
            subnets = {str(self.subnet_of_record(r)) for r in records}
            if len(subnets) >= 2:
                gateway, created = journal.ensure_gateway(
                    source=SOURCE,
                    interface_ids=[r.record_id for r in records],
                )
                if created:
                    report.gateways_inferred += 1
                else:
                    report.gateways_merged += 1
                report.notes.append(
                    f"MAC {mac} spans subnets {sorted(subnets)}: gateway "
                    f"#{gateway.record_id}"
                )
            else:
                report.proxy_arp_devices.append(mac)
                report.notes.append(
                    f"MAC {mac} answers for {len(records)} addresses on "
                    f"{sorted(subnets)[0]}: proxy ARP or reconfiguration"
                )

    def merge_gateways_by_shared_interface(
        self,
        report: CorrelationReport,
        *,
        ips: Optional[Iterable[str]] = None,
    ) -> None:
        """Different modules may each have created a partial gateway
        holding the same interface; the Journal merge already handles
        that on insert, so here we merge gateways that hold *different*
        records for the same interface address.  With *ips* given, only
        those addresses are (re-)examined."""
        journal = self.journal
        scope = self._by_ip.keys() if ips is None else ips
        for ip in sorted(scope):
            holders = self._by_ip.get(ip)
            if not holders:
                continue
            holder_in: Dict[int, int] = {}  # gateway id -> a holder in it
            for rid in sorted(holders):
                gateway = journal.gateway_for_interface(rid)
                if gateway is not None:
                    holder_in.setdefault(gateway.record_id, rid)
            if len(holder_in) < 2:
                continue
            keeper, *others = sorted(holder_in)
            for other in others:
                if other not in journal.gateways:
                    continue  # already merged away
                # One gateway write (so the merge is WAL-logged): the
                # gateway of the first member keeps the second's.
                journal.ensure_gateway(
                    source=SOURCE, interface_ids=[holder_in[keeper], holder_in[other]]
                )
                report.gateways_merged += 1
                report.notes.append(
                    f"gateways sharing interface {ip} merged into #{keeper}"
                )

    def link_gateways_to_subnets(
        self,
        report: CorrelationReport,
        *,
        gateways: Optional[List[GatewayRecord]] = None,
    ) -> None:
        """Attach every (scoped) gateway to the subnet of each member."""
        journal = self.journal
        if gateways is None:
            gateways = [journal.gateways[gid] for gid in sorted(journal.gateways)]
        for gateway in gateways:
            if gateway.record_id not in journal.gateways:
                continue  # merged away mid-pass
            for interface_id in list(gateway.interface_ids):
                record = journal.interfaces.get(interface_id)
                if record is None:
                    continue
                subnet = self.subnet_of_record(record)
                if subnet is None:
                    continue
                if journal.link_gateway_subnet(
                    gateway.record_id, str(subnet), source=SOURCE
                ):
                    report.subnet_links_added += 1

    def assign_interfaces_to_gateways(
        self,
        report: CorrelationReport,
        *,
        gateways: Optional[List[GatewayRecord]] = None,
    ) -> None:
        """Back-fill the Table 1 'gateway to which this interface
        belongs' field on member interface records."""
        journal = self.journal
        if gateways is None:
            gateways = [journal.gateways[gid] for gid in sorted(journal.gateways)]
        for gateway in gateways:
            if gateway.record_id not in journal.gateways:
                continue
            for interface_id in gateway.interface_ids:
                record = journal.interfaces.get(interface_id)
                if record is None:
                    continue
                if record.gateway_id != gateway.record_id:
                    # A gateway write sets it, so the repair is logged.
                    journal.ensure_gateway(source=SOURCE, interface_ids=[interface_id])
                    report.interfaces_assigned += 1

    # ------------------------------------------------------------------
    # Incremental scoping
    # ------------------------------------------------------------------

    def _scope_ips(self, changes: JournalChanges) -> Set[str]:
        """IPs whose gateway-collision status may have changed: the IPs
        of dirty interfaces plus every member IP of dirty gateways."""
        journal = self.journal
        ips: Set[str] = set()
        for rid in changes.interfaces:
            record = journal.interfaces.get(rid)
            if record is not None and record.ip is not None:
                ips.add(record.ip)
        for gid in changes.gateways:
            gateway = journal.gateways.get(gid)
            if gateway is None:
                continue
            for rid in gateway.interface_ids:
                record = journal.interfaces.get(rid)
                if record is not None and record.ip is not None:
                    ips.add(record.ip)
        return ips

    def _scope_gateways(self, changes: JournalChanges) -> List[GatewayRecord]:
        """Gateways needing re-link/re-assign: dirty ones plus the
        owners of dirty interfaces, in record-id order."""
        journal = self.journal
        gids = {gid for gid in changes.gateways if gid in journal.gateways}
        for rid in changes.interfaces:
            gateway = journal.gateway_for_interface(rid)
            if gateway is not None:
                gids.add(gateway.record_id)
        return [journal.gateways[gid] for gid in sorted(gids)]

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def correlate(self, *, full: bool = False) -> CorrelationReport:
        """Run all correlation passes once.

        The first call (or ``full=True``, or a delta that was pruned
        away) performs the classic whole-Journal rescan.  Subsequent
        calls consume only the records touched since the last call.
        """
        journal = self.journal
        started = time.perf_counter()
        with journal.telemetry.trace("correlate") as span:
            report = self._correlate_inner(full=full)
            span.set_tag("mode", report.mode)
            span.set_tag("examined", report.interfaces_examined)
        self._h_pass.labels(mode=report.mode).observe(time.perf_counter() - started)
        self._c_passes.labels(mode=report.mode).inc()
        return report

    def _correlate_inner(self, *, full: bool) -> CorrelationReport:
        journal = self.journal
        report = CorrelationReport()
        since = self.last_revision
        changes: Optional[JournalChanges] = None
        if not full and since is not None:
            changes = journal.changes_since(since)
            if not changes.complete:
                changes = None
                full = True
        if since is None or full:
            report.mode = "full"
            self.full_passes += 1
            self._rebuild_indexes()
            self.infer_gateways_from_shared_macs(report)
            self.merge_gateways_by_shared_interface(report)
            self.link_gateways_to_subnets(report)
            self.assign_interfaces_to_gateways(report)
        else:
            report.mode = "incremental"
            self.incremental_passes += 1
            assert changes is not None
            self._apply_interface_delta(changes)
            dirty_macs = {
                record.mac
                for rid in changes.interfaces
                if (record := journal.interfaces.get(rid)) is not None
                and record.mac is not None
                and record.ip is not None
            }
            self.infer_gateways_from_shared_macs(report, macs=dirty_macs)
            # Pass 1 may have created or merged gateways: refresh the
            # delta so later passes see the correlator's own effects.
            changes = journal.changes_since(since)
            self.merge_gateways_by_shared_interface(
                report, ips=self._scope_ips(changes)
            )
            changes = journal.changes_since(since)
            scope = self._scope_gateways(changes)
            self.link_gateways_to_subnets(report, gateways=scope)
            self.assign_interfaces_to_gateways(
                report, gateways=self._scope_gateways(journal.changes_since(since))
            )
        self.last_revision = journal.revision
        journal.prune_changes(self.last_revision)
        return report


class FederatedCorrelator:
    """Cross-shard correlation over a sharded Journal fleet.

    Gateways span subnets — and under subnet-prefix sharding, subnets
    span shards — so the correlation inference cannot run inside any
    single shard.  This wrapper runs it against a
    :class:`~repro.core.replicate.FederatedView` aggregate (a plain
    local Journal, so the persistent incremental :class:`Correlator`
    works unmodified) and pushes the conclusions back out through the
    scatter-gather router, where the owning shards absorb them:

    1. ``view.refresh()`` — pull each shard's delta into the aggregate;
    2. ``correlator.correlate()`` — the ordinary passes, on local data;
    3. write-back — an incremental replicator from the aggregate to the
       router routes every record the pass touched (gateway records,
       subnet links, ``gateway_id`` assignments) to its owning shard.

    Absorbs are idempotent and timestamp-preserving, so the next
    refresh pulling a written-back record re-absorbs it with no change:
    the loop converges exactly like bidirectional site replication.
    Equivalence against a single-journal run is property-tested in
    ``tests/integration/test_federation.py``.
    """

    def __init__(self, shards, *, view=None) -> None:
        from .client import LocalClient
        from .replicate import FederatedView, JournalReplicator

        self.view = view if view is not None else FederatedView(shards)
        router = shards if hasattr(shards, "shard_map") else None
        #: the scatter-gather router conclusions are written through;
        #: None when constructed from bare shard clients (read-only)
        self.router = router
        self.correlator = Correlator(self.view.journal)
        self._writeback = (
            JournalReplicator(LocalClient(self.view.journal), router)
            if router is not None
            else None
        )
        if self._writeback is not None:
            # The write-back cursor starts at the aggregate's current
            # revision: everything already in the aggregate came FROM
            # the shards, so only refresh pulls + correlator writes
            # from here on need routing back.
            self._writeback.last_revision = self.view.journal.revision

    def correlate(self, *, full: bool = False) -> CorrelationReport:
        """One federated pass: refresh, correlate, write back."""
        self.view.refresh(full=full)
        report = self.correlator.correlate(full=full)
        if self._writeback is not None:
            self._writeback.sync()
        return report
