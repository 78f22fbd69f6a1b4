"""Journal replication between sites.

"Moreover, the system can be replicated at multiple sites, exploring
different networks, and sharing information among the replicated
components."  And from Future Work: "We are currently extending Fremont
to provide support for large internets, by caching data and supporting
predicate-based queries to limit exchanged data to the parts that are
needed."

:class:`JournalReplicator` implements exactly that: an incremental,
one-way push of records the source learned since the last sync, with
timestamp-preserving merges on the receiving side.  Run one replicator
per direction for bidirectional sharing.  Works across any combination
of Local/Remote journal clients, so two Journal Servers on different
machines can exchange their findings over the wire.

Revision-cursor protocol
------------------------

The sync cursor is the source Journal's **revision counter**, not a
``last_modified`` high-water timestamp.  Each pass is one ``pull``
(:meth:`~repro.core.journal.Journal.pull`; one round trip to a Journal
Server) followed by the target-side absorbs:

1. the source reads, in one op, every interface, gateway and subnet
   record whose revision is after ``last_revision`` (everything on the
   first pass or with ``full=True``), evaluated against the
   revision-ordered change log — O(delta), not O(journal) — plus the
   revision those reads saw;
2. the target absorbs them (idempotent, timestamp-preserving merges);
3. ``last_revision`` advances to the revision the pull was read at.

Because the reads are one op, that revision is exact: the next pass
neither misses a write that landed during this one nor re-sends one it
already carried.

Timestamps cannot carry this cursor: with strict-``>`` filtering, a
record modified at *exactly* the high-water timestamp after the pass
read it is never replicated (coarse clocks and step-clock simulations
make such ties common), and ``>=`` resends ever-growing tails.  Every
revision is handed out exactly once, so the revision cursor has no
ties to lose.  The deliberate trade-off: verify-only refreshes (a
re-observation confirming a known value) advance ``last_modified``
*without* bumping the revision counter, so pure freshness updates do
not ride along; the receiving side re-learns freshness from its own
explorers, and actual value changes — the data that matters — are
never missed.

The same pull carries the gateways' member interfaces that the
interface delta does not (``members``, one batched ``RecordIds``
lookup on the source side), so membership translates without a scan
per member or a second round trip.  A nameless gateway with no
resolvable member cannot be anchored on the target side; it is counted
in :attr:`SyncStats.gateways_skipped` and the
``fremont_replication_gateways_skipped_total`` counter rather than
dropped silently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .client import LocalClient, begin_call, scatter
from .journal import Journal
from .query import NamedReads, Predicate
from .telemetry import MetricsRegistry

__all__ = ["JournalReplicator", "SyncStats", "FederatedView"]


@dataclass
class SyncStats:
    """What one sync pass moved."""

    interfaces_sent: int = 0
    interfaces_changed: int = 0
    gateways_sent: int = 0
    gateways_changed: int = 0
    #: gateways that could not be anchored on the target side (no name,
    #: no resolvable member interface) — replication loss, not silence
    gateways_skipped: int = 0
    subnets_sent: int = 0
    subnets_changed: int = 0

    @property
    def records_sent(self) -> int:
        return self.interfaces_sent + self.gateways_sent + self.subnets_sent

    @property
    def records_changed(self) -> int:
        return (
            self.interfaces_changed
            + self.gateways_changed
            + self.subnets_changed
        )


class JournalReplicator:
    """One-way incremental replication: source journal -> target journal.

    See the module docstring for the revision-cursor protocol.
    """

    def __init__(
        self,
        source,
        target,
        *,
        where: Optional[Predicate] = None,
    ) -> None:
        self.source = source
        self.target = target
        #: optional interface-scoping predicate (e.g. ``InSubnet``):
        #: ANDed with the revision cursor on the interfaces table and on
        #: gateway member resolution, so a shard-to-shard sync only
        #: exchanges the subnet slice it is responsible for.  Gateways
        #: and subnets still ride the cursor unfiltered — an interface
        #: predicate is vacuously false on them (``InSubnet`` matches no
        #: gateway record), which would silently drop every one.
        self.where = where
        #: source revision through which everything has been pushed
        self.last_revision = 0
        self.syncs_completed = 0
        #: skipped-gateway accounting lands in the target's registry
        #: when it has one (operators watch the receiving side for
        #: replication loss), else in a private registry.
        registry = getattr(target, "telemetry", None)
        if registry is None:
            registry = MetricsRegistry()
        self.telemetry = registry
        self._c_skipped = registry.counter(
            "fremont_replication_gateways_skipped_total",
            "Gateways not replicated for lack of a target-side anchor",
        )

    def begin_sync(self, *, full: bool = False):
        """Start this pass's ``pull`` (see
        :func:`~repro.core.client.begin_call`); its handle's ``wait()``
        gives what :meth:`absorb` takes."""
        return begin_call(
            self.source, "pull", 0 if full else self.last_revision, self.where
        )

    def absorb(self, pulled) -> SyncStats:
        """Apply one pull's answer to the target and advance the cursor
        to the revision it was read at."""
        revision, interfaces, gateways, members, subnets = pulled
        stats = SyncStats()

        # Interfaces first: gateway membership translates through them.
        interface_map: Dict[int, int] = {}
        for foreign in interfaces:
            local, changed = self.target.absorb_interface(foreign)
            interface_map[foreign.record_id] = local.record_id
            stats.interfaces_sent += 1
            stats.interfaces_changed += changed
        # Members outside the delta (in scope only: an out-of-scope
        # member stays unresolved and drops from the absorbed gateway's
        # membership on this side).
        for member in members:
            local, _changed = self.target.absorb_interface(member)
            interface_map[member.record_id] = local.record_id
        for foreign in gateways:
            if foreign.name is None and not any(
                interface_id in interface_map
                for interface_id in foreign.interface_ids
            ):
                # Nothing to anchor the gateway to on this side: count
                # the loss where operators can see it.
                stats.gateways_skipped += 1
                self._c_skipped.inc()
                continue
            local, changed = self.target.absorb_gateway(foreign, interface_map)
            stats.gateways_sent += 1
            stats.gateways_changed += changed

        for foreign in subnets:
            if foreign.subnet is None:
                continue
            local, changed = self.target.absorb_subnet(foreign)
            stats.subnets_sent += 1
            stats.subnets_changed += changed

        self.last_revision = max(self.last_revision, revision)
        self.syncs_completed += 1
        return stats

    def sync(self, *, full: bool = False) -> SyncStats:
        """Push everything the source learned since the last sync.

        With ``full=True`` the cursor is ignored and the whole journal
        is pushed (initial seeding of a new replica).
        """
        return self.absorb(self.begin_sync(full=full).wait())


class FederatedView(NamedReads):
    """Read-only aggregate over a sharded fleet.

    One local aggregate :class:`~repro.core.journal.Journal` kept fresh
    by a per-shard incremental :class:`JournalReplicator` — the
    federation promotion of pairwise site sync.  Cross-shard analysis
    (the correlator above all: gateways span subnets, hence shards)
    runs against :attr:`journal` exactly as it would against a single
    site's Journal; gateway and subnet fragments split across shards
    re-merge here by identity (name / subnet key / member identity).

    :meth:`refresh` pulls each shard's delta (revision cursors, so a
    pass is O(changes)).  An unreachable shard is skipped and recorded
    in :attr:`stale_shards` with :attr:`partial` set — the view keeps
    serving the last state it pulled from that shard (graceful
    degradation, matching the router's partial-read contract).

    Construct from a :class:`~repro.core.shard.ShardedClient` (its
    per-shard clients are used directly, bypassing scatter-gather) or
    from any sequence of shard clients.
    """

    def __init__(
        self,
        shards,
        *,
        aggregate=None,
        clock: Optional[Callable[[], float]] = None,
        where: Optional[Predicate] = None,
    ) -> None:
        clients = getattr(shards, "clients", None)
        self.clients: List[Any] = list(clients if clients is not None else shards)
        if not self.clients:
            raise ValueError("a federated view needs at least one shard")
        self.journal = aggregate if aggregate is not None else Journal(clock=clock)
        self._target = LocalClient(self.journal)
        self.replicators = [
            JournalReplicator(client, self._target, where=where)
            for client in self.clients
        ]
        #: True while the most recent refresh could not reach a shard
        self.partial = False
        #: shard indexes whose data is stale (unreachable last refresh)
        self.stale_shards: List[int] = []
        self.refreshes = 0
        self._c_stale = self.journal.telemetry.counter(
            "fremont_federation_stale_refreshes_total",
            "Aggregate refreshes that could not reach every shard",
        )

    def refresh(self, *, full: bool = False) -> SyncStats:
        """Pull every shard's delta into the aggregate.  Returns the
        summed :class:`SyncStats`; sets :attr:`partial` when a shard was
        unreachable (its cursor stays put, so the next refresh catches
        it back up from where it left off).

        The pull is sent to every shard before any answer is awaited,
        so a refresh costs one round trip, not one per shard.  Any other
        error is raised once every started pull has been waited on, and
        then nothing is absorbed: every cursor stays put."""
        answers, stale, failure = scatter([
            functools.partial(replicator.begin_sync, full=full)
            for replicator in self.replicators
        ])
        total = SyncStats()
        if failure is None:
            for replicator, pulled in zip(self.replicators, answers):
                if pulled is None:
                    continue
                stats = replicator.absorb(pulled)
                for name in vars(total):
                    setattr(total, name, getattr(total, name) + getattr(stats, name))
        self.partial = bool(stale)
        self.stale_shards = stale
        if stale:
            self._c_stale.inc()
        self.refreshes += 1
        if failure is not None:
            raise failure
        return total

    # Analysis programs written against a journal client work on the
    # view unmodified: queries (and so the named reads) go to the
    # aggregate.
    def query(self, kind: str, where: Optional[Predicate] = None) -> List[Any]:
        return self.journal.query(kind, where)

    def counts(self) -> Dict[str, int]:
        return self.journal.counts()

    @property
    def telemetry(self):
        return self.journal.telemetry

    def close(self) -> None:
        """The view owns no sockets (shard clients are the caller's);
        nothing to release."""
