"""The Journal: Fremont's central repository of discovered information.

"Just as Fremont the explorer kept a dated journal of his activities,
the Fremont system records discovered information in a central
repository, which we call the Journal."

Records are grouped into interfaces, gateways, and subnets.  Interface
records are indexed by Ethernet address, IP address and DNS name;
subnet records by subnet address.  The paper keeps these in AVL trees;
here each is a :class:`SortedIndex` — a hash map for point lookups
plus a blocked sorted key list for range scans — which serves the same
lookups and ranges at a fraction of the per-write cost in Python
(:mod:`repro.core.avl` keeps the paper's structure for the index
ablation and as the test oracle).  Gateways are reached through their
member interfaces or their name.  Lists are ordered by time of last
modification, most recently changed last, as in the paper.

Merge semantics implement the paper's conflict philosophy: an
observation pairing a known IP with a *different* Ethernet address does
not overwrite — it creates a second record, because "multiple interface
records [with] the same network layer address for different media
access addresses" is precisely what the analysis programs look for.

Change tracking: the Journal keeps a monotonically increasing
``revision`` counter, bumped on every mutation, plus a revision-ordered
change log (record ids touched since a given revision).  Consumers such
as the incremental :class:`~repro.core.correlate.Correlator` call
:meth:`Journal.changes_since` to see only the delta and
:meth:`Journal.prune_changes` once a delta is consumed, so correlation
cost tracks the rate of change rather than the size of the Journal.

Change feed: on top of the pull-style ``changes_since``, consumers can
:meth:`Journal.subscribe` and have :class:`JournalChanges` deltas
*pushed* to them whenever :meth:`Journal.publish` runs (the Journal
Server publishes after every write op; the Discovery Manager before
every correlation).  Each subscription keeps its own cursor, and
:meth:`prune_changes` never prunes past the slowest subscriber, so a
delta is retained until every registered consumer has seen it.

The Journal is also the terminal :class:`~repro.core.sink.ObservationSink`
of the ingest pipeline: ``submit``/``resolve`` apply an observation
immediately and ``flush`` publishes the change feed.

Durability: attaching a :class:`~repro.core.durability.JournalStore`
(``journal.durability``) makes every applied observation and
negative-cache put append to a write-ahead log as part of the mutation,
and ``flush`` becomes a WAL sync point.  The Journal itself stays
storage-agnostic — the hooks are two one-line calls.

Topology: :meth:`Journal.topology` is the Journal's one
:class:`~repro.core.topology.TopologyStore`, built on first use and
shared by every reader of the discovered map.
"""

from __future__ import annotations

import bisect
import json
import logging
import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from . import query as query_module
from .query import ip_key
from .records import (
    Attribute,
    GatewayRecord,
    InterfaceRecord,
    Observation,
    Quality,
    SubnetRecord,
)
from .sink import DirectSinkMixin, FlushStats
from .telemetry import MetricsRegistry
from .wire import COUNTER_SCHEMA, JOURNAL_COUNTERS

if TYPE_CHECKING:
    from .topology import TopologyStore

__all__ = [
    "Journal",
    "SortedIndex",
    "JournalChanges",
    "JournalCorruptError",
    "FeedSubscription",
]

logger = logging.getLogger(__name__)

K = TypeVar("K")
V = TypeVar("V")


class JournalCorruptError(Exception):
    """A persisted journal file failed to parse or validate.

    Carries the offending ``path`` and, when the damage is a JSON
    syntax error (the signature of a torn write), the byte ``position``
    at which parsing stopped.
    """

    def __init__(
        self, path: str, reason: str, position: Optional[int] = None
    ) -> None:
        self.path = path
        self.reason = reason
        self.position = position
        where = f" at byte {position}" if position is not None else ""
        super().__init__(f"corrupt journal file {path!r}{where}: {reason}")

#: record kinds used by the change-tracking bookkeeping
_KINDS = ("interface", "gateway", "subnet")


@dataclass
class JournalChanges:
    """The delta between two Journal revisions.

    ``complete`` is False when the requested base revision predates the
    retained change history (it was pruned away); consumers must then
    fall back to a full scan.
    """

    since: int
    revision: int
    complete: bool = True
    interfaces: Set[int] = field(default_factory=set)
    gateways: Set[int] = field(default_factory=set)
    subnets: Set[int] = field(default_factory=set)
    deleted_interfaces: Set[int] = field(default_factory=set)
    deleted_gateways: Set[int] = field(default_factory=set)
    deleted_subnets: Set[int] = field(default_factory=set)
    #: index keys touched over the span ("ip:<key>", "mac:<addr>",
    #: "name:<dns>", "subnet:<key>") — both each record's current keys
    #: at touch time and any keys it vacated.  The client QueryCache
    #: matches these against cached predicates' key watches to decide
    #: which entries a delta can have invalidated.
    keys: Set[str] = field(default_factory=set)
    #: federation only: the per-shard revision components behind the
    #: scalar ``revision`` when this delta was composed by a
    #: :class:`~repro.core.shard.ShardedClient` (None on single-journal
    #: deltas).  Resuming a federated feed needs this vector — the
    #: scalar sum cannot be split back into per-shard cursors.
    vector: Optional[List[int]] = None

    def empty(self) -> bool:
        return not (
            self.interfaces
            or self.gateways
            or self.subnets
            or self.deleted_interfaces
            or self.deleted_gateways
            or self.deleted_subnets
        )

    def merge(self, other: "JournalChanges") -> "JournalChanges":
        """Fold a later delta into this one, in place, mirroring what
        ``changes_since`` would have produced over the combined span: a
        deletion supersedes any pending touch of the same record (ids
        are never reused, so the other direction cannot occur)."""
        self.since = min(self.since, other.since)
        self.revision = max(self.revision, other.revision)
        self.complete = self.complete and other.complete
        for name in ("interfaces", "gateways", "subnets"):
            getattr(self, name).update(getattr(other, name))
            getattr(self, "deleted_" + name).update(getattr(other, "deleted_" + name))
        for name in ("interfaces", "gateways", "subnets"):
            getattr(self, name).difference_update(getattr(self, "deleted_" + name))
        self.keys.update(other.keys)
        if other.vector is not None:
            self.vector = other.vector
        return self

class FeedSubscription:
    """One consumer's cursor into the Journal change feed.

    Push style: pass a callback to :meth:`Journal.subscribe` and it is
    invoked with a :class:`JournalChanges` delta on every
    :meth:`Journal.publish` that finds news.  Pull style: omit the
    callback and call :meth:`poll` whenever convenient.  Either way the
    subscription's ``last_revision`` cursor is what
    :meth:`Journal.prune_changes` respects, so an attached consumer can
    never be handed an incomplete delta.
    """

    def __init__(
        self,
        journal: "Journal",
        callback: Optional[Callable[[JournalChanges], None]],
        since: int,
    ) -> None:
        self.journal = journal
        self.callback = callback
        self.last_revision = since
        self.deliveries = 0
        self.closed = False

    @property
    def pending(self) -> bool:
        """Has the Journal moved past this subscription's cursor?"""
        return self.journal.revision > self.last_revision

    def poll(self) -> JournalChanges:
        """The delta since the cursor; advances the cursor."""
        changes = self.journal.changes_since(self.last_revision)
        self.last_revision = changes.revision
        if not changes.empty():
            self.deliveries += 1
            self.journal.count(feed_deliveries=1)
        return changes

    def deliver(self) -> bool:
        """Push the pending delta through the callback, if there is any
        of either.  Returns True when the callback was invoked."""
        if self.callback is None or not self.pending:
            return False
        changes = self.poll()
        if changes.empty() and changes.complete:
            return False
        self.callback(changes)
        return True

    def close(self) -> None:
        self.closed = True
        self.journal._subscriptions.discard(self)


#: target keys per SortedIndex block; a block splits at twice this
_BLOCK = 1000


class SortedIndex(Generic[K, V]):
    """A key-ordered multimap: several values may share a key (that
    duplication is itself a finding, as in the paper's AVL trees).

    Point lookups go through a dict.  Ordered access — ``range``,
    ``items``, ``keys`` — walks a blocked sorted list of the distinct
    keys: sorted blocks of at most ``2 * _BLOCK`` keys plus the last key
    of each, so finding a key is two bisects and inserting or removing
    one shifts at most one block's tail.  The method names are those of
    :class:`~repro.core.avl.AvlTree`, the structure this replaces."""

    __slots__ = ("_values", "_blocks", "_maxes", "_size")

    def __init__(self) -> None:
        self._values: Dict[K, List[V]] = {}
        self._blocks: List[List[K]] = []
        self._maxes: List[K] = []
        self._size = 0

    def insert(self, key: K, value: V) -> None:
        """Add *value* under *key* (duplicate keys accumulate values)."""
        self._size += 1
        values = self._values.get(key)
        if values is not None:
            values.append(value)
            return
        self._values[key] = [value]
        blocks, maxes = self._blocks, self._maxes
        if not blocks:
            blocks.append([key])
            maxes.append(key)
            return
        if key > maxes[-1]:
            # The common case for the by-last-modified index: a touched
            # record moves to the newest end.
            pos = len(blocks) - 1
            block = blocks[pos]
            block.append(key)
            maxes[pos] = key
        else:
            pos = bisect.bisect_left(maxes, key)
            block = blocks[pos]
            bisect.insort(block, key)
        if len(block) > 2 * _BLOCK:
            blocks.insert(pos + 1, block[_BLOCK:])
            del block[_BLOCK:]
            maxes.insert(pos, block[-1])

    def remove(self, key: K, value: V) -> bool:
        """Remove one (key, value) pair.  Returns True if it was present."""
        values = self._values.get(key)
        if values is None:
            return False
        try:
            values.remove(value)
        except ValueError:
            return False
        self._size -= 1
        if values:
            return True
        del self._values[key]
        pos = bisect.bisect_left(self._maxes, key)
        block = self._blocks[pos]
        del block[bisect.bisect_left(block, key)]
        if block:
            self._maxes[pos] = block[-1]
        else:
            del self._blocks[pos]
            del self._maxes[pos]
        return True

    def get(self, key: K) -> List[V]:
        """All values stored under *key* (empty list if none)."""
        values = self._values.get(key)
        return list(values) if values else []

    def range(self, low: K, high: K) -> Iterator[Tuple[K, V]]:
        """(key, value) pairs with low <= key <= high, in key order."""
        blocks, values = self._blocks, self._values
        pos = bisect.bisect_left(self._maxes, low)
        if pos == len(blocks):
            return
        start = bisect.bisect_left(blocks[pos], low)
        for block in blocks[pos:]:
            stop = bisect.bisect_right(block, high)
            for key in block[start:stop]:
                for value in values[key]:
                    yield key, value
            if stop < len(block):
                return
            start = 0

    def items(self) -> Iterator[Tuple[K, V]]:
        """All (key, value) pairs in key order."""
        for key in self.keys():
            for value in self._values[key]:
                yield key, value

    def keys(self) -> Iterator[K]:
        """Distinct keys in ascending order."""
        for block in self._blocks:
            yield from block

    def __len__(self) -> int:
        """Number of stored values (not distinct keys)."""
        return self._size


#: identity fields: conflicting values here split records instead of
#: overwriting (the conflict itself is a finding)
_IDENTITY_FIELDS = ("ip", "mac")


def _identity(value: str) -> str:
    return value


#: per-field index key normalisers
_KEY_FUNCS = {"ip": ip_key, "mac": _identity, "dns_name": _identity}

#: change-feed key prefixes per indexed field (see JournalChanges.keys)
_KEY_PREFIXES = {"ip": "ip:", "mac": "mac:", "dns_name": "name:"}

#: plural/singular aliases accepted by Journal.query
_QUERY_KINDS = {
    "interface": "interfaces",
    "gateway": "gateways",
    "subnet": "subnets",
    "interfaces": "interfaces",
    "gateways": "gateways",
    "subnets": "subnets",
}


class Journal(DirectSinkMixin):
    """In-memory journal with sorted indexes and timestamped records.

    Thread discipline: mutation entry points (``observe_interface``,
    ``ensure_*``, ``absorb_*``, ``delete_*``, ``publish``) assume the
    caller holds an exclusive lock when the Journal is shared between
    threads — the Journal Server's write lock provides it.  Query
    methods never mutate Journal state, so any number may run
    concurrently under that server's read lock.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        telemetry: Optional[MetricsRegistry] = None,
    ) -> None:
        #: time source; defaults to a counter so the Journal is usable
        #: standalone, but normally wired to the simulator clock
        self._clock = clock or _StepClock()
        self.interfaces: Dict[int, InterfaceRecord] = {}
        self.gateways: Dict[int, GatewayRecord] = {}
        self.subnets: Dict[int, SubnetRecord] = {}
        self.by_ip: SortedIndex[str, int] = SortedIndex()
        self.by_mac: SortedIndex[str, int] = SortedIndex()
        self.by_name: SortedIndex[str, int] = SortedIndex()
        self.by_subnet: SortedIndex[str, int] = SortedIndex()
        #: registered change-feed consumers
        self._subscriptions: Set[FeedSubscription] = set()
        #: monotonically increasing mutation counter
        self.revision: int = 0
        #: revision-ordered mutation log: (revision, kind, record id,
        #: is_delete), retained until a consumer prunes it.  Lets
        #: changes_since() cost O(log n + delta).
        self._change_log: List[Tuple[int, str, int, bool]] = []
        #: revision-ordered log of touched index keys, pruned with the
        #: change log; feeds JournalChanges.keys for cache invalidation
        self._key_log: List[Tuple[int, str]] = []
        #: index keys vacated mid-mutation (reindex removals, deletes),
        #: drained into the key log at the next revision bump
        self._pending_keys: List[str] = []
        #: per-kind secondary index ordered by (last_modified, record_id)
        #: — backs ModifiedSince queries in O(log n + result).  Kept
        #: separate from the change log because verify-only refreshes
        #: advance last_modified *without* bumping the revision counter.
        self._modified_index: Dict[str, SortedIndex[Tuple[float, int], int]] = {
            kind: SortedIndex() for kind in _KINDS
        }
        #: record id -> its current key in the modified index
        self._modified_key: Dict[str, Dict[int, Tuple[float, int]]] = {
            kind: {} for kind in _KINDS
        }
        #: oldest revision for which changes_since() is still complete
        self._pruned_through: int = 0
        #: interface record id -> record id of its owning gateway
        self._gateway_of: Dict[int, int] = {}
        #: gateway name -> ids of the gateway records carrying it
        self._gateways_by_name: Dict[str, Set[int]] = {}
        #: negative cache (future-work feature): key -> expiry time
        self._negative: Dict[Tuple[str, str], float] = {}
        #: sweep the negative cache when it grows past this
        self._negative_sweep_at: int = 128
        #: attached durability layer (a JournalStore), or None for a
        #: purely in-memory Journal
        self.durability = None
        #: the deployment-wide metrics registry.  All Journal accounting
        #: lives here; counts() and count() reach it by counts() key.
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self._register_metrics(self.telemetry)
        #: the topology store, built by the first topology() call
        self._topology: Optional[TopologyStore] = None
        self._topology_init_lock = threading.Lock()

    def _register_metrics(self, registry: MetricsRegistry) -> None:
        """Register (or adopt) this Journal's metric families.  Counters
        are atomic — they may be bumped from the server's write path,
        its checkpoint poll thread, and sink flushes concurrently —
        and the structural gauges read live Journal state via callback."""
        #: counter key -> registry counter, one per JOURNAL_COUNTERS row
        self._counters = {
            key: registry.counter(f"fremont_{key}_total", spec.help)
            for key, spec in JOURNAL_COUNTERS.items()
        }
        #: the ones counts() shows: those a saved journal keeps
        self._counted = [
            (key, self._counters[key])
            for key, spec in JOURNAL_COUNTERS.items()
            if spec.section is not None
        ]
        gauges = (
            ("interfaces", "Interface records in the Journal", lambda: len(self.interfaces)),
            ("gateways", "Gateway records in the Journal", lambda: len(self.gateways)),
            ("subnets", "Subnet records in the Journal", lambda: len(self.subnets)),
            ("revision", "Journal mutation counter", lambda: self.revision),
            ("negative_cache_size", "Live negative-cache entries", lambda: len(self._negative)),
            ("feed_subscribers", "Registered change-feed consumers",
             lambda: len(self._subscriptions)),
        )
        for key, help_text, read in gauges:
            registry.gauge(COUNTER_SCHEMA[key], help_text, callback=read)
        #: counts() key -> live reading, one per structural gauge
        self._readings = [(key, read) for key, _help, read in gauges]

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # Change tracking
    # ------------------------------------------------------------------

    def _touch(self, kind: str, record) -> None:
        """Log a touch of *record* at a fresh revision."""
        self.revision += 1
        record.revision = self.revision
        self._log_change(kind, record.record_id, False)
        self._log_keys(kind, record)
        self._note_modified(kind, record)

    def _mark_deleted(self, kind: str, record_id: int) -> None:
        self.revision += 1
        self._log_change(kind, record_id, True)
        self._log_keys(kind, None)
        self._drop_modified(kind, record_id)

    def _log_change(self, kind: str, record_id: int, is_delete: bool) -> None:
        log = self._change_log
        if log:
            tail = log[-1]
            if tail[1] == kind and tail[2] == record_id and tail[3] == is_delete:
                # Back-to-back touches of one record (ARP refresh churn)
                # coalesce to the newest revision: only the latest
                # touch matters to changes_since.
                log[-1] = (self.revision, kind, record_id, is_delete)
                return
        log.append((self.revision, kind, record_id, is_delete))

    @staticmethod
    def _identity_keys(kind: str, record) -> List[str]:
        """The record's current index keys, in feed-key form."""
        keys: List[str] = []
        if kind == "interface":
            for field_name, prefix in _KEY_PREFIXES.items():
                value = record.get(field_name)
                if value is not None:
                    keys.append(prefix + _KEY_FUNCS[field_name](str(value)))
        elif kind == "subnet":
            value = record.get("subnet")
            if value is not None:
                keys.append("subnet:" + str(value))
        return keys

    def _log_keys(self, kind: str, record) -> None:
        """Append the mutation's index keys to the key log at the
        current revision: any keys vacated mid-mutation (buffered in
        ``_pending_keys`` by reindex removals and deletes) plus the
        record's current identity keys.  Logging both sides is what
        makes cache-watch eviction sound — a record entering, leaving,
        or moving within a watched key range always lands a key the
        watch can see."""
        keys = self._pending_keys
        self._pending_keys = []
        if record is not None:
            keys.extend(self._identity_keys(kind, record))
        rev = self.revision
        self._key_log.extend((rev, key) for key in keys)

    def _note_modified(self, kind: str, record) -> None:
        """Keep the by-last-modified index current.  Called from
        ``_touch`` and — crucially — from the verify-only exits of every
        mutation entry point, because ``record.set`` advances
        ``last_modified`` even when nothing changed."""
        current = (record.last_modified, record.record_id)
        prior = self._modified_key[kind].get(record.record_id)
        if prior == current:
            return
        if prior is not None:
            self._modified_index[kind].remove(prior, record.record_id)
        self._modified_index[kind].insert(current, record.record_id)
        self._modified_key[kind][record.record_id] = current

    def _drop_modified(self, kind: str, record_id: int) -> None:
        prior = self._modified_key[kind].pop(record_id, None)
        if prior is not None:
            self._modified_index[kind].remove(prior, record_id)

    def _rebuild_modified_index(self) -> None:
        """Recompute the by-last-modified indexes (bulk loads)."""
        self._modified_index = {kind: SortedIndex() for kind in _KINDS}
        self._modified_key = {kind: {} for kind in _KINDS}
        for kind, table in (
            ("interface", self.interfaces),
            ("gateway", self.gateways),
            ("subnet", self.subnets),
        ):
            for record in table.values():
                self._note_modified(kind, record)

    def changes_since(self, rev: int) -> JournalChanges:
        """Record ids touched or deleted after revision *rev*.

        Costs O(log n) to find *rev* in the mutation log plus O(delta)
        to replay the entries after it — independent of how much older
        history other (slower) consumers are still retaining.  Call
        :meth:`prune_changes` after consuming a delta to keep the
        retained log proportional to the churn since the last
        consumption.
        """
        changes = JournalChanges(
            since=rev,
            revision=self.revision,
            complete=rev >= self._pruned_through,
        )
        if rev == self.revision:
            return changes  # nothing moved: skip the log searches
        touched = {
            "interface": changes.interfaces,
            "gateway": changes.gateways,
            "subnet": changes.subnets,
        }
        deleted = {
            "interface": changes.deleted_interfaces,
            "gateway": changes.deleted_gateways,
            "subnet": changes.deleted_subnets,
        }
        log = self._change_log
        start = bisect.bisect_right(log, rev, key=lambda entry: entry[0])
        for _revision, kind, record_id, is_delete in log[start:]:
            if is_delete:
                # A record deleted after its touch reports as deleted
                # only.
                touched[kind].discard(record_id)
                deleted[kind].add(record_id)
            else:
                touched[kind].add(record_id)
        klog = self._key_log
        kstart = bisect.bisect_right(klog, rev, key=lambda entry: entry[0])
        changes.keys.update(key for _revision, key in klog[kstart:])
        return changes

    def prune_changes(self, rev: int) -> None:
        """Forget change-log entries at or below revision *rev*.

        After pruning, ``changes_since(r)`` for any ``r < rev`` reports
        ``complete=False`` and the caller must fall back to a full scan.
        The requested revision is clamped to the slowest open feed
        subscription, so one consumer draining its delta can never
        force another into a full resync.  It is clamped to the
        topology store's last refresh only while the log since then is
        shorter than the Journal has records: past that, the store's
        full rebuild costs no more than the delta would, and a store no
        one reads must not keep the log growing.
        """
        for subscription in self._subscriptions:
            rev = min(rev, subscription.last_revision)
        log = self._change_log
        store = self._topology
        pin = store.last_revision if store is not None else None
        if pin is not None and self._pruned_through <= pin < rev:
            lag = len(log) - bisect.bisect_right(log, pin, key=lambda entry: entry[0])
            if lag < len(self.interfaces) + len(self.gateways) + len(self.subnets):
                rev = pin
        if rev <= self._pruned_through:
            return
        del log[: bisect.bisect_right(log, rev, key=lambda entry: entry[0])]
        klog = self._key_log
        del klog[: bisect.bisect_right(klog, rev, key=lambda entry: entry[0])]
        self._pruned_through = rev

    # ------------------------------------------------------------------
    # Change feed
    # ------------------------------------------------------------------

    def subscribe(
        self,
        callback: Optional[Callable[[JournalChanges], None]] = None,
        *,
        since: int = 0,
    ) -> FeedSubscription:
        """Register a change-feed consumer.

        With a *callback*, :meth:`publish` pushes each pending delta to
        it; without one, the caller pulls via ``subscription.poll()``.
        *since* positions the cursor: 0 (the default) replays the whole
        Journal as the first delta, ``journal.revision`` starts with
        only future changes.
        """
        subscription = FeedSubscription(self, callback, since)
        self._subscriptions.add(subscription)
        return subscription

    def publish(self) -> int:
        """Push pending deltas to every callback subscription.  Returns
        the number of subscribers that received one.  Called at pipeline
        delivery points — a sink flush, a server write op, a Discovery
        Manager correlation — never mid-mutation."""
        delivered = 0
        for subscription in list(self._subscriptions):
            if subscription.deliver():
                delivered += 1
        return delivered

    @property
    def feed_subscribers(self) -> int:
        return len(self._subscriptions)

    def topology(self) -> TopologyStore:
        """This Journal's topology store, built on first use.

        Every reader of the discovered map shares it, so there is one
        graph and one edge history per Journal.  The store refreshes
        by pure reads, so the Journal Server's worker threads may call
        this under the shared read lock; the init lock makes
        concurrent first calls build one store."""
        store = self._topology
        if store is None:
            with self._topology_init_lock:
                store = self._topology
                if store is None:
                    from .topology import TopologyStore

                    store = self._topology = TopologyStore(self)
        return store

    # ------------------------------------------------------------------
    # Ingest sink protocol (terminal ObservationSink of the pipeline)
    # ------------------------------------------------------------------

    def submit(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        self._counters["observations_submitted"].inc()
        return self.observe_interface(observation)

    def resolve(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        return self.submit(observation)

    def flush(self) -> FlushStats:
        """Nothing is buffered at the terminal sink; flushing here means
        making accumulated changes visible to feed subscribers — and,
        with a durability layer attached, forcing the WAL to disk (a
        batch boundary is a natural durability point)."""
        self.publish()
        if self.durability is not None:
            self.durability.sync()
        return FlushStats()

    def note_ingest(
        self, *, submitted: int = 0, coalesced: int = 0, batches: int = 0
    ) -> None:
        """Account for upstream ingest work (a BatchingSink reporting
        sightings it merged away, a server batch op landing)."""
        self.count(
            observations_submitted=submitted,
            observations_coalesced=coalesced,
            batches_flushed=batches,
        )

    def count(self, **amounts: int) -> None:
        """Add to counters named by their ``wire.JOURNAL_COUNTERS`` key
        (``journal.count(wal_appends=1, wal_bytes=n)``).  Each increment
        is atomic, so the durability layer's checkpoint poll thread can
        never race a server read op into a lost update."""
        counters = self._counters
        for key, amount in amounts.items():
            if amount:
                counters[key].inc(amount)

    # ------------------------------------------------------------------
    # Interface observations
    # ------------------------------------------------------------------

    def observe_interface(
        self, observation: Observation, *, at: Optional[float] = None
    ) -> Tuple[InterfaceRecord, bool]:
        """Merge one sighting.  Returns (record, anything_changed).

        *at* overrides the timestamp the sighting is applied with; WAL
        replay uses it to reproduce the original ingest times instead of
        stamping the recovery clock's."""
        now = self.now if at is None else at
        self._counters["observations_applied"].inc()
        if self.durability is not None:
            self.durability.log_observation(observation, at=now)
        record = self._match_record(observation)
        created = record is None
        if record is None:
            record = InterfaceRecord()
            self.interfaces[record.record_id] = record
        changed = created
        for name, value in observation.fields().items():
            old_value = record.get(name)
            if record.set(name, value, now, observation.source, observation.quality):
                changed = True
                self._reindex(record, name, old_value, record.get(name))
        if changed:
            self._counters["changes_recorded"].inc()
            self._touch("interface", record)
        else:
            # Verify-only sighting: record.set still advanced
            # last_modified, so the modified index must follow even
            # though no revision was spent.
            self._note_modified("interface", record)
        return record, changed

    def _match_record(self, observation: Observation) -> Optional[InterfaceRecord]:
        """Find the record this observation belongs to, if any."""
        ip, mac = observation.ip, observation.mac
        if ip is not None and mac is not None:
            holders = self._records_for(self.by_ip, ip_key(ip))
            exact = [r for r in holders if r.mac == mac]
            if exact:
                return self._freshest(exact)
            # A record with this IP and no MAC yet can be claimed.
            claimable = [r for r in holders if r.mac is None]
            if claimable:
                return self._freshest(claimable)
            # Likewise a record with this MAC and no IP.
            claimable = [
                r for r in self._records_for(self.by_mac, mac) if r.ip is None
            ]
            if claimable:
                return self._freshest(claimable)
            # Conflict with every existing holder: a brand-new record.
            return None
        if ip is not None:
            matches = self._records_for(self.by_ip, ip_key(ip))
            return self._freshest(matches) if matches else None
        if mac is not None:
            matches = self._records_for(self.by_mac, mac)
            return self._freshest(matches) if matches else None
        if observation.dns_name is not None:
            matches = self._records_for(self.by_name, observation.dns_name)
            return self._freshest(matches) if matches else None
        return None

    def _records_for(self, index: SortedIndex, key: str) -> List[InterfaceRecord]:
        return [self.interfaces[rid] for rid in index.get(key) if rid in self.interfaces]

    @staticmethod
    def _freshest(records: List[InterfaceRecord]) -> InterfaceRecord:
        if len(records) == 1:
            return records[0]
        return max(records, key=lambda r: (r.last_verified, r.record_id))

    def _reindex(
        self,
        record: InterfaceRecord,
        field: str,
        old_value: Optional[str],
        new_value: Optional[str],
    ) -> None:
        index = {"ip": self.by_ip, "mac": self.by_mac, "dns_name": self.by_name}.get(field)
        if index is None:
            return
        normalise = _KEY_FUNCS[field]
        if old_value is not None and old_value != new_value:
            index.remove(normalise(old_value), record.record_id)
            # The vacated key still matters to cached queries watching
            # it; buffer it for the key log at the next revision bump.
            self._pending_keys.append(_KEY_PREFIXES[field] + normalise(old_value))
        if new_value is not None and old_value != new_value:
            index.insert(normalise(new_value), record.record_id)

    # ------------------------------------------------------------------
    # Interface queries
    # ------------------------------------------------------------------

    def interfaces_by_ip(self, ip: str) -> List[InterfaceRecord]:
        return self._records_for(self.by_ip, ip_key(ip))

    def interfaces_by_mac(self, mac: str) -> List[InterfaceRecord]:
        return self._records_for(self.by_mac, mac)

    def interfaces_by_name(self, name: str) -> List[InterfaceRecord]:
        return self._records_for(self.by_name, name)

    def interfaces_in_ip_range(self, low: str, high: str) -> List[InterfaceRecord]:
        """Numeric range scan over the IP index (dotted-quad arguments)."""
        return [
            self.interfaces[rid]
            for _, rid in self.by_ip.range(ip_key(low), ip_key(high))
        ]

    def all_interfaces(self) -> List[InterfaceRecord]:
        """All interface records, least recently modified first."""
        return sorted(
            self.interfaces.values(), key=lambda r: (r.last_modified, r.record_id)
        )

    def stale_interfaces(self, *, older_than: float) -> List[InterfaceRecord]:
        """Interfaces whose last verification predates *older_than*."""
        return [
            record
            for record in self.all_interfaces()
            if record.last_verified < older_than
        ]

    def delete_interface(self, record_id: int) -> bool:
        record = self.interfaces.pop(record_id, None)
        if record is None:
            return False
        for field_name, index in (
            ("ip", self.by_ip),
            ("mac", self.by_mac),
            ("dns_name", self.by_name),
        ):
            value = record.get(field_name)
            if value is not None:
                index.remove(_KEY_FUNCS[field_name](value), record_id)
                self._pending_keys.append(
                    _KEY_PREFIXES[field_name] + _KEY_FUNCS[field_name](value)
                )
        gateway = self.gateway_for_interface(record_id)
        if gateway is not None:
            gateway.interface_ids.remove(record_id)
            self._touch("gateway", gateway)
        self._gateway_of.pop(record_id, None)
        self._mark_deleted("interface", record_id)
        return True

    # ------------------------------------------------------------------
    # Gateways
    # ------------------------------------------------------------------

    def gateway_for_interface(self, interface_id: int) -> Optional[GatewayRecord]:
        """The gateway holding *interface_id*, O(1) via the reverse map.

        A stale map entry (possible only after external surgery on
        ``gateway.interface_ids``) self-heals with a scan; an absent
        entry means "no gateway" — membership only changes through
        Journal methods, which keep the map current."""
        gateway_id = self._gateway_of.get(interface_id)
        if gateway_id is None:
            return None
        gateway = self.gateways.get(gateway_id)
        if gateway is not None and interface_id in gateway.interface_ids:
            return gateway
        for gateway in self.gateways.values():
            if interface_id in gateway.interface_ids:
                self._gateway_of[interface_id] = gateway.record_id
                return gateway
        self._gateway_of.pop(interface_id, None)
        return None

    def _rebuild_gateway_index(self) -> None:
        """Recompute the interface -> gateway and name -> gateway maps
        (bulk loads)."""
        self._gateway_of = {}
        self._gateways_by_name = {}
        for gateway in self.gateways.values():
            for interface_id in gateway.interface_ids:
                self._gateway_of[interface_id] = gateway.record_id
            if gateway.name is not None:
                self._gateways_by_name.setdefault(gateway.name, set()).add(
                    gateway.record_id
                )

    def _gateways_named(self, name: str) -> List[GatewayRecord]:
        """The gateway records named *name*, in ``self.gateways`` order.

        The checks skip map entries left stale by external surgery on
        ``self.gateways`` (a record removed behind the Journal's back)."""
        gateways = self.gateways
        live = [
            rid
            for rid in self._gateways_by_name.get(name, ())
            if rid in gateways and gateways[rid].name == name
        ]
        if len(live) > 1:
            # Only a bulk load leaves several records under one name (the
            # next ensure_gateway folds them); keep the table's order.
            live = [rid for rid in gateways if rid in live]
        return [gateways[rid] for rid in live]

    def _name_gateway(
        self, gateway: GatewayRecord, name: str, now: float, source: str
    ) -> bool:
        """``gateway.set("name", ...)`` that keeps the name map current."""
        old = gateway.name
        changed = gateway.set("name", name, now, source)
        if gateway.name != old:
            self._unname_gateway(gateway.record_id, old)
            self._gateways_by_name.setdefault(name, set()).add(gateway.record_id)
        return changed

    def _unname_gateway(self, record_id: int, name: Optional[str]) -> None:
        ids = self._gateways_by_name.get(name)
        if ids is not None:
            ids.discard(record_id)
            if not ids:
                del self._gateways_by_name[name]

    def ensure_gateway(
        self,
        *,
        source: str,
        name: Optional[str] = None,
        interface_ids: Iterable[int] = (),
    ) -> Tuple[GatewayRecord, bool]:
        """Find or create the gateway containing any of *interface_ids*
        (or named *name*), then absorb the rest of the members."""
        now = self.now
        interface_ids = list(interface_ids)
        gateway: Optional[GatewayRecord] = None
        for interface_id in interface_ids:
            gateway = self.gateway_for_interface(interface_id)
            if gateway is not None:
                break
        if gateway is None and name is not None:
            named = self._gateways_named(name)
            gateway = named[0] if named else None
        created = gateway is None
        if gateway is None:
            gateway = GatewayRecord()
            self.gateways[gateway.record_id] = gateway
        changed = created
        if name is not None:
            if self._name_gateway(gateway, name, now, source):
                changed = True
            # Two records claiming one gateway name are fragments of one
            # device (the contract link_gateway_subnet relies on); fold
            # any same-named siblings into the record we just chose.
            for sibling in self._gateways_named(name):
                if sibling is not gateway:
                    changed = self._merge_gateways(gateway, sibling, now) or changed
        for interface_id in interface_ids:
            other = self.gateway_for_interface(interface_id)
            if other is not None and other is not gateway:
                changed = self._merge_gateways(gateway, other, now) or changed
            elif gateway.add_interface(interface_id, now):
                self._gateway_of[interface_id] = gateway.record_id
                changed = True
            if self.interfaces[interface_id].set(
                "gateway_id", gateway.record_id, now, source
            ):
                self._touch("interface", self.interfaces[interface_id])
            else:
                self._note_modified("interface", self.interfaces[interface_id])
        if changed:
            self._counters["changes_recorded"].inc()
            self._touch("gateway", gateway)
        else:
            self._note_modified("gateway", gateway)
        return gateway, changed

    def rename_gateway(self, record_id: int, name: str, *, source: str) -> bool:
        """Rename one gateway record by id, folding any record already
        holding the new name (two records claiming one name are
        fragments of one device — the same rule ``ensure_gateway``
        applies).  Returns False for an unknown id.

        ``ensure_gateway`` can only address a gateway through a member
        or its *current* name; this is the handle for a rename decided
        elsewhere — a sharded router propagating a device rename to
        fragments on other shards addresses them by record id."""
        gateway = self.gateways.get(record_id)
        if gateway is None:
            return False
        now = self.now
        changed = self._name_gateway(gateway, name, now, source)
        for sibling in self._gateways_named(name):
            if sibling is not gateway:
                changed = self._merge_gateways(gateway, sibling, now) or changed
        if changed:
            self._counters["changes_recorded"].inc()
            self._touch("gateway", gateway)
        else:
            self._note_modified("gateway", gateway)
        return changed

    def _merge_gateways(self, keeper: GatewayRecord, other: GatewayRecord, now: float) -> bool:
        """Two partial gateway records turn out to be one device."""
        changed = False
        for interface_id in other.interface_ids:
            if keeper.add_interface(interface_id, now):
                changed = True
            self._gateway_of[interface_id] = keeper.record_id
            record = self.interfaces.get(interface_id)
            if record is not None:
                if record.set("gateway_id", keeper.record_id, now, "journal-merge"):
                    self._touch("interface", record)
        for subnet_key, attribute in other.connected_subnets.items():
            if subnet_key not in keeper.connected_subnets:
                keeper.connected_subnets[subnet_key] = attribute
                changed = True
        if other.name is not None and keeper.name is None:
            self._name_gateway(keeper, other.name, now, "journal-merge")
        # Re-point subnet attachments at the keeper.
        for subnet in self.subnets.values():
            if other.record_id in subnet.gateway_ids:
                subnet.gateway_ids.remove(other.record_id)
                subnet.attach_gateway(keeper.record_id, now)
                self._touch("subnet", subnet)
        del self.gateways[other.record_id]
        self._unname_gateway(other.record_id, other.name)
        self._mark_deleted("gateway", other.record_id)
        self._touch("gateway", keeper)
        return changed

    def link_gateway_subnet(self, gateway_id: int, subnet_key: str, *, source: str) -> bool:
        """Record that a gateway is attached to a subnet (both sides)."""
        now = self.now
        gateway = self.gateways[gateway_id]
        changed = gateway.attach_subnet(subnet_key, now, source)
        if changed:
            self._touch("gateway", gateway)
        else:
            # attach_subnet's verify path refreshes last_modified.
            self._note_modified("gateway", gateway)
        subnet, subnet_changed = self.ensure_subnet(subnet_key, source=source)
        if subnet.attach_gateway(gateway_id, now):
            self._touch("subnet", subnet)
            changed = True
        changed = changed or subnet_changed
        if changed:
            self._counters["changes_recorded"].inc()
        return changed

    # ------------------------------------------------------------------
    # Subnets
    # ------------------------------------------------------------------

    def ensure_subnet(
        self,
        subnet_key: str,
        *,
        source: str,
        quality: str = Quality.GOOD,
        **stats: object,
    ) -> Tuple[SubnetRecord, bool]:
        """Find or create a subnet record; *stats* may carry mask,
        host_count, lowest_address, highest_address."""
        now = self.now
        existing_ids = self.by_subnet.get(subnet_key)
        created = not existing_ids
        if existing_ids:
            record = self.subnets[existing_ids[0]]
        else:
            record = SubnetRecord()
            self.subnets[record.record_id] = record
            self.by_subnet.insert(subnet_key, record.record_id)
        changed = created
        if record.set("subnet", subnet_key, now, source, quality):
            changed = True
        for name, value in stats.items():
            if value is None:
                continue
            if record.set(name, value, now, source, quality):
                changed = True
        if changed:
            self._counters["changes_recorded"].inc()
            self._touch("subnet", record)
        else:
            self._note_modified("subnet", record)
        return record, changed

    def subnet_by_key(self, subnet_key: str) -> Optional[SubnetRecord]:
        ids = self.by_subnet.get(subnet_key)
        return self.subnets[ids[0]] if ids else None

    def all_subnets(self) -> List[SubnetRecord]:
        return sorted(self.subnets.values(), key=lambda r: (r.last_modified, r.record_id))

    def all_gateways(self) -> List[GatewayRecord]:
        return sorted(self.gateways.values(), key=lambda r: (r.last_modified, r.record_id))

    # ------------------------------------------------------------------
    # Predicate queries
    # ------------------------------------------------------------------

    def query(self, kind: str, where=None) -> List:
        """Evaluate a predicate query (see :mod:`repro.core.query`):
        records of *kind* ("interfaces"/"gateways"/"subnets", singular
        accepted) matching *where* (a Predicate, or None for all),
        sorted by ``(last_modified, record_id)``.  Indexable predicates
        cost O(result), not O(journal)."""
        table = _QUERY_KINDS.get(kind)
        if table is None:
            raise ValueError(f"unknown query kind: {kind!r}")
        records = query_module.evaluate(self, table, where)
        self._counters["queries_served"].inc()
        return records

    def pull(self, since: int, where=None) -> Tuple[int, List, List, List, List]:
        """One replication pass's reads, taken together: everything a
        :class:`~repro.core.replicate.JournalReplicator` needs to bring
        a replica from revision *since* (0 = everything) up to now.

        Returns ``(revision, interfaces, gateways, members, subnets)``:
        the revision the reads saw; interface, gateway and subnet
        records changed after *since* (interfaces also filtered by the
        scope predicate *where*); and ``members``, the in-scope member
        interfaces of those gateways that the interface list does not
        already carry.  Callers hold whatever lock makes the reads one
        snapshot (the Journal Server's read lock), so the revision is
        exact: a replica that pulls again from it misses nothing and
        re-reads nothing."""
        cursor = query_module.SinceRevision(since) if since > 0 else None

        def scoped(predicate):
            if where is None:
                return predicate
            if predicate is None:
                return where
            return query_module.And(where, predicate)

        evaluate = query_module.evaluate
        interfaces = evaluate(self, "interfaces", scoped(cursor))
        gateways = evaluate(self, "gateways", cursor)
        sent = {record.record_id for record in interfaces}
        unresolved = {
            interface_id
            for record in gateways
            for interface_id in record.interface_ids
            if interface_id not in sent
        }
        members = (
            evaluate(self, "interfaces", scoped(query_module.RecordIds(unresolved)))
            if unresolved
            else []
        )
        subnets = evaluate(self, "subnets", cursor)
        return self.revision, interfaces, gateways, members, subnets

    # ------------------------------------------------------------------
    # Replication: absorbing records from another site's Journal
    # ------------------------------------------------------------------

    def absorb_interface(self, foreign: InterfaceRecord) -> Tuple[InterfaceRecord, bool]:
        """Merge a record from a replicated Journal, preserving its
        original timestamps (unlike observe_interface, which stamps the
        local clock).  Returns (local record, anything changed)."""
        probe = Observation(
            source="replica",
            ip=foreign.ip,
            mac=foreign.mac,
            dns_name=foreign.dns_name,
        )
        record = self._match_record(probe)
        created = record is None
        if record is None:
            record = InterfaceRecord()
            record.created_at = foreign.created_at
            self.interfaces[record.record_id] = record
        changed = created
        for name, theirs in foreign.attributes.items():
            if name == "gateway_id":
                # Site-local record id: meaningless here, and absorbing
                # it would ping-pong between replicas.  absorb_gateway
                # re-anchors membership through the interface id map.
                continue
            ours = record.attributes.get(name)
            if ours is None:
                copied = Attribute(
                    value=theirs.value,
                    first_discovered=theirs.first_discovered,
                    last_changed=theirs.last_changed,
                    last_verified=theirs.last_verified,
                    source=theirs.source,
                    quality=theirs.quality,
                    verified_by=theirs.verified_by,
                    last_verified_live=theirs.last_verified_live,
                )
                copied.history = list(theirs.history)
                record.attributes[name] = copied
                self._reindex(record, name, None, theirs.value)
                changed = True
            elif theirs.value == ours.value:
                ours.first_discovered = min(
                    ours.first_discovered, theirs.first_discovered
                )
                if theirs.last_verified > ours.last_verified:
                    ours.last_verified = theirs.last_verified
                    ours.verified_by = theirs.verified_by
                if theirs.last_verified_live is not None and (
                    ours.last_verified_live is None
                    or theirs.last_verified_live > ours.last_verified_live
                ):
                    ours.last_verified_live = theirs.last_verified_live
            elif theirs.last_changed > ours.last_changed:
                old_value = ours.value
                ours.change(
                    theirs.value, theirs.last_changed, theirs.source, theirs.quality
                )
                ours.last_verified = theirs.last_verified
                self._reindex(record, name, old_value, theirs.value)
                changed = True
        record.last_modified = max(record.last_modified, foreign.last_modified)
        if changed:
            self._counters["changes_recorded"].inc()
            self._touch("interface", record)
        else:
            self._note_modified("interface", record)
        return record, changed

    def absorb_gateway(
        self,
        foreign: GatewayRecord,
        interface_id_map: Dict[int, int],
    ) -> Tuple[GatewayRecord, bool]:
        """Merge a foreign gateway record; member ids translate through
        *interface_id_map* (foreign record id -> local record id)."""
        member_ids = [
            interface_id_map[interface_id]
            for interface_id in foreign.interface_ids
            if interface_id in interface_id_map
        ]
        gateway, changed = self.ensure_gateway(
            source="replica", name=foreign.name, interface_ids=member_ids
        )
        for subnet_key, theirs in foreign.connected_subnets.items():
            ours = gateway.connected_subnets.get(subnet_key)
            if ours is None:
                gateway.connected_subnets[subnet_key] = Attribute(
                    value=theirs.value,
                    first_discovered=theirs.first_discovered,
                    last_changed=theirs.last_changed,
                    last_verified=theirs.last_verified,
                    source=theirs.source,
                    quality=theirs.quality,
                    verified_by=theirs.verified_by,
                    last_verified_live=theirs.last_verified_live,
                )
                changed = True
            else:
                ours.first_discovered = min(
                    ours.first_discovered, theirs.first_discovered
                )
                ours.last_verified = max(ours.last_verified, theirs.last_verified)
            subnet_record, _ = self.ensure_subnet(subnet_key, source="replica")
            if subnet_record.attach_gateway(gateway.record_id, self.now):
                self._touch("subnet", subnet_record)
        if changed:
            self._touch("gateway", gateway)
        return gateway, changed

    def absorb_subnet(self, foreign: SubnetRecord) -> Tuple[SubnetRecord, bool]:
        """Merge a foreign subnet record (stats follow freshest wins)."""
        if foreign.subnet is None:
            raise ValueError("foreign subnet record has no subnet key")
        record, changed = self.ensure_subnet(foreign.subnet, source="replica")
        for name, theirs in foreign.attributes.items():
            ours = record.attributes.get(name)
            if ours is None:
                record.attributes[name] = Attribute(
                    value=theirs.value,
                    first_discovered=theirs.first_discovered,
                    last_changed=theirs.last_changed,
                    last_verified=theirs.last_verified,
                    source=theirs.source,
                    quality=theirs.quality,
                    verified_by=theirs.verified_by,
                    last_verified_live=theirs.last_verified_live,
                )
                changed = True
            elif theirs.last_changed > ours.last_changed and theirs.value != ours.value:
                ours.change(
                    theirs.value, theirs.last_changed, theirs.source, theirs.quality
                )
                changed = True
        record.last_modified = max(record.last_modified, foreign.last_modified)
        if changed:
            self._touch("subnet", record)
        else:
            self._note_modified("subnet", record)
        return record, changed

    # ------------------------------------------------------------------
    # Negative cache (future-work feature, implemented)
    # ------------------------------------------------------------------

    def negative_put(self, kind: str, key: str, *, ttl: float) -> None:
        """Remember that *key* of *kind* is known unavailable until now+ttl."""
        now = self.now
        self._negative[(kind, key)] = now + ttl
        if self.durability is not None:
            # Log the absolute expiry, not the TTL, so replay does not
            # restart the clock on stale negatives.
            self.durability.log_negative(kind, key, expiry=now + ttl)
        if len(self._negative) >= self._negative_sweep_at:
            self._prune_negative(now)

    def _prune_negative(self, now: float) -> None:
        """Drop expired entries; amortised so puts stay O(1).  The next
        sweep threshold doubles the surviving population, bounding the
        cache at ~2x its live size."""
        expired = [key for key, expiry in self._negative.items() if expiry < now]
        for key in expired:
            del self._negative[key]
        if expired:
            self._counters["negative_evictions"].inc(len(expired))
        self._negative_sweep_at = max(128, 2 * len(self._negative))

    def negative_check(self, kind: str, key: str) -> bool:
        """True if the datum is negatively cached (skip re-discovery).

        The lazy eviction uses ``pop(..., None)`` so concurrent checks
        under the server's *read* lock cannot race each other into a
        KeyError — this is the one query allowed to drop state, and the
        drop is idempotent."""
        expiry = self._negative.get((kind, key))
        if expiry is None:
            return False
        if expiry < self.now:
            self._negative.pop((kind, key), None)
            return False
        return True

    # ------------------------------------------------------------------
    # Accounting & persistence
    # ------------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """The Journal's structure sizes and its counters, keyed as in
        ``wire.COUNTER_SCHEMA`` (which names each value's registry
        metric).  Benchmarks and tests assert the batching, coalescing,
        feed and WAL behaviour from these; the durability counters stay
        zero unless a JournalStore is (or was) attached."""
        counts = {key: read() for key, read in self._readings}
        for key, counter in self._counted:
            counts[key] = int(counter.value)
        return counts

    def canonical_state(self) -> Dict[str, object]:
        """A structural snapshot for equivalence checks: record ids are
        replaced by creation-order ranks, and verification timestamps
        are omitted (a full correlation rescan re-verifies attributes a
        delta-driven pass rightly leaves untouched).  Two Journals that
        went through equivalent operation sequences — e.g. incremental
        vs full-rescan correlation — produce equal canonical states."""
        gateway_rank = {rid: i for i, rid in enumerate(sorted(self.gateways))}
        interface_rank = {rid: i for i, rid in enumerate(sorted(self.interfaces))}

        def values_of(record, *, translate_gateway: bool = False):
            out = {}
            for name, attribute in sorted(record.attributes.items()):
                value = attribute.value
                if translate_gateway and name == "gateway_id":
                    value = gateway_rank.get(value, "<dangling>")
                out[name] = value
            return out

        return {
            "interfaces": [
                values_of(self.interfaces[rid], translate_gateway=True)
                for rid in sorted(self.interfaces)
            ],
            "gateways": [
                {
                    "attributes": values_of(self.gateways[rid]),
                    "members": sorted(
                        interface_rank[i]
                        for i in self.gateways[rid].interface_ids
                        if i in interface_rank
                    ),
                    "subnets": sorted(self.gateways[rid].connected_subnets),
                }
                for rid in sorted(self.gateways)
            ],
            "subnets": [
                {
                    "attributes": values_of(self.subnets[rid]),
                    "gateways": sorted(
                        gateway_rank[g]
                        for g in self.subnets[rid].gateway_ids
                        if g in gateway_rank
                    ),
                }
                for rid in sorted(self.subnets)
            ],
        }

    def identity_state(self) -> Dict[str, object]:
        """Like :meth:`canonical_state`, but *insertion-order
        independent*: records sort by identity — an interface's
        ``(ip, mac, dns_name)``, a gateway's attributes + member
        identities, a subnet's key — instead of creation rank.  Two
        Journals holding the same facts compare equal even when the
        facts arrived in different orders or over different paths,
        which is what federation equivalence needs: a sharded fleet's
        aggregate view absorbs records in per-shard sync order, not the
        original observation order."""

        def identity_of(record) -> Tuple[str, str, str]:
            return (record.ip or "", record.mac or "", record.dns_name or "")

        def values_of(record, *, drop: Tuple[str, ...] = ()):
            return sorted(
                (name, attribute.value)
                for name, attribute in record.attributes.items()
                if name not in drop
            )

        interface_identity = {
            rid: identity_of(record) for rid, record in self.interfaces.items()
        }
        gateway_identity = {
            rid: (
                record.name or "",
                sorted(
                    interface_identity[i]
                    for i in record.interface_ids
                    if i in interface_identity
                ),
            )
            for rid, record in self.gateways.items()
        }
        return {
            "interfaces": sorted(
                (
                    # gateway_id is a journal-local record id; the
                    # linkage is captured identity-wise on the gateway
                    # side (members), so it is dropped here.
                    values_of(record, drop=("gateway_id",))
                    for record in self.interfaces.values()
                ),
                key=repr,
            ),
            "gateways": sorted(
                (
                    (
                        values_of(record),
                        gateway_identity[rid][1],
                        sorted(record.connected_subnets),
                    )
                    for rid, record in self.gateways.items()
                ),
                key=repr,
            ),
            "subnets": sorted(
                (
                    (
                        values_of(record),
                        sorted(
                            gateway_identity[g]
                            for g in record.gateway_ids
                            if g in gateway_identity
                        ),
                    )
                    for record in self.subnets.values()
                ),
                key=repr,
            ),
        }

    def paper_equivalent_bytes(self) -> int:
        """Storage footprint using the paper's per-record struct sizes
        (Table 2): 200 B/interface, 84 B/gateway, 76 B/subnet."""
        return (
            len(self.interfaces) * InterfaceRecord.PAPER_BYTES
            + len(self.gateways) * GatewayRecord.PAPER_BYTES
            + len(self.subnets) * SubnetRecord.PAPER_BYTES
        )

    def to_dict(self) -> Dict[str, object]:
        from . import wire

        return wire.journal_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object], clock: Optional[Callable[[], float]] = None) -> "Journal":
        from . import wire

        return wire.journal_from_dict(data, clock=clock)

    def save(self, path: str) -> None:
        """Write the journal to disk (the Journal Server does this
        "periodically and at termination").  The write is atomic — temp
        file + ``os.replace`` — so a crash mid-save leaves the previous
        file intact instead of a torn one."""
        from .durability import atomic_write_json

        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str, clock: Optional[Callable[[], float]] = None) -> "Journal":
        """Load a saved journal.  Raises :class:`JournalCorruptError`
        (with the path and, for syntax damage, the parse position) when
        the file is truncated or corrupt."""
        from . import wire

        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise JournalCorruptError(path, error.msg, error.pos) from error
        try:
            return cls.from_dict(data, clock=clock)
        except (wire.WireError, KeyError, TypeError, ValueError) as error:
            raise JournalCorruptError(path, str(error)) from error

    @classmethod
    def load_or_empty(
        cls, path: str, clock: Optional[Callable[[], float]] = None
    ) -> "Journal":
        """Load *path* if it exists and is valid; otherwise start empty.
        A corrupt file is a logged warning, not a startup failure — a
        server with an empty journal beats no server at all."""
        try:
            return cls.load(path, clock=clock)
        except FileNotFoundError:
            return cls(clock=clock)
        except JournalCorruptError as error:
            logger.warning("starting with an empty journal: %s", error)
            return cls(clock=clock)


class _StepClock:
    """Monotonic fallback clock for standalone Journal use."""

    def __init__(self) -> None:
        self._tick = 0.0

    def __call__(self) -> float:
        self._tick += 1.0
        return self._tick
