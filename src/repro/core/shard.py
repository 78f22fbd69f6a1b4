"""Sharded Journal federation: partition records across Journals.

From the paper's Future Work: "We are currently extending Fremont to
provide support for large internets" — a single Journal Server tops out
at one process's ingest rate.  This module partitions the Journal
across *N* shards behind an explicit routing layer:

* :class:`ShardMap` — the deterministic placement function.  Records
  anchored by an IP route by their subnet prefix (every interface on
  one subnet lands on one shard, which keeps the Journal's stateful
  identity matching local); records with no IP fall back to a stable
  hash of their MAC or DNS name.  The map is versioned so clients and
  servers can verify they agree in the ``shard_info`` wire handshake.
* :class:`ShardedClient` — the scatter-gather router.  It implements
  the full :class:`~repro.core.sink.ObservationSink` + query/feed
  client surface: writes go to the owning shard, reads fan out to all
  shards and merge in ``(last_modified, record_id)`` order (each shard
  already returns that order, so the merge preserves the single-journal
  contract), and change feeds compose per-shard revision cursors into a
  :class:`VectorCursor`.
* :class:`ShardedChangeFeed` — the composed change feed.

Record ids crossing the router are *globalized*: shard-local id ``r``
on shard ``k`` of ``n`` becomes ``r * n + k``, which is collision-free
(local ids start at 1) and decodes without a lookup table.  The
provisional ``-1`` id used for outage writes passes through unchanged.

Placement contract (DESIGN.md §12): scatter-gather results are
byte-identical to a single Journal fed the same observation stream
*provided every observation of one interface routes to the same shard*
— true whenever an interface's sightings consistently carry its IP (the
common case for subnet-directed discovery), or never carry one (the
hash fallback is stable).  A record first seen by MAC only and later by
IP lands on two shards where a single Journal would have matched them;
the aggregate view (:class:`~repro.core.replicate.FederatedView`)
re-merges such split identities by identity key.

Degradation contract: a scatter-gather read that cannot reach a shard
returns what the live shards had and sets :attr:`ShardedClient.partial`
(and lists :attr:`ShardedClient.missing_shards`); routed writes inherit
:class:`~repro.core.client.RemoteClient` reconnect-with-replay.
"""

from __future__ import annotations

import copy
import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import query as query_module
from . import wire
from .client import LocalClient
from .journal import Journal, JournalChanges
from .records import GatewayRecord, InterfaceRecord, Observation, SubnetRecord
from .sink import FlushStats, ObservationSink
from .telemetry import MetricsRegistry

__all__ = [
    "ShardMap",
    "VectorCursor",
    "ShardedClient",
    "ShardedChangeFeed",
    "ShardFlushError",
    "global_id",
    "split_global_id",
    "parse_shard_spec",
]


class ShardFlushError(ConnectionError):
    """One or more shards failed to flush.

    Raised by :meth:`ShardedClient.flush` *after* every healthy shard
    has drained, so a single dead shard never blocks the rest of the
    fleet's buffered observations.  :attr:`failures` maps each failing
    shard index to the exception it raised; the dead shards' own replay
    buffers stay parked and drain on a later flush."""

    def __init__(self, failures: Dict[int, BaseException]) -> None:
        self.failures = dict(failures)
        indexes = ", ".join(str(index) for index in sorted(self.failures))
        super().__init__(
            f"flush failed on shard(s) {indexes}: "
            + "; ".join(
                f"[{index}] {error}"
                for index, error in sorted(self.failures.items())
            )
        )

    @property
    def shard_indexes(self) -> List[int]:
        return sorted(self.failures)

#: current ShardMap wire-handshake version
SHARD_MAP_VERSION = 1


def _ip_value(ip: Optional[str]) -> Optional[int]:
    """Dotted quad -> 32-bit int, or None when *ip* is not one."""
    if not ip:
        return None
    parts = ip.split(".")
    if len(parts) != 4:
        return None
    value = 0
    for part in parts:
        if not part.isdigit():
            return None
        octet = int(part)
        if octet > 255:
            return None
        value = (value << 8) | octet
    return value


def global_id(local_id: int, shard: int, shards: int) -> int:
    """Globalize a shard-local record id.  Local ids start at 1, so
    every global id is >= ``shards`` and the provisional ``-1`` (an
    outage write never assigned a server id) passes through."""
    if local_id < 0:
        return local_id
    return local_id * shards + shard


def split_global_id(gid: int, shards: int) -> Tuple[int, int]:
    """Inverse of :func:`global_id`: ``(shard, local_id)``."""
    if gid < 0:
        raise ValueError(f"cannot route provisional record id {gid}")
    return gid % shards, gid // shards


def parse_shard_spec(spec: str) -> Tuple[int, int]:
    """Parse a ``K/N`` shard spec (0-based index K of N shards)."""
    index_text, separator, total_text = spec.partition("/")
    if (
        not separator
        or not index_text.strip().isdigit()
        or not total_text.strip().isdigit()
    ):
        raise ValueError(f"expected shard spec 'K/N' (e.g. '0/4'), got {spec!r}")
    index, total = int(index_text), int(total_text)
    if total < 1 or not 0 <= index < total:
        raise ValueError(
            f"shard index must satisfy 0 <= K < N, got {index}/{total}"
        )
    return index, total


class ShardMap:
    """Deterministic record -> shard placement.

    IP-anchored records route by their /``prefix`` subnet: the subnet's
    network address hashes (crc32 — stable across processes and Python
    versions, unlike the salted builtin ``hash``) to a shard, so every
    interface of one subnet — and the subnet record itself — co-locate.
    Records with no IP fall back to a stable hash of MAC, then DNS
    name; fully anonymous records land on shard 0.

    The map is versioned: :meth:`identity` is what a shard server hands
    back in the ``shard_info`` handshake, and the router refuses a
    fleet whose members disagree on (version, shards, prefix).
    """

    def __init__(self, shards: int, *, prefix: int = 24,
                 version: int = SHARD_MAP_VERSION) -> None:
        if shards < 1:
            raise ValueError("shard map needs at least one shard")
        if not 0 <= prefix <= 32:
            raise ValueError("prefix must be within 0..32")
        self.shards = shards
        self.prefix = prefix
        self.version = version

    # -- placement -------------------------------------------------------

    def shard_for_token(self, token: str) -> int:
        """Stable hash placement for an arbitrary routing token."""
        return zlib.crc32(token.encode("utf-8")) % self.shards

    def subnet_token(self, ip: str) -> Optional[str]:
        """The ``a.b.c.d/prefix`` network containing *ip* under the
        map's prefix, or None when *ip* is not a dotted quad."""
        value = _ip_value(ip)
        if value is None:
            return None
        mask = 0 if self.prefix == 0 else (0xFFFFFFFF << (32 - self.prefix)) & 0xFFFFFFFF
        network = value & mask
        return (
            f"{(network >> 24) & 255}.{(network >> 16) & 255}."
            f"{(network >> 8) & 255}.{network & 255}/{self.prefix}"
        )

    def shard_for_ip(self, ip: Optional[str]) -> Optional[int]:
        token = self.subnet_token(ip) if ip else None
        if token is None:
            return None
        return self.shard_for_token("net:" + token)

    def shard_for_range(self, low: str, high: str) -> Optional[int]:
        """The one shard holding every IP-anchored interface in
        ``low..high``, or None when the range spans more than one
        /``prefix`` network (or an end is not a dotted quad)."""
        token = self.subnet_token(low)
        if token is None or token != self.subnet_token(high):
            return None
        return self.shard_for_token("net:" + token)

    def shard_for_subnet(self, subnet_key: str) -> int:
        """Placement for a subnet record: by its network address under
        the map prefix, so it co-locates with its member interfaces."""
        shard = self.shard_for_ip(subnet_key.split("/", 1)[0])
        return 0 if shard is None else shard

    def shard_for_identity(
        self,
        ip: Optional[str],
        mac: Optional[str] = None,
        dns_name: Optional[str] = None,
    ) -> int:
        """Placement for an interface identity: subnet of the IP when
        anchored, stable hash of MAC then DNS name otherwise."""
        shard = self.shard_for_ip(ip)
        if shard is not None:
            return shard
        if mac:
            return self.shard_for_token("mac:" + mac)
        if dns_name:
            return self.shard_for_token("name:" + dns_name)
        return 0

    def shard_for_observation(self, observation: Observation) -> int:
        return self.shard_for_identity(
            observation.ip, observation.mac, observation.dns_name
        )

    def shard_for_record(self, record: InterfaceRecord) -> int:
        return self.shard_for_identity(record.ip, record.mac, record.dns_name)

    # -- wire form -------------------------------------------------------

    def identity(self, index: int) -> Dict[str, int]:
        """The ``shard_info`` handshake body for shard *index*."""
        return {
            "version": self.version,
            "shards": self.shards,
            "prefix": self.prefix,
            "index": index,
        }

    def to_dict(self) -> Dict[str, int]:
        return {
            "version": self.version,
            "shards": self.shards,
            "prefix": self.prefix,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardMap":
        return cls(
            int(data["shards"]),
            prefix=int(data.get("prefix", 24)),
            version=int(data.get("version", SHARD_MAP_VERSION)),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShardMap) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"ShardMap(shards={self.shards}, prefix={self.prefix}, "
            f"version={self.version})"
        )


class VectorCursor:
    """Per-shard revision cursor for federated change feeds.

    One component per shard; the scalar view (the sum) is what a
    single-journal consumer would call "the revision" — monotone, and
    equal to the total number of revisions handed out fleet-wide."""

    __slots__ = ("revisions",)

    def __init__(self, revisions: Sequence[int]) -> None:
        self.revisions = [int(r) for r in revisions]

    @classmethod
    def zero(cls, shards: int) -> "VectorCursor":
        return cls([0] * shards)

    @property
    def scalar(self) -> int:
        return sum(self.revisions)

    def to_dict(self) -> Dict[str, List[int]]:
        return wire.vector_cursor_to_dict(self.revisions)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VectorCursor":
        return cls(wire.vector_cursor_from_dict(data))

    def __len__(self) -> int:
        return len(self.revisions)

    def __getitem__(self, index: int) -> int:
        return self.revisions[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VectorCursor):
            return self.revisions == other.revisions
        return NotImplemented

    def __repr__(self) -> str:
        return f"VectorCursor({self.revisions})"


def _normalize_cursor(since: Any, shards: int) -> List[int]:
    """A per-shard revision list from whatever cursor form a caller
    holds.  A scalar is only meaningful at 0 (start of history): a
    non-zero sum cannot be split back into per-shard positions."""
    if since is None:
        return [0] * shards
    if isinstance(since, VectorCursor):
        components = list(since.revisions)
    elif isinstance(since, dict):
        components = wire.vector_cursor_from_dict(since)
    elif isinstance(since, (list, tuple)):
        components = [int(r) for r in since]
    elif isinstance(since, int):
        if since != 0:
            raise ValueError(
                "a sharded cursor must be a VectorCursor (or 0 for the "
                f"start of history); the scalar {since} cannot be split "
                "into per-shard positions"
            )
        return [0] * shards
    else:
        raise TypeError(f"cannot use {type(since).__name__!r} as a shard cursor")
    if len(components) != shards:
        raise ValueError(
            f"vector cursor has {len(components)} components for {shards} shards"
        )
    return components


class _LocalFeed:
    """Adapter giving a pull :class:`~repro.core.journal.FeedSubscription`
    the ``poll(timeout)``/``revision``/``close`` surface of a
    :class:`~repro.core.client.RemoteChangeFeed`."""

    __slots__ = ("_subscription",)

    def __init__(self, subscription) -> None:
        self._subscription = subscription

    @property
    def revision(self) -> int:
        return self._subscription.last_revision

    def poll(self, timeout: Optional[float] = 0.5) -> Optional[JournalChanges]:
        if not self._subscription.pending:
            return None
        return self._subscription.poll()

    def close(self) -> None:
        self._subscription.close()


class ShardedChangeFeed:
    """Per-shard change feeds composed behind one poll surface.

    Each delivered delta is globalized (record ids rewritten through
    the global-id codec) and stamped with the fleet-wide cursor: its
    ``since``/``revision`` are the scalar views of the vector cursor
    before/after, and :attr:`JournalChanges.vector` carries the
    per-shard components for resumption."""

    def __init__(self, feeds: Sequence[Any], client: "ShardedClient") -> None:
        self._feeds = list(feeds)
        self._client = client
        self._closed = False

    @property
    def vector(self) -> VectorCursor:
        return VectorCursor([feed.revision for feed in self._feeds])

    @property
    def revision(self) -> int:
        """Scalar view of the composed cursor."""
        return self.vector.scalar

    def poll(self, timeout: Optional[float] = 0.5) -> Optional[JournalChanges]:
        """The next merged delta across all shards, or None if nothing
        arrives within *timeout* seconds.  One call may fold deltas
        from several shards into a single frame."""
        import time as _time

        deadline = None if timeout is None else _time.monotonic() + timeout
        slice_timeout = 0.0
        while True:
            merged: Optional[JournalChanges] = None
            before = self.vector
            for index, feed in enumerate(self._feeds):
                while True:
                    delta = feed.poll(slice_timeout if merged is None else 0.0)
                    if delta is None:
                        break
                    localized = self._client._globalize_changes(delta, index)
                    if merged is None:
                        merged = localized
                    else:
                        merged.merge(localized)
            if merged is not None:
                after = self.vector
                merged.since = before.scalar
                merged.revision = after.scalar
                merged.vector = list(after.revisions)
                return merged
            if deadline is not None:
                remaining = deadline - _time.monotonic()
                if remaining <= 0:
                    return None
                slice_timeout = min(0.05, remaining / max(1, len(self._feeds)))
            else:
                slice_timeout = 0.05

    def drain(self, timeout: Optional[float] = 0.5) -> Optional[JournalChanges]:
        merged = self.poll(timeout)
        if merged is None:
            return None
        while True:
            extra = self.poll(0.0)
            if extra is None:
                return merged
            merged.merge(extra)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for feed in self._feeds:
            try:
                feed.close()
            except (OSError, ConnectionError):
                pass

    def __enter__(self) -> "ShardedChangeFeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedClient(query_module.NamedReads):
    """Scatter-gather router over *N* shard journal clients.

    Implements the full journal-client surface (``ObservationSink`` +
    queries + change feeds), so anything that takes a
    :class:`~repro.core.client.LocalClient` or
    :class:`~repro.core.client.RemoteClient` — a BatchingSink, an
    explorer, the correlator's feed, the CLI — can take the router
    instead.  Writes route to the owning shard per the
    :class:`ShardMap`, and so do interface reads by one IP or by an IP
    range inside one network; reads that cannot be routed (by-MAC
    lookups, ranges that cross networks, other predicates, dumps) fan
    out to every shard and merge in ``(last_modified, record_id)``
    order.

    Record ids on this surface are *global* ids; id-taking operations
    decode them back to the owning shard.  Gateways whose members span
    shards are kept as per-shard fragments (same name) and re-merged by
    the aggregate view — the router never moves records across shards.

    On a scatter-gather read, an unreachable shard (its client's
    reconnect loop exhausted) does not fail the fan-out: the merged
    result covers the live shards and :attr:`partial` is set (with the
    dead shard indexes in :attr:`missing_shards`) until the next
    fully-answered read.  Routed single-shard operations raise
    :class:`ConnectionError` as a plain client would.
    """

    #: duck-typing marker: layers that are unsound over a sum-cursor
    #: (e.g. QueryCache's read-your-writes sync) refuse sharded clients
    is_sharded = True

    def __init__(
        self,
        clients: Sequence[Any],
        *,
        shard_map: Optional[ShardMap] = None,
        check: bool = True,
    ) -> None:
        self.clients = list(clients)
        if not self.clients:
            raise ValueError("a sharded client needs at least one shard")
        self.shard_map = shard_map or ShardMap(len(self.clients))
        if self.shard_map.shards != len(self.clients):
            raise ValueError(
                f"shard map covers {self.shard_map.shards} shards but "
                f"{len(self.clients)} clients were given"
            )
        #: True while the most recent scatter-gather read was missing
        #: at least one shard (cleared by the next complete read)
        self.partial = False
        #: shard indexes the last scatter-gather read could not reach
        self.missing_shards: List[int] = []
        self.telemetry = MetricsRegistry()
        self._c_scatter = self.telemetry.counter(
            "fremont_router_scatter_reads_total",
            "Reads fanned out to every shard by the router",
        )
        self._c_partial = self.telemetry.counter(
            "fremont_router_partial_reads_total",
            "Scatter-gather reads that were missing at least one shard",
        )
        self._c_routed = self.telemetry.counter(
            "fremont_router_routed_ops_total",
            "Operations routed to a single owning shard",
        )
        self._g_down = self.telemetry.gauge(
            "fremont_shard_down",
            "1 while the router considers this shard unreachable",
            labels=("shard",),
        )
        if check:
            self._verify_shards()

    @property
    def shards(self) -> int:
        return len(self.clients)

    def _verify_shards(self) -> None:
        """Handshake: every shard that advertises a shard identity must
        agree with this router's map and sit at its expected index.
        Servers not started with ``--shard`` advertise nothing and are
        accepted (single-tenant and test deployments)."""
        for index, client in enumerate(self.clients):
            probe = getattr(client, "shard_info", None)
            if probe is None:
                continue
            info = probe()
            if info is None:
                continue
            expected = self.shard_map.identity(index)
            mismatched = {
                key: (info.get(key), expected[key])
                for key in expected
                if int(info.get(key, -1)) != expected[key]
            }
            if mismatched:
                raise ValueError(
                    f"shard {index} handshake mismatch: {mismatched} "
                    "(server-side --shard K/N disagrees with this router)"
                )

    # -- id plumbing ------------------------------------------------------

    def _gid(self, local_id: int, shard: int) -> int:
        return global_id(local_id, shard, self.shards)

    def _route_id(self, gid: int) -> Tuple[int, int]:
        return split_global_id(int(gid), self.shards)

    def _private(self, record, shard: int):
        """*record*, safe to rewrite: records decoded off a connection
        are already private to the call, but a :class:`LocalClient`
        shard hands back its live journal records, which are copied."""
        if isinstance(self.clients[shard], LocalClient):
            return copy.deepcopy(record)
        return record

    def _globalize_interface(self, record: InterfaceRecord, shard: int) -> InterfaceRecord:
        record = self._private(record, shard)
        record.record_id = self._gid(record.record_id, shard)
        gateway_attr = record.attributes.get("gateway_id")
        if gateway_attr is not None:
            if gateway_attr.value is not None:
                gateway_attr.value = self._gid(int(gateway_attr.value), shard)
            # A gateway merge leaves the old shard-local ids here.
            gateway_attr.history = [
                (None if old is None else self._gid(int(old), shard), when)
                for old, when in gateway_attr.history
            ]
        return record

    def _globalize_gateway(self, record: GatewayRecord, shard: int) -> GatewayRecord:
        record = self._private(record, shard)
        record.record_id = self._gid(record.record_id, shard)
        record.interface_ids = [self._gid(i, shard) for i in record.interface_ids]
        return record

    def _globalize_subnet(self, record: SubnetRecord, shard: int) -> SubnetRecord:
        record = self._private(record, shard)
        record.record_id = self._gid(record.record_id, shard)
        record.gateway_ids = [self._gid(i, shard) for i in record.gateway_ids]
        return record

    def _globalize_changes(self, changes: JournalChanges, shard: int) -> JournalChanges:
        g = lambda ids: {self._gid(i, shard) for i in ids}  # noqa: E731
        return JournalChanges(
            since=changes.since,
            revision=changes.revision,
            complete=changes.complete,
            interfaces=g(changes.interfaces),
            gateways=g(changes.gateways),
            subnets=g(changes.subnets),
            deleted_interfaces=g(changes.deleted_interfaces),
            deleted_gateways=g(changes.deleted_gateways),
            deleted_subnets=g(changes.deleted_subnets),
            keys=set(changes.keys),
        )

    def _localize_predicate(self, predicate, shard: int):
        """Rewrite global record ids inside a predicate tree to shard
        *shard*'s local id space (ids owned by other shards drop out)."""
        if predicate is None:
            return None
        if isinstance(predicate, (query_module.RecordIds, query_module.Members)):
            local = [
                rid
                for gid in predicate.ids
                for owner, rid in (self._route_id(gid),)
                if owner == shard
            ]
            return type(predicate)(local)
        if isinstance(predicate, query_module.And):
            return query_module.And(
                *(self._localize_predicate(c, shard) for c in predicate.children)
            )
        if isinstance(predicate, query_module.Or):
            return query_module.Or(
                *(self._localize_predicate(c, shard) for c in predicate.children)
            )
        if isinstance(predicate, query_module.Not):
            return query_module.Not(
                self._localize_predicate(predicate.child, shard)
            )
        if isinstance(predicate, query_module.SinceRevision) and predicate.rev:
            raise ValueError(
                "SinceRevision cannot be fanned out: per-shard revision "
                "counters are independent — query each shard directly or "
                "use changes_since with a VectorCursor"
            )
        return predicate

    # -- scatter-gather plumbing -----------------------------------------

    def _scatter(self, call: Callable[[Any, int], Any], *, partial_ok: bool = True) -> List[Any]:
        """Run *call(client, index)* on every shard.  With *partial_ok*
        an unreachable shard contributes None and flips :attr:`partial`
        instead of failing the whole read."""
        self._c_scatter.inc()
        results: List[Any] = []
        missing: List[int] = []
        for index, client in enumerate(self.clients):
            try:
                results.append(call(client, index))
            except ConnectionError:
                if not partial_ok:
                    raise
                missing.append(index)
                results.append(None)
        self._note_down(missing)
        if missing:
            self._c_partial.inc()
        return results

    def _note_down(self, missing: List[int]) -> None:
        """Record the down/up view of the fleet after a fan-out: the
        ``fremont_shard_down`` gauge flips per shard, and the
        partial-read attributes update for callers that inspect them."""
        self.partial = bool(missing)
        self.missing_shards = missing
        down = set(missing)
        for index in range(self.shards):
            self._g_down.labels(shard=str(index)).set(
                1 if index in down else 0
            )

    @staticmethod
    def _merge_records(per_shard: Iterable[Optional[List[Any]]]) -> List[Any]:
        merged = [
            record
            for records in per_shard
            if records is not None
            for record in records
        ]
        merged.sort(key=lambda record: (record.last_modified, record.record_id))
        return merged

    # -- context management ----------------------------------------------

    def __enter__(self) -> "ShardedClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except (OSError, ConnectionError):
                pass

    # -- updates ----------------------------------------------------------

    def observe_interface(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        shard = self.shard_map.shard_for_observation(observation)
        self._c_routed.inc()
        record, changed = self.clients[shard].observe_interface(observation)
        return self._globalize_interface(record, shard), changed

    # -- sink protocol -----------------------------------------------------

    def submit(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        return self.observe_interface(observation)

    def resolve(self, observation: Observation) -> Tuple[InterfaceRecord, bool]:
        return self.observe_interface(observation)

    def flush(self) -> FlushStats:
        """Flush every shard.  A shard whose server is unreachable keeps
        its replay buffer parked; all failures are aggregated into one
        :class:`ShardFlushError` (listing the failing shard indexes)
        raised after the live shards have flushed, so one dead shard
        never blocks the rest from draining."""
        failures: Dict[int, BaseException] = {}
        for index, client in enumerate(self.clients):
            try:
                client.flush()
            except ConnectionError as exc:
                failures[index] = exc
                self._g_down.labels(shard=str(index)).set(1)
            else:
                self._g_down.labels(shard=str(index)).set(0)
        if failures:
            raise ShardFlushError(failures)
        return FlushStats()

    def _partition(
        self, observations: Sequence[Observation]
    ) -> Dict[int, List[Tuple[int, Observation]]]:
        groups: Dict[int, List[Tuple[int, Observation]]] = {}
        for position, observation in enumerate(observations):
            shard = self.shard_map.shard_for_observation(observation)
            groups.setdefault(shard, []).append((position, observation))
        return groups

    def observe_batch(
        self, observations: Sequence[Observation], *, coalesced: int = 0
    ) -> List[bool]:
        """Partition a batch by owning shard and apply each sub-batch in
        one round trip, every shard's on the wire before any is waited
        on; flags come back in submission order (see
        :meth:`observe_batch_nowait`)."""
        response = self.observe_batch_nowait(observations, coalesced=coalesced).wait()
        return [bool(item.get("changed")) for item in response["responses"]]

    def observe_batch_nowait(
        self, observations: Sequence[Observation], *, coalesced: int = 0
    ) -> "_ShardedReply":
        """Pipelined :meth:`observe_batch`: each shard's sub-batch goes
        on its wire without waiting; the returned reply reassembles the
        per-observation responses in submission order when waited on.
        Shards without a pipelined path (local clients) apply their
        sub-batch synchronously.  The coalesced count is accounted to
        the first participating shard (it is fleet-level ingest
        accounting, not per-record state)."""
        groups = self._partition(observations)
        parts: List[Tuple[List[int], Any]] = []
        first = True
        for shard in sorted(groups):
            positions = [p for p, _ in groups[shard]]
            items = [o for _, o in groups[shard]]
            client = self.clients[shard]
            nowait = getattr(client, "observe_batch_nowait", None)
            if nowait is not None:
                reply = nowait(items, coalesced=coalesced if first else 0)
            else:
                shard_flags = client.observe_batch(
                    items, coalesced=coalesced if first else 0
                )
                reply = {
                    "ok": True,
                    "responses": [
                        {"ok": True, "changed": bool(flag)} for flag in shard_flags
                    ],
                }
            first = False
            parts.append((positions, reply))
        return _ShardedReply(len(observations), parts)

    def note_ingest(self, **counters: int) -> None:
        for client in self.clients:
            note = getattr(client, "note_ingest", None)
            if note is not None:
                note(**counters)
                return

    def publish(self) -> int:
        published = 0
        for client in self.clients:
            publish = getattr(client, "publish", None)
            if publish is not None:
                published += publish()
        return published

    # -- gateway / subnet writes ------------------------------------------

    def _anchor_shard(
        self, groups: Dict[int, Any], name: Optional[str]
    ) -> int:
        """The shard that owns a gateway write: the lowest member shard
        (deterministic), the shard already holding a fragment of the
        name, the name hash, else shard 0.

        The existing-fragment probe matters for equivalence: a single
        Journal matches a memberless ``ensure_gateway`` against the
        named gateway wherever it is, and gateway identity follows
        *members*, so the device can later be renamed away.  Minting a
        fresh fragment on the name-hash shard instead would leave an
        empty orphan that no re-merge can reclaim once the real
        gateway's name moves on.  The probe is best-effort: with a
        shard unreachable, the write falls back to the hash anchor
        rather than failing."""
        if groups:
            return min(groups)
        if name:
            where = query_module.FieldEquals("name", name)
            for shard, client in enumerate(self.clients):
                try:
                    if client.query("gateways", where):
                        return shard
                except (ConnectionError, TimeoutError):
                    continue
            return self.shard_map.shard_for_token("name:" + name)
        return 0

    def _stale_fragments(
        self, groups: Dict[int, List[int]], name: Optional[str]
    ) -> List[Tuple[int, int]]:
        """Fragments this write will strand under the device's old name.

        A single Journal matches ``ensure_gateway`` by member first, so
        passing a *new* name renames the whole device.  On the fleet the
        device exists as per-shard fragments sharing the old name; only
        the shards carrying members of *this call* see the write, so
        every other same-named fragment (a name-anchored or
        subnet-linked one included) must be renamed explicitly or the
        aggregate re-merge — which matches by name — splits the device.
        Returns ``(shard, local_id)`` pairs to rename after the write."""
        if name is None or not groups:
            return []
        old_names = set()
        for shard, rids in groups.items():
            members = query_module.Members(rids)
            for fragment in self.clients[shard].query("gateways", members):
                if fragment.name and fragment.name != name:
                    old_names.add(fragment.name)
        if not old_names:
            return []
        named = query_module.Or(
            *(query_module.FieldEquals("name", old) for old in sorted(old_names))
        )
        stale: List[Tuple[int, int]] = []
        for shard, client in enumerate(self.clients):
            member_rids = set(groups.get(shard, ()))
            for fragment in client.query("gateways", named):
                if not member_rids.intersection(fragment.interface_ids):
                    stale.append((shard, fragment.record_id))
        return stale

    def ensure_gateway(
        self,
        *,
        source: str,
        name: Optional[str] = None,
        interface_ids: Iterable[int] = (),
    ) -> Tuple[GatewayRecord, bool]:
        groups: Dict[int, List[int]] = {}
        for gid in interface_ids:
            shard, rid = self._route_id(gid)
            groups.setdefault(shard, []).append(rid)
        stale = self._stale_fragments(groups, name)
        primary = self._anchor_shard(groups, name)
        order = [primary] + [shard for shard in sorted(groups) if shard != primary]
        record: Optional[GatewayRecord] = None
        changed = False
        for shard in order:
            self._c_routed.inc()
            local, shard_changed = self.clients[shard].ensure_gateway(
                source=source, name=name, interface_ids=groups.get(shard, [])
            )
            changed = changed or shard_changed
            if shard == primary:
                record = self._globalize_gateway(local, shard)
        for shard, local_id in stale:
            self._c_routed.inc()
            if self.clients[shard].rename_gateway(local_id, name, source=source):
                changed = True
        assert record is not None
        return record, changed

    def rename_gateway(self, record_id: int, name: str, *, source: str) -> bool:
        """Rename a gateway fleet-wide: the addressed fragment by id,
        then — fragments of one device share a name — every same-named
        fragment on the other shards."""
        shard, rid = self._route_id(record_id)
        addressed = self.clients[shard].query(
            "gateways", query_module.RecordIds([rid])
        )
        old = addressed[0].name if addressed else None
        self._c_routed.inc()
        changed = self.clients[shard].rename_gateway(rid, name, source=source)
        if old is not None and old != name:
            named = query_module.FieldEquals("name", old)
            for index, client in enumerate(self.clients):
                if index == shard:
                    continue
                for fragment in client.query("gateways", named):
                    self._c_routed.inc()
                    changed = (
                        client.rename_gateway(fragment.record_id, name, source=source)
                        or changed
                    )
        return changed

    def link_gateway_subnet(self, gateway_id: int, subnet_key: str, *, source: str) -> bool:
        """Attach gateway and subnet to each other.

        The subnet side of the link MUST land on the subnet's owning
        shard (``shard_for_subnet``): linking on the gateway's shard
        would mint a duplicate subnet record there, and scatter reads
        would then show the subnet twice.  When the two shards differ,
        the gateway's fragment on the subnet's shard carries the link —
        found (or created) by name, since fragments of one device share
        it.  A *nameless* cross-shard gateway has no cross-shard handle,
        so its link stays on the gateway's shard and the duplicate
        subnet record re-merges by key in the aggregate view only.
        """
        gateway_shard, rid = self._route_id(gateway_id)
        subnet_shard = self.shard_map.shard_for_subnet(subnet_key)
        self._c_routed.inc()
        if gateway_shard == subnet_shard:
            return self.clients[gateway_shard].link_gateway_subnet(
                rid, subnet_key, source=source
            )
        matches = self.clients[gateway_shard].query(
            "gateways", query_module.RecordIds([rid])
        )
        if not matches:
            raise KeyError(f"no gateway {gateway_id} (shard {gateway_shard})")
        name = matches[0].name
        if name is None:
            return self.clients[gateway_shard].link_gateway_subnet(
                rid, subnet_key, source=source
            )
        fragment, _changed = self.clients[subnet_shard].ensure_gateway(
            source=source, name=name
        )
        self._c_routed.inc()
        return self.clients[subnet_shard].link_gateway_subnet(
            fragment.record_id, subnet_key, source=source
        )

    def ensure_subnet(
        self, subnet_key: str, *, source: str, quality: str = "good", **stats: object
    ) -> Tuple[SubnetRecord, bool]:
        shard = self.shard_map.shard_for_subnet(subnet_key)
        self._c_routed.inc()
        record, changed = self.clients[shard].ensure_subnet(
            subnet_key, source=source, quality=quality, **stats
        )
        return self._globalize_subnet(record, shard), changed

    def delete_interface(self, record_id: int) -> bool:
        shard, rid = self._route_id(record_id)
        self._c_routed.inc()
        return self.clients[shard].delete_interface(rid)

    # -- absorb (replication write path) ----------------------------------

    def absorb_interface(self, record: InterfaceRecord) -> Tuple[InterfaceRecord, bool]:
        shard = self.shard_map.shard_for_record(record)
        self._c_routed.inc()
        local, changed = self.clients[shard].absorb_interface(record)
        return self._globalize_interface(local, shard), changed

    def absorb_gateway(
        self, record: GatewayRecord, interface_id_map: Dict[int, int]
    ) -> Tuple[GatewayRecord, bool]:
        """Route a foreign gateway: its members (translated to global
        ids by *interface_id_map*) are grouped by owning shard and each
        shard absorbs its fragment."""
        groups: Dict[int, Dict[int, int]] = {}
        for member in record.interface_ids:
            gid = interface_id_map.get(member)
            if gid is None or gid < 0:
                continue
            shard, rid = self._route_id(gid)
            groups.setdefault(shard, {})[member] = rid
        primary = self._anchor_shard(groups, record.name)
        order = [primary] + [shard for shard in sorted(groups) if shard != primary]
        merged: Optional[GatewayRecord] = None
        changed = False
        for shard in order:
            self._c_routed.inc()
            local, shard_changed = self.clients[shard].absorb_gateway(
                record, groups.get(shard, {})
            )
            changed = changed or shard_changed
            if shard == primary:
                merged = self._globalize_gateway(local, shard)
        assert merged is not None
        return merged, changed

    def absorb_subnet(self, record: SubnetRecord) -> Tuple[SubnetRecord, bool]:
        if record.subnet is None:
            raise ValueError("cannot absorb a subnet record with no subnet key")
        shard = self.shard_map.shard_for_subnet(record.subnet)
        self._c_routed.inc()
        local, changed = self.clients[shard].absorb_subnet(record)
        return self._globalize_subnet(local, shard), changed

    # -- reads -------------------------------------------------------------

    _GLOBALIZERS = {
        "interfaces": "_globalize_interface",
        "gateways": "_globalize_gateway",
        "subnets": "_globalize_subnet",
    }

    def query(self, kind: str, where=None) -> List:
        """Predicate query.  An interface query for one IP
        (``FieldEquals("ip", ...)``, what ``interfaces_by_ip`` sends) or
        for an ``IpRange``/``InSubnet`` inside one /``prefix`` network
        goes to that network's owning shard only, and raises
        :class:`ConnectionError` if the owner is down; anything else
        scatters — each shard evaluates the (shard-localized) predicate
        against its own indexes — and merges in global
        ``(last_modified, record_id)`` order."""
        kind = query_module.normalize_kind(kind)
        globalize = getattr(self, self._GLOBALIZERS[kind])
        shard = self._owner(kind, where)
        if shard is not None:
            self._c_routed.inc()
            down = self._g_down.labels(shard=str(shard))
            try:
                records = self.clients[shard].query(kind, where)
            except ConnectionError:
                down.set(1)
                raise
            down.set(0)
            return [globalize(record, shard) for record in records]

        def one_shard(client, index):
            localized = self._localize_predicate(where, index)
            return [globalize(r, index) for r in client.query(kind, localized)]

        return self._merge_records(self._scatter(one_shard))

    def _owner(self, kind: str, where) -> Optional[int]:
        """The one shard that holds every answer to an interface query
        by IP (one address, or a range inside one network), else None."""
        if kind != "interfaces":
            return None
        if isinstance(where, query_module.IpRange):
            return self.shard_map.shard_for_range(where.low, where.high)
        if (
            isinstance(where, query_module.FieldEquals)
            and where.field == "ip"
            and where.value is not None
        ):
            return self.shard_map.shard_for_ip(str(where.value))
        return None

    # -- topology ----------------------------------------------------------

    def _topology(self):
        """Router-side topology: scatter per-shard subgraphs, merge in
        the router.  The per-shard pulls ride a
        :class:`~repro.core.replicate.FederatedView` (one pipelined
        ``pull`` per shard, absorbed in shard index order — the same
        gather order every scatter read uses), so gateway and subnet
        fragments split across shards re-merge by identity before the
        graph is computed.  Evidence in the merged answers names
        gateways and subnets (globally meaningful); numeric gateway ids
        are aggregate-local.  A shard the refresh could not reach
        makes the answer partial, like any scatter read."""
        view = getattr(self, "_topology_view", None)
        if view is None:
            from .replicate import FederatedView

            view = self._topology_view = FederatedView(self.clients)
        view.refresh()
        self._note_down(list(view.stale_shards))
        if view.stale_shards:
            self._c_partial.inc()
        return view.journal.topology()

    def path(self, a: str, b: str):
        """Confidence-weighted route across the whole fleet's merged
        subgraphs; see :meth:`repro.core.topology.TopologyStore.path`."""
        return self._topology().path(a, b)

    def impact(self, target: str):
        """Fleet-wide blast radius of *target*; see
        :meth:`repro.core.topology.TopologyStore.impact`."""
        return self._topology().impact(target)

    def pull(self, since: int, where=None):
        """A full replication pull of the whole fleet (``since`` must be
        0): the pull is sent to every shard before any is waited on, and
        record ids come back global.  The revision is the fleet's scalar
        revision.  An incremental pull raises :class:`ValueError` —
        per-shard revision counters cannot share one cursor — and an
        unreachable shard raises :class:`ConnectionError`: a partial
        full pull would look complete to the replica."""
        if since:
            raise ValueError(
                "an incremental pull cannot be fanned out: per-shard "
                "revision counters are independent — replicate each "
                "shard directly"
            )
        from .replicate import begin_pull, gather_pulls

        self._c_scatter.inc()
        answers, lost, failure = gather_pulls([
            lambda client=client, index=index: begin_pull(
                client, 0, self._localize_predicate(where, index)
            )
            for index, client in enumerate(self.clients)
        ])
        if failure is not None:
            raise failure
        if lost:
            raise ConnectionError(
                f"shards {lost} unreachable: a full pull needs every shard"
            )
        globalizers = (
            self._globalize_interface,
            self._globalize_gateway,
            self._globalize_interface,
            self._globalize_subnet,
        )
        tables: Tuple[List[List[Any]], ...] = ([], [], [], [])
        for index, pulled in enumerate(answers):
            for table, records, globalize in zip(tables, pulled[1:], globalizers):
                table.append([globalize(record, index) for record in records])
        revision = sum(pulled[0] for pulled in answers)
        return (revision, *(self._merge_records(table) for table in tables))

    def counts(self) -> Dict[str, int]:
        """Fleet totals: per-shard counts summed key-wise.  Raises when
        any shard is unreachable — totals over a partial fleet would
        silently under-count."""
        totals: Dict[str, int] = {}
        for client in self.clients:
            for key, value in client.counts().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def metrics(self, *, spans: int = 50) -> Dict[str, Any]:
        """Per-shard registry snapshots (keyed by shard index) — the
        fleet has no single registry to snapshot."""
        return {
            "shards": [client.metrics(spans=spans) for client in self.clients]
        }

    def revision(self) -> int:
        """Scalar fleet revision: the sum of per-shard revisions (total
        revisions handed out fleet-wide; monotone)."""
        return self.vector_revision().scalar

    def vector_revision(self) -> VectorCursor:
        return VectorCursor(
            [client.counts()["revision"] for client in self.clients]
        )

    # -- change feed -------------------------------------------------------

    def changes_since(self, since: Any) -> JournalChanges:
        """The merged delta after a :class:`VectorCursor` (or 0 for the
        start of history).  The returned delta's ``vector`` field is the
        new cursor; its scalar ``since``/``revision`` are the sums.  An
        unreachable shard keeps its old cursor component and marks the
        delta incomplete (the partial-results flag of the feed path)."""
        components = _normalize_cursor(since, self.shards)
        merged = JournalChanges(since=sum(components), revision=0)
        new_vector = list(components)
        missing: List[int] = []
        for index, client in enumerate(self.clients):
            try:
                delta = client.changes_since(components[index])
            except ConnectionError:
                missing.append(index)
                merged.complete = False
                continue
            new_vector[index] = delta.revision
            merged.merge(self._globalize_changes(delta, index))
        # merge() folds shard-local since/revision counters; the
        # composed delta's scalar cursor is the vector sums.
        merged.since = sum(components)
        merged.revision = sum(new_vector)
        merged.vector = new_vector
        self._note_down(missing)
        if missing:
            self._c_partial.inc()
        return merged

    def subscribe(self, callback: Optional[Callable] = None, *, since: Any = 0) -> ShardedChangeFeed:
        """A composed change feed over every shard.  *since* is a
        :class:`VectorCursor` (or 0); callbacks are not supported on the
        composed feed — poll it."""
        if callback is not None:
            raise TypeError("ShardedClient.subscribe does not take a callback")
        components = _normalize_cursor(since, self.shards)
        feeds: List[Any] = []
        try:
            for index, client in enumerate(self.clients):
                if getattr(client, "journal", None) is not None:
                    feeds.append(
                        _LocalFeed(
                            client.journal.subscribe(since=components[index])
                        )
                    )
                else:
                    feeds.append(client.subscribe(since=components[index]))
        except BaseException:
            for feed in feeds:
                feed.close()
            raise
        return ShardedChangeFeed(feeds, self)

    # -- negative cache ----------------------------------------------------

    def _negative_shard(self, kind: str, key: str) -> int:
        return self.shard_map.shard_for_token(f"neg:{kind}:{key}")

    def negative_put(self, kind: str, key: str, *, ttl: float) -> None:
        self._c_routed.inc()
        self.clients[self._negative_shard(kind, key)].negative_put(
            kind, key, ttl=ttl
        )

    def negative_check(self, kind: str, key: str) -> bool:
        self._c_routed.inc()
        return self.clients[self._negative_shard(kind, key)].negative_check(kind, key)

    # -- bulk --------------------------------------------------------------

    def snapshot(self) -> Journal:
        """A detached aggregate Journal: every shard's records merged by
        identity (global ids do not survive — the aggregate allocates
        its own, like any replica).  Built with the federation-layer
        replicator, so gateway fragments re-join here."""
        from .replicate import JournalReplicator

        aggregate = Journal()
        target = LocalClient(aggregate)
        for client in self.clients:
            JournalReplicator(client, target).sync(full=True)
        return aggregate

    def shard_info(self) -> Optional[Dict[str, Any]]:
        """Routers do not nest."""
        return None


class _ShardedReply:
    """Reassembles per-shard ``observe_batch`` replies (or, from a shard
    without a pipelined path, its settled response) into one response
    whose ``responses`` list is in original submission order."""

    __slots__ = ("_size", "_parts")

    def __init__(self, size: int, parts: List[Tuple[List[int], Any]]) -> None:
        self._size = size
        self._parts = parts

    def wait(self, timeout: Optional[float] = -1.0) -> Dict[str, Any]:
        responses: List[Dict[str, Any]] = [
            {"ok": True, "changed": False} for _ in range(self._size)
        ]
        for positions, reply in self._parts:
            response = reply if isinstance(reply, dict) else reply.wait(timeout)
            for position, item in zip(positions, response.get("responses", [])):
                responses[position] = item
        return {"ok": True, "responses": responses}


# The router speaks the sink protocol by duck typing, like RemoteClient.
ObservationSink.register(ShardedClient)
