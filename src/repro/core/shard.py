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
* :class:`ShardedClient` — the router, with the full
  :class:`~repro.core.sink.ObservationSink` + query/feed client
  surface.  Its op methods are derived from the ``route`` column of
  :data:`~repro.core.wire.OPS`, so an op is one Journal method plus one
  table row.  Derived policies: ``place:<key>`` (the one shard the key
  argument maps to), ``owner`` (the one shard holding every answer,
  else as ``scatter``), ``scatter`` (every shard, answers merged:
  records in ``(last_modified, record_id)`` order, numbers and counts
  summed), ``vector`` (each shard at its :class:`VectorCursor`
  component), ``gather`` (answers listed) and ``view`` (the router's
  aggregate).  Hand-written: ``anchored`` (gateway writes),
  ``partition`` (batched ingest), ``aggregate`` (a detached snapshot)
  and ``router`` (the handshake).
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

Degradation contract: every fan-out starts its call on every shard
before it waits on any, and one rule handles a shard it cannot reach
(:meth:`ShardedClient._scatter`): the shard is marked down and
:attr:`ShardedClient.partial` set; a read whose answer can say it is
partial (a merged record list, a delta marked incomplete, a topology
answer) answers from the live shards, and any other raises.  Routed
writes inherit :class:`~repro.core.client.RemoteClient`
reconnect-with-replay.
"""

from __future__ import annotations

import copy
import functools
import inspect
import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import query as query_module
from . import wire
from .client import LocalClient, begin_call, install_op_methods, scatter
from .journal import Journal, JournalChanges
from .records import GatewayRecord, InterfaceRecord, Observation, SubnetRecord
from .replicate import FederatedView
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
    holds (a ``changes_since`` or ``pull`` cursor).  A scalar is only
    meaningful at 0 (start of history): a non-zero sum cannot be split
    back into per-shard positions."""
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
                "into per-shard positions, so an incremental pull or "
                "changes_since needs the vector"
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
    instead.  Its op methods are derived from the ``route`` column of
    :data:`~repro.core.wire.OPS` (see :func:`_route`); the rest — the
    gateway writes, batched ingest, snapshot and handshake — is
    written out here.

    Record ids on this surface are *global* ids; id-taking operations
    decode them back to the owning shard.  Gateways whose members span
    shards are kept as per-shard fragments (same name) and re-merged by
    the aggregate view — the router never moves records across shards.

    A fan-out that cannot reach a shard sets :attr:`partial` (listing
    the shard in :attr:`missing_shards`) until the next complete one;
    see :meth:`_scatter` for when it answers from the live shards and
    when it raises.  Routed single-shard operations raise
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
        #: True while the most recent fan-out was missing at least one
        #: shard (cleared by the next complete one)
        self.partial = False
        #: shard indexes the last fan-out could not reach
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
        down = self.telemetry.gauge(
            "fremont_shard_down",
            "1 while the router considers this shard unreachable",
            labels=("shard",),
        )
        self._down = [down.labels(shard=str(index)) for index in range(self.shards)]
        #: the aggregate ``view`` ops answer from, built on first use
        self._view: Optional[FederatedView] = None
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

    _GLOBALIZERS = {
        InterfaceRecord: _globalize_interface,
        GatewayRecord: _globalize_gateway,
        SubnetRecord: _globalize_subnet,
        JournalChanges: _globalize_changes,
    }

    def _globalize(self, value: Any, shard: int) -> Any:
        """Shard *shard*'s answer as the fleet sees it: the record ids of
        records and change deltas, and of any tuple or list of them, made
        global; anything else passes."""
        globalize = self._GLOBALIZERS.get(type(value))
        if globalize is not None:
            return globalize(self, value, shard)
        if isinstance(value, (tuple, list)):
            return type(value)(self._globalize(item, shard) for item in value)
        return value

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

    # -- routing and fan-out ------------------------------------------------

    def _routed(self, shard: int, name: str, arguments: Dict[str, Any]) -> Any:
        """``name`` on the one shard that owns the call.  A shard it
        cannot reach is marked down and the call raises, as on a plain
        client."""
        self._c_routed.inc()
        try:
            answer = getattr(self.clients[shard], name)(**arguments)
        except ConnectionError:
            self._down[shard].set(1)
            raise
        self._down[shard].set(0)
        return self._globalize(answer, shard)

    def _scatter(self, name: str, arguments: Dict[str, Any], *, partial: bool) -> List[Any]:
        """The one fan-out: ``name`` on every shard, every call started
        before any is waited on (:func:`~repro.core.client.scatter`),
        with ``where`` localized to each shard's record ids and ``since``
        split into each shard's component of a vector cursor.  Returns
        the globalized answers in shard order.

        The down-shard rule: an unreachable shard is noted
        (:meth:`_note_down`).  When the answer can say it is *partial* —
        a merged record list, a change delta marked incomplete — that
        shard's answer is None; otherwise (a full pull, totals, metrics)
        the fan-out raises :class:`ConnectionError`.  Any other error is
        raised once every started call has been waited on."""
        where = arguments.get("where")
        cursor = "since" in arguments and _normalize_cursor(arguments["since"], self.shards)
        starters = []
        for index, client in enumerate(self.clients):
            if where is not None:
                arguments["where"] = self._localize_predicate(where, index)
            if cursor:
                arguments["since"] = cursor[index]
            starters.append(
                functools.partial(begin_call, client, name, **arguments)
            )
        self._c_scatter.inc()
        answers, missing, failure = scatter(starters)
        self._note_down(missing)
        if failure is not None or missing and not partial:
            raise failure or ConnectionError(f"shards {missing} unreachable: {name} needs all")
        return [
            None if answer is None else self._globalize(answer, index)
            for index, answer in enumerate(answers)
        ]

    def _note_down(self, missing: List[int]) -> None:
        """Record the fleet's down/up view after a fan-out: each shard's
        ``fremont_shard_down`` gauge, :attr:`partial`,
        :attr:`missing_shards` and the partial-read counter."""
        self.partial = bool(missing)
        self.missing_shards = missing
        for index, gauge in enumerate(self._down):
            gauge.set(1 if index in missing else 0)
        if missing:
            self._c_partial.inc()

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

    def _fold(self, answers: List[Any]) -> Any:
        """Every shard's answer as one: record lists merged in
        ``(last_modified, record_id)`` order, numbers and counts summed,
        tuples column by column."""
        first = answers[0]
        if isinstance(first, tuple):
            return tuple(self._fold(list(column)) for column in zip(*answers))
        if isinstance(first, list):
            return self._merge_records(answers)
        if isinstance(first, dict):
            return {key: sum(answer[key] for answer in answers) for key in first}
        return sum(answers)

    def _owner(self, arguments: Dict[str, Any]) -> Optional[int]:
        """The one shard that holds every answer to an interface query
        by IP (one address, or a range inside one network), else None."""
        if query_module.normalize_kind(arguments["kind"]) != "interfaces":
            return None
        where = arguments.get("where")
        if isinstance(where, query_module.IpRange):
            return self.shard_map.shard_for_range(where.low, where.high)
        if (
            isinstance(where, query_module.FieldEquals)
            and where.field == "ip"
            and where.value is not None
        ):
            return self.shard_map.shard_for_ip(str(where.value))
        return None

    def _refreshed_view(self) -> FederatedView:
        """The router's :class:`~repro.core.replicate.FederatedView` of
        every shard, brought up to date: fragments split across shards
        re-merge there by identity, so topology evidence names gateways
        and subnets, and its numeric gateway ids are aggregate-local.  A
        shard the refresh could not reach makes the answer partial."""
        if self._view is None:
            self._view = FederatedView(self.clients)
        self._view.refresh()
        self._note_down(list(self._view.stale_shards))
        return self._view

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

    # -- partition: batched ingest -------------------------------------------

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
                self._down[index].set(1)
            else:
                self._down[index].set(0)
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

    # -- anchored: gateway writes ------------------------------------------

    def _gateways(
        self, wheres: Dict[int, Any], *, tolerant: bool = False
    ) -> Dict[int, List[GatewayRecord]]:
        """Each shard's gateway fragments (shard-local ids) matching its
        predicate in *wheres*, every query started before any answer is
        awaited.  An unreachable shard is left out when *tolerant*, and
        otherwise raises, as the write these lookups serve would."""
        shards = sorted(wheres)
        answers, missing, failure = scatter([
            functools.partial(begin_call, self.clients[shard], "query", "gateways", wheres[shard])
            for shard in shards
        ])
        if failure is not None or missing and not tolerant:
            raise failure or ConnectionError(f"shards {[shards[i] for i in missing]} unreachable")
        return {shard: answer for shard, answer in zip(shards, answers) if answer is not None}

    def _anchor_shard(
        self, groups: Dict[int, Any], name: Optional[str]
    ) -> int:
        """The shard that owns a gateway write: the lowest shard with
        members in *groups* (deterministic), the lowest shard already
        holding a fragment of the name, the name hash, else shard 0.

        The existing-fragment probe matters for equivalence: a single
        Journal matches a memberless ``ensure_gateway`` against the
        named gateway wherever it is, and gateway identity follows
        *members*, so the device can later be renamed away.  Minting a
        fresh fragment on the name-hash shard instead would leave an
        empty orphan that no re-merge can reclaim once the real
        gateway's name moves on.  The probe is best-effort: with a
        shard unreachable, the write falls back to the hash anchor
        rather than failing."""
        members = [shard for shard, ids in groups.items() if ids]
        if members:
            return min(members)
        if name:
            where = query_module.FieldEquals("name", name)
            found = self._gateways(dict.fromkeys(range(self.shards), where), tolerant=True)
            return min(
                (shard for shard, fragments in found.items() if fragments),
                default=self.shard_map.shard_for_token("name:" + name),
            )
        return 0

    def _anchored(
        self, groups: Dict[int, List[int]], name: Optional[str], source: str, write: Callable
    ) -> Tuple[GatewayRecord, bool]:
        """One gateway write: ``write(shard)`` on the anchor shard
        (:meth:`_anchor_shard`), then on every other shard in *groups*
        (shard -> member ids), then the renames of the device's stale
        fragments (:meth:`_stale_fragments`).  Returns the anchor's
        fragment and whether any shard changed."""
        stale = self._stale_fragments(groups, name)
        primary = self._anchor_shard(groups, name)
        record, changed = None, False
        for shard in [primary] + [shard for shard in sorted(groups) if shard != primary]:
            self._c_routed.inc()
            local, shard_changed = write(shard)
            changed = changed or shard_changed
            if shard == primary:
                record = self._globalize_gateway(local, shard)
        for shard, local_id in stale:
            self._c_routed.inc()
            changed = self.clients[shard].rename_gateway(local_id, name, source=source) or changed
        return record, changed

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
        if name is None:
            return []
        members = self._gateways({
            shard: query_module.Members(rids) for shard, rids in groups.items() if rids
        })
        old_names = {
            fragment.name
            for fragments in members.values()
            for fragment in fragments
            if fragment.name and fragment.name != name
        }
        if not old_names:
            return []
        named = query_module.Or(
            *(query_module.FieldEquals("name", old) for old in sorted(old_names))
        )
        return [
            (shard, fragment.record_id)
            for shard, fragments in self._gateways(
                dict.fromkeys(range(self.shards), named)
            ).items()
            for fragment in fragments
            if not set(groups.get(shard, ())).intersection(fragment.interface_ids)
        ]

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
        return self._anchored(groups, name, source, lambda shard: self.clients[
            shard].ensure_gateway(source=source, name=name, interface_ids=groups.get(shard, [])))

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
            others = dict.fromkeys((i for i in range(self.shards) if i != shard), named)
            for index, fragments in self._gateways(others).items():
                for fragment in fragments:
                    self._c_routed.inc()
                    changed = (
                        self.clients[index].rename_gateway(
                            fragment.record_id, name, source=source
                        )
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

    def absorb_gateway(
        self, foreign: GatewayRecord, interface_id_map: Dict[int, int]
    ) -> Tuple[GatewayRecord, bool]:
        """Route a foreign gateway: its members (translated to global
        ids by *interface_id_map*) are grouped by owning shard and each
        shard absorbs its fragment.  A named gateway's subnet links land
        on each subnet's owning shard, as :meth:`link_gateway_subnet`
        places them."""
        groups: Dict[int, List[int]] = {}
        id_maps: Dict[int, Dict[int, int]] = {}
        for member in foreign.interface_ids:
            gid = interface_id_map.get(member)
            if gid is None or gid < 0:
                continue
            shard, rid = self._route_id(gid)
            groups.setdefault(shard, []).append(rid)
            id_maps.setdefault(shard, {})[member] = rid
        links: Dict[int, Dict[str, Any]] = {}
        if foreign.name is not None:
            for key, attribute in foreign.connected_subnets.items():
                shard = self.shard_map.shard_for_subnet(key)
                links.setdefault(shard, {})[key] = attribute
                groups.setdefault(shard, [])

        def absorb(shard: int) -> Tuple[GatewayRecord, bool]:
            fragment = foreign
            if foreign.name is not None:
                fragment = copy.copy(foreign)
                fragment.connected_subnets = links.get(shard, {})
            return self.clients[shard].absorb_gateway(fragment, id_maps.get(shard, {}))

        return self._anchored(groups, foreign.name, "replica", absorb)

    # -- change feed -------------------------------------------------------

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

    # -- aggregate and handshake ------------------------------------------

    def snapshot(self) -> Journal:
        """A detached aggregate Journal: every shard's records merged by
        identity (global ids do not survive — the aggregate allocates
        its own, like any replica), gateway fragments re-joined.  One
        full refresh of a new :class:`~repro.core.replicate.FederatedView`;
        a shard it cannot reach raises, as a partial aggregate would look
        complete."""
        view = FederatedView(self.clients)
        view.refresh(full=True)
        if view.stale_shards:
            raise ConnectionError(
                f"shards {view.stale_shards} unreachable: a snapshot needs every shard"
            )
        return view.journal

    def shard_info(self) -> Optional[Dict[str, Any]]:
        """Routers do not nest."""
        return None


# ---------------------------------------------------------------------------
# methods derived from the wire.OPS route column
# ---------------------------------------------------------------------------


def _subnet_shard(router: ShardedClient, arguments: Dict[str, Any]) -> int:
    key = arguments["subnet_key"] if "subnet_key" in arguments else arguments["foreign"].subnet
    if key is None:
        raise ValueError("cannot place a subnet record with no subnet key")
    return router.shard_map.shard_for_subnet(key)


def _id_shard(router: ShardedClient, arguments: Dict[str, Any]) -> int:
    shard, arguments["record_id"] = router._route_id(arguments["record_id"])
    return shard


#: ``place`` key -> the owning shard of a call's arguments (a
#: global id argument is rewritten to the owner's local id)
_PLACES: Dict[str, Callable[[ShardedClient, Dict[str, Any]], int]] = {
    "observation": lambda router, a: router.shard_map.shard_for_observation(a["observation"]),
    "interface": lambda router, a: router.shard_map.shard_for_record(a["foreign"]),
    "subnet": _subnet_shard,
    "record_id": _id_shard,
    "negative": lambda router, a: router.shard_map.shard_for_token(f"neg:{a['kind']}:{a['key']}"),
}


def _placed(router: ShardedClient, name: str, key: str, arguments: Dict[str, Any]) -> Any:
    shard = _PLACES[key](router, arguments)
    return router._routed(shard, name, arguments)


def _owned(router: ShardedClient, name: str, key: str, arguments: Dict[str, Any]) -> Any:
    shard = router._owner(arguments)
    if shard is not None:
        return router._routed(shard, name, arguments)
    return router._merge_records(router._scatter(name, arguments, partial=True))


def _scattered(router: ShardedClient, name: str, key: str, arguments: Dict[str, Any]) -> Any:
    return router._fold(router._scatter(name, arguments, partial=False))


def _vectored(router: ShardedClient, name: str, key: str, arguments: Dict[str, Any]) -> Any:
    components = _normalize_cursor(arguments["since"], router.shards)
    deltas = router._scatter(name, arguments, partial=True)
    merged = JournalChanges(since=sum(components), revision=0)
    vector = list(components)
    for index, delta in enumerate(deltas):
        if delta is None:
            # An unreachable shard keeps its cursor component.
            merged.complete = False
            continue
        vector[index] = delta.revision
        merged.merge(delta)
    # merge() folds shard-local since/revision counters; the composed
    # delta's scalar cursor is the vector sums.
    merged.since, merged.revision, merged.vector = sum(components), sum(vector), vector
    return merged


def _gathered(router: ShardedClient, name: str, key: str, arguments: Dict[str, Any]) -> Any:
    return {"shards": router._scatter(name, arguments, partial=False)}


def _viewed(router: ShardedClient, name: str, key: str, arguments: Dict[str, Any]) -> Any:
    return getattr(router._refreshed_view().journal, name)(**arguments)


#: the derived policies, each serving ``(router, method name, place key,
#: the call's arguments by name)``; any other route names a hand-written one
_POLICIES: Dict[str, Callable[..., Any]] = {
    "place": _placed,
    "owner": _owned,
    "scatter": _scattered,
    "vector": _vectored,
    "gather": _gathered,
    "view": _viewed,
}


def _route(op: str, name: str) -> Optional[Callable]:
    """A ``build`` for :func:`~repro.core.client.install_op_methods`: the
    router's method *name* for *op*, served by the policy its ``route``
    names and dressed as the Journal method (or, for a client-only
    method, the :class:`LocalClient` one); None for a hand-written
    policy."""
    policy, _, key = (wire.OPS[op].route or "").partition(":")
    serve = _POLICIES.get(policy)
    if serve is None:
        return None
    model = getattr(Journal, name, None)
    if not callable(model):
        model = getattr(LocalClient, name)
    signature = inspect.signature(model)
    params = list(signature.parameters.values())[1:]
    bind = wire.binder(params)
    spread = next((p.name for p in params if p.kind is p.VAR_KEYWORD), None)

    def method(self, *args, **kwargs):
        # Every argument by name; a ``**`` parameter's keywords spread.
        arguments = bind(args, kwargs)
        if spread in arguments:
            arguments.update(arguments.pop(spread))
        return serve(self, name, key, arguments)

    method.__name__, method.__doc__, method.__signature__ = name, model.__doc__, signature
    return method


install_op_methods(ShardedClient, _route)


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
