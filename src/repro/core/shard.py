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

Record ids are fleet-wide where they are issued: the handshake seats
shard ``k`` of ``n``'s Journal, which then issues ids
``global_id(r, k, n) = r * n + k`` (:meth:`~repro.core.journal.Journal.seat`).
So ids never collide across shards, the router passes every record,
delta and predicate through as the shard answers it, and routes an id
to shard ``id % n``.  The provisional ``-1`` id used for outage writes
cannot be routed.

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
import time
import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import query as query_module
from . import wire
from .client import (
    ChangeFeed,
    JournalClient,
    LocalClient,
    begin_call,
    install_op_methods,
    scatter,
)
from .journal import Journal, JournalChanges, global_id
from .records import GatewayRecord, InterfaceRecord, Observation
from .replicate import FederatedView
from .sink import FlushStats
from .telemetry import MetricsRegistry

__all__ = [
    "ShardMap",
    "VectorCursor",
    "ShardedClient",
    "ShardedChangeFeed",
    "ShardFlushError",
    "global_id",
    "shard_of_id",
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


def shard_of_id(record_id: int, shards: int) -> int:
    """The shard that issued *record_id* (see :func:`global_id`)."""
    if int(record_id) < 0:
        raise ValueError(f"cannot route provisional record id {record_id}")
    return int(record_id) % shards


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
        return {**self.to_dict(), "index": index}

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


def _refuse_since_revision(predicate) -> None:
    """A predicate tree holding a non-zero ``SinceRevision`` cannot fan
    out: each shard counts its own revisions."""
    if isinstance(predicate, (query_module.And, query_module.Or)):
        for child in predicate.children:
            _refuse_since_revision(child)
    elif isinstance(predicate, query_module.Not):
        _refuse_since_revision(predicate.child)
    elif isinstance(predicate, query_module.SinceRevision) and predicate.rev:
        raise ValueError(
            "SinceRevision cannot be fanned out: per-shard revision "
            "counters are independent — query each shard directly or "
            "use changes_since with a VectorCursor"
        )


def _compose(
    deltas: Iterable[Optional[JournalChanges]], before: Sequence[int], after: Sequence[int]
) -> JournalChanges:
    """Per-shard deltas folded into one fleet delta, moving
    the vector cursor from *before* to *after*: its ``since``/``revision``
    are the scalar views of the two and :attr:`JournalChanges.vector`
    carries *after* for resumption.  A None delta — a shard that could
    not be reached — marks the fold incomplete."""
    merged = JournalChanges(since=0, revision=0)
    for delta in deltas:
        if delta is None:
            merged.complete = False
        else:
            merged.merge(delta)
    # merge() folds shard-local since/revision counters; the fleet
    # cursor's scalars are the vector sums.
    merged.since, merged.revision, merged.vector = sum(before), sum(after), list(after)
    return merged


class ShardedChangeFeed(ChangeFeed):
    """Per-shard change feeds composed behind one poll surface: the
    deltas one poll collects are folded with :func:`_compose`."""

    def __init__(self, feeds: Sequence[Any]) -> None:
        self._feeds = list(feeds)
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
        arrives within *timeout* seconds.  A pass asks every member
        with ``poll(0.0)`` and folds all it got into one delta.  When a
        pass finds nothing, one wait covers every member's push stream
        at once (:func:`~repro.core.wire.wait_for_frames`), so a delta
        on any shard is handed over when it arrives; a member whose
        poll answers at once is asked once per pass.  With no stream
        to wait on, one pass is the whole poll (DESIGN.md §11)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            deltas: List[JournalChanges] = []
            before = self.vector
            for feed in self._feeds:
                delta = feed.poll(0.0)
                while delta is not None:
                    deltas.append(delta)
                    delta = feed.poll(0.0)
            if deltas:
                return _compose(deltas, before.revisions, self.vector.revisions)
            readers = [feed.reader() for feed in self._feeds]
            readers = [reader for reader in readers if reader is not None]
            remaining = None if deadline is None else deadline - time.monotonic()
            if not readers or (remaining is not None and remaining <= 0):
                return None
            wire.wait_for_frames(readers, remaining)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for feed in self._feeds:
            try:
                feed.close()
            except (OSError, ConnectionError):
                pass


class ShardedClient(JournalClient):
    """Scatter-gather router over *N* shard journal clients.

    Answers the one :class:`~repro.core.client.JournalClient` surface
    (sink protocol, batches, queries, change feed) over shards that
    answer it too, so anything that takes a
    :class:`~repro.core.client.LocalClient` or
    :class:`~repro.core.client.RemoteClient` — a BatchingSink, an
    explorer, the correlator's feed, the CLI — can take the router
    instead.  Its op methods are derived from the ``route`` column of
    :data:`~repro.core.wire.OPS` (see :func:`_route`); the rest — the
    gateway writes, batched ingest, snapshot and handshake — is
    written out here.

    Record ids on this surface are the ids the shards issued: the
    handshake seats each shard so its ids are fleet-wide, and an
    id-taking operation goes to shard ``id % shards``.  Gateways whose
    members span shards are kept as per-shard fragments (same name) and
    re-merged by the aggregate view — the router never moves records
    across shards.

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
        #: the handshake ran, so every shard issues ids on its stride
        self._seated = check
        if check:
            self._verify_shards()

    @property
    def shards(self) -> int:
        return len(self.clients)

    def _verify_shards(self) -> None:
        """Handshake, one ``shard_info`` call per shard: a shard that
        holds no identity and has issued no id is seated at its index of
        this router's map (:meth:`~repro.core.journal.Journal.seat`), and
        every shard must then answer exactly that identity."""
        for index, client in enumerate(self.clients):
            expected = self.shard_map.identity(index)
            info = client.shard_info(seat=expected) or {}
            mismatched = {
                key: (info.get(key), value)
                for key, value in expected.items()
                if info.get(key) != value
            }
            if mismatched:
                raise ValueError(
                    f"shard {index} handshake mismatch: {mismatched} "
                    "(server-side --shard K/N disagrees with this router, "
                    "or the shard issued ids before it was seated)"
                )

    def _shard_of_id(self, record_id: int) -> int:
        """The shard that issued *record_id* — known only to a router
        whose handshake seated its shards: unseated shards all issue
        1, 2, 3…, so ``id % n`` would name another shard's record."""
        if not self._seated:
            raise ValueError(
                f"cannot route record id {record_id}: this router skipped the "
                "shard_info handshake (check=False), so its shards' ids need "
                "not name their shard"
            )
        return shard_of_id(record_id, self.shards)

    def _mark(self, shard: int, down: bool) -> None:
        """Set *shard*'s ``fremont_shard_down`` gauge, writing it only
        when its value flips."""
        gauge = self._down[shard]
        if gauge.value != down:
            gauge.set(int(down))

    # -- routing and fan-out ------------------------------------------------

    def _routed(self, shard: int, name: str, arguments: Dict[str, Any]) -> Any:
        """``name`` on the one shard that owns the call.  A shard it
        cannot reach is marked down and the call raises, as on a plain
        client."""
        self._c_routed.inc()
        try:
            answer = getattr(self.clients[shard], name)(**arguments)
        except ConnectionError:
            self._mark(shard, True)
            raise
        self._mark(shard, False)
        return answer

    def _scatter(self, name: str, arguments: Dict[str, Any], *, partial: bool) -> List[Any]:
        """The one fan-out: ``name`` on every shard, every call started
        before any is waited on (:func:`~repro.core.client.scatter`),
        with ``since`` split into each shard's component of a vector
        cursor.  Returns the answers in shard order.

        The down-shard rule: an unreachable shard is noted
        (:meth:`_note_down`).  When the answer can say it is *partial* —
        a merged record list, a change delta marked incomplete — that
        shard's answer is None; otherwise (a full pull, totals, metrics)
        the fan-out raises :class:`ConnectionError`.  Any other error is
        raised once every started call has been waited on."""
        _refuse_since_revision(arguments.get("where"))
        cursor = "since" in arguments and _normalize_cursor(arguments["since"], self.shards)
        starters = []
        for index, client in enumerate(self.clients):
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
        return answers

    def _note_down(self, missing: List[int]) -> None:
        """Record the fleet's down/up view after a fan-out: each shard's
        ``fremont_shard_down`` gauge, :attr:`partial`,
        :attr:`missing_shards` and the partial-read counter."""
        self.partial = bool(missing)
        self.missing_shards = missing
        for index in range(self.shards):
            self._mark(index, index in missing)
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

    # -- closing -----------------------------------------------------------

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
            self._mark(index, index in failures)
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

    def observe_batch_nowait(
        self, observations: Sequence[Observation], *, coalesced: int = 0
    ) -> "_ShardedReply":
        """Partition a batch by owning shard and start each sub-batch on
        its shard (every remote one on the wire before any is waited
        on); the returned reply reassembles the per-observation
        responses in submission order.  The coalesced count is
        accounted to the first participating shard (it is fleet-level
        ingest accounting, not per-record state)."""
        groups = self._partition(observations)
        parts: List[Tuple[List[int], Any]] = []
        for shard in sorted(groups):
            positions = [p for p, _ in groups[shard]]
            items = [o for _, o in groups[shard]]
            reply = self.clients[shard].observe_batch_nowait(
                items, coalesced=0 if parts else coalesced
            )
            parts.append((positions, reply))
        return _ShardedReply(len(observations), parts)

    # -- anchored: gateway writes ------------------------------------------

    def _gateways(
        self, wheres: Dict[int, Any], *, tolerant: bool = False
    ) -> Dict[int, List[GatewayRecord]]:
        """Each shard's gateway fragments matching its
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
            fragment, shard_changed = write(shard)
            changed = changed or shard_changed
            if shard == primary:
                record = fragment
        for shard, record_id in stale:
            self._c_routed.inc()
            changed = self.clients[shard].rename_gateway(record_id, name, source=source) or changed
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
        Returns ``(shard, record_id)`` pairs to rename after the write."""
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
        for record_id in interface_ids:
            groups.setdefault(self._shard_of_id(record_id), []).append(record_id)
        return self._anchored(groups, name, source, lambda shard: self.clients[
            shard].ensure_gateway(source=source, name=name, interface_ids=groups.get(shard, [])))

    def rename_gateway(self, record_id: int, name: str, *, source: str) -> bool:
        """Rename a gateway fleet-wide: the addressed fragment by id,
        then — fragments of one device share a name — every same-named
        fragment on the other shards."""
        shard = self._shard_of_id(record_id)
        addressed = self.clients[shard].query(
            "gateways", query_module.RecordIds([record_id])
        )
        old = addressed[0].name if addressed else None
        self._c_routed.inc()
        changed = self.clients[shard].rename_gateway(record_id, name, source=source)
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
        gateway_shard = self._shard_of_id(gateway_id)
        subnet_shard = self.shard_map.shard_for_subnet(subnet_key)
        self._c_routed.inc()
        if gateway_shard == subnet_shard:
            return self.clients[gateway_shard].link_gateway_subnet(
                gateway_id, subnet_key, source=source
            )
        matches = self.clients[gateway_shard].query(
            "gateways", query_module.RecordIds([gateway_id])
        )
        if not matches:
            raise KeyError(f"no gateway {gateway_id} (shard {gateway_shard})")
        name = matches[0].name
        if name is None:
            return self.clients[gateway_shard].link_gateway_subnet(
                gateway_id, subnet_key, source=source
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
        """Route a foreign gateway: its members (translated to fleet ids
        by *interface_id_map*) are grouped by owning shard and each
        shard absorbs its fragment.  A named gateway's subnet links land
        on each subnet's owning shard, as :meth:`link_gateway_subnet`
        places them."""
        groups: Dict[int, List[int]] = {}
        id_maps: Dict[int, Dict[int, int]] = {}
        for member in foreign.interface_ids:
            record_id = interface_id_map.get(member)
            if record_id is None or record_id < 0:
                continue
            shard = self._shard_of_id(record_id)
            groups.setdefault(shard, []).append(record_id)
            id_maps.setdefault(shard, {})[member] = record_id
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

    def subscribe(self, *, since: Any = 0) -> ShardedChangeFeed:
        """A composed change feed over every shard's own feed.  *since*
        is a :class:`VectorCursor` (or 0)."""
        components = _normalize_cursor(since, self.shards)
        feeds: List[ChangeFeed] = []
        try:
            for client, component in zip(self.clients, components):
                feeds.append(client.subscribe(since=component))
        except BaseException:
            for feed in feeds:
                feed.close()
            raise
        return ShardedChangeFeed(feeds)

    # -- aggregate and handshake ------------------------------------------

    def snapshot(self) -> Journal:
        """A detached aggregate Journal: every shard's records merged by
        identity (fleet ids do not survive — the aggregate allocates
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

    def shard_info(self, seat: Optional[Dict[str, int]] = None) -> Optional[Dict[str, Any]]:
        """Routers do not nest: a router is no shard and takes no seat."""
        return None


# ---------------------------------------------------------------------------
# methods derived from the wire.OPS route column
# ---------------------------------------------------------------------------


def _subnet_shard(router: ShardedClient, arguments: Dict[str, Any]) -> int:
    key = arguments["subnet_key"] if "subnet_key" in arguments else arguments["foreign"].subnet
    if key is None:
        raise ValueError("cannot place a subnet record with no subnet key")
    return router.shard_map.shard_for_subnet(key)


#: ``place`` key -> the owning shard of a call's arguments
_PLACES: Dict[str, Callable[[ShardedClient, Dict[str, Any]], int]] = {
    "observation": lambda router, a: router.shard_map.shard_for_observation(a["observation"]),
    "interface": lambda router, a: router.shard_map.shard_for_record(a["foreign"]),
    "subnet": _subnet_shard,
    "record_id": lambda router, a: router._shard_of_id(a["record_id"]),
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
    # An unreachable shard keeps its cursor component.
    after = [
        component if delta is None else delta.revision
        for component, delta in zip(components, deltas)
    ]
    return _compose(deltas, components, after)


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
    """Reassembles per-shard ``observe_batch`` replies into one response
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
            response = reply.wait(timeout)
            for position, item in zip(positions, response.get("responses", [])):
                responses[position] = item
        return {"ok": True, "responses": responses}

