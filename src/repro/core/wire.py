"""Wire codec for Journal records and the Journal Server protocol.

The paper's components "communicate via BSD sockets"; this module
defines the serialised form: newline-delimited JSON objects.  The same
codec handles on-disk persistence (the Journal Server "writes to disk
periodically and at termination").

Framing and pipelining (DESIGN.md §10): every message is one JSON
object terminated by ``\\n``.  A request may carry an ``"id"`` — any
JSON-safe integer chosen by the client — and its response echoes the
same ``id``.  Requests carrying ids may be *pipelined*: several can be
in flight on one connection, and their responses may return in any
order (write ops still execute in submission order per connection).
Requests without an id are answered strictly in order, one at a time —
the pre-pipelining contract, kept for dumb clients.  Server-initiated
frames (the ``subscribe`` stream) carry an ``"event"`` key instead of
an ``id``.

Every op is declared once, in :data:`OPS`.  An op that is one plain
Journal method call is declared by its row alone: :class:`JournalCall`
derives its request fields, reply keys and value codecs from the row
and the method's signature, for the server and the clients alike.
"""

from __future__ import annotations

import collections.abc
import functools
import inspect
import json
import select
import socket
import time
import typing
from typing import (
    Any, Callable, Dict, FrozenSet, List, NamedTuple, NoReturn, Optional, Sequence,
    Tuple,
)

import orjson

from .records import (
    Attribute,
    GatewayRecord,
    InterfaceRecord,
    Observation,
    SubnetRecord,
)

__all__ = [
    "CONTROL_OPS",
    "COUNTER_SCHEMA",
    "CounterSpec",
    "INLINE_OPS",
    "INLINE_WRITES",
    "JOURNAL_COUNTERS",
    "JournalCall",
    "OPS",
    "OpSpec",
    "READ_OPS",
    "RUN_OUTCOMES",
    "WIRE_OPS",
    "WRITE_OPS",
    "FrameReader",
    "attribute_to_dict",
    "attribute_from_dict",
    "predicate_to_dict",
    "predicate_from_dict",
    "batch_request",
    "changes_to_dict",
    "changes_from_dict",
    "run_ledger_to_dict",
    "interface_to_dict",
    "interface_from_dict",
    "gateway_to_dict",
    "gateway_from_dict",
    "subnet_to_dict",
    "subnet_from_dict",
    "observation_to_dict",
    "observation_from_dict",
    "path_from_dict",
    "impact_from_dict",
    "journal_calls",
    "journal_to_dict",
    "journal_from_dict",
    "encode_document",
    "encode_json",
    "encode_message",
    "decode_message",
    "replica_info_to_dict",
    "replica_info_from_dict",
    "WireError",
    "FencedError",
]


class WireError(ValueError):
    """Raised for malformed wire data."""


class FencedError(RuntimeError):
    """A write was rejected by epoch fencing.

    Raised client-side when a server answers with ``"fenced": true`` —
    either the request's epoch stamp and the server's current epoch
    disagree, or the server has stepped down (standby or fenced
    ex-primary).  Failover-aware callers treat this as "my view of the
    fleet is stale": re-discover the primary and retry; plain callers
    see it as the hard error it is.
    """

    def __init__(self, message: str, *, epoch: int = 0, role: str = "") -> None:
        super().__init__(message)
        #: the epoch the rejecting server reported
        self.epoch = int(epoch)
        #: the role the rejecting server reported
        self.role = str(role)


# The predicate codec lives with the AST in query.py (which imports
# WireError lazily, below this definition, to avoid a cycle); re-export
# it here so wire consumers see one codec surface.
from .query import predicate_from_dict, predicate_to_dict  # noqa: E402


# ----------------------------------------------------------------------
# Protocol schema: ops and counters
# ----------------------------------------------------------------------

class OpSpec(NamedTuple):
    """How the Journal Server and its clients treat one op.

    An op whose row sets :attr:`reply` is a *plain Journal call*: it
    runs the :class:`~repro.core.journal.Journal` method of the same
    name and nothing else.  That row is its only declaration — its
    request fields are the Journal method's parameter names, and the
    server handler and the ``LocalClient``/``RemoteClient`` methods are
    derived from the row and the Journal signature (see
    :class:`JournalCall`).  Every other op keeps a hand-written ``_op_``
    handler."""

    #: ``read`` (shared lock; never fenced, so a standby or a fenced
    #: ex-primary keeps serving it), ``write`` (write lock; fenced and
    #: epoch-stamped), ``control`` (write lock; moves the fencing epoch
    #: itself, so it is neither fenced nor stamped) or ``stream`` (the
    #: ``subscribe`` feed, which the transport serves itself)
    kind: str
    #: cheap enough for the event loop thread whatever its arguments.
    #: ``query`` (with a ``where``), ``observe_batch`` and ``pull`` also
    #: run there for some arguments (see ``JournalDispatcher.runs_inline``).
    inline: bool = False
    #: the ``RemoteClient`` methods that send it
    methods: Tuple[str, ...] = ()
    #: a plain call's reply keys, one per returned value (a tuple result
    #: maps position by position); empty when the method returns None.
    #: None for a hand-written op.
    reply: Optional[Tuple[str, ...]] = None
    #: a plain call a client may park for replay while the server is
    #: unreachable (it replies nothing, so no caller waits on an answer)
    parks: bool = False
    #: how :class:`~repro.core.shard.ShardedClient` serves it over a
    #: fleet: a routing policy, with its key after a colon
    #: (``place:observation``), as :mod:`repro.core.shard` defines them.
    #: None for an op no router serves.
    route: Optional[str] = None


#: The Journal Server op vocabulary, each op declared once.  The
#: dispatcher's lock, fencing and inline rules, the client's epoch stamp
#: and write handoff, ``FailoverClient``'s proxies, the sharded router's
#: methods and the whole of every plain Journal call are all derived
#: from this table.
#: (negative_check may lazily evict an expired entry, but that eviction
#: is idempotent and race-free, so it stays a read — see
#: Journal.negative_check.)
OPS: Dict[str, OpSpec] = {
    # ingest & maintenance
    "observe": OpSpec("write", True, ("observe_interface", "submit", "resolve"),
                      route="place:observation"),
    "observe_batch": OpSpec("write", False, ("observe_batch", "observe_batch_nowait", "flush"),
                            route="partition"),
    # plain Journal calls: OpSpec(kind, inline, methods, reply)
    "absorb_interface": OpSpec("write", True, ("absorb_interface",), ("record", "changed"),
                               route="place:interface"),
    "absorb_gateway": OpSpec("write", True, ("absorb_gateway",), ("record", "changed"),
                             route="anchored"),
    "absorb_subnet": OpSpec("write", True, ("absorb_subnet",), ("record", "changed"),
                            route="place:subnet"),
    "ensure_gateway": OpSpec("write", True, ("ensure_gateway",), ("record", "changed"),
                             route="anchored"),
    "ensure_subnet": OpSpec("write", True, ("ensure_subnet",), ("record", "changed"),
                            route="place:subnet"),
    "link_gateway_subnet": OpSpec("write", True, ("link_gateway_subnet",), ("changed",),
                                  route="anchored"),
    "rename_gateway": OpSpec("write", False, ("rename_gateway",), ("changed",), route="anchored"),
    "delete_interface": OpSpec("write", True, ("delete_interface",), ("deleted",),
                               route="place:record_id"),
    "negative_put": OpSpec("write", True, ("negative_put",), (), parks=True,
                           route="place:negative"),
    "counts": OpSpec("read", True, ("counts", "revision"), ("counts",), route="scatter"),
    "negative_check": OpSpec("read", True, ("negative_check",), ("cached",),
                             route="place:negative"),
    # The one record read: the clients' named reads (query.NamedReads)
    # are predicates over it.
    "query": OpSpec("read", False, ("query",), ("records",), route="owner"),
    "pull": OpSpec(
        "read", False, ("pull",), ("revision", "interfaces", "gateways", "members", "subnets"),
        route="scatter",
    ),
    "changes_since": OpSpec("read", True, ("changes_since",), ("changes",), route="vector"),
    "path": OpSpec("read", False, ("path",), ("path",), route="view"),
    "impact": OpSpec("read", False, ("impact",), ("impact",), route="view"),
    # hand-written reads
    "ping": OpSpec("read", True),
    "metrics": OpSpec("read", True, ("metrics",), route="gather"),
    "dump": OpSpec("read", False, ("snapshot",), route="aggregate"),
    # federation and failover handshake
    "shard_info": OpSpec("read", True, ("shard_info", "replica_info"), route="router"),
    # failover control plane
    "promote": OpSpec("control", False, ("promote",)),
    "fence": OpSpec("control", False, ("fence",)),
    # streaming
    "subscribe": OpSpec("stream", False, ("subscribe",)),
}


def _ops_where(keep: Callable[[OpSpec], bool]) -> FrozenSet[str]:
    return frozenset(op for op, spec in OPS.items() if keep(spec))


#: every op the server accepts
WIRE_OPS = frozenset(OPS)
#: ops that never mutate the Journal
READ_OPS = _ops_where(lambda spec: spec.kind == "read")
#: Journal mutations: fenced by the server, epoch-stamped and handed
#: off across a failover by the client
WRITE_OPS = _ops_where(lambda spec: spec.kind == "write")
#: ops that move the fencing epoch (promote/fence)
CONTROL_OPS = _ops_where(lambda spec: spec.kind == "control")
#: ops that run on the event loop thread whatever their arguments
INLINE_OPS = _ops_where(lambda spec: spec.inline)
#: the write ops among them (and the only ones an inline batch may carry)
INLINE_WRITES = INLINE_OPS & WRITE_OPS

class CounterSpec(NamedTuple):
    """One Journal counter, named by its row's key; its registry metric
    is ``fremont_<key>_total``.  A saved journal keeps it as
    ``document[section][saved]``, and ``Journal.counts()`` shows it
    under its key.  A counter with no section is registry-only: it
    restarts at zero, so ``counts()`` leaves it out and a loaded
    journal's ``counts()`` equal the saved one's."""

    section: Optional[str]
    saved: Optional[str]
    help: str


#: The Journal's counters, each declared once.  The Journal's registry
#: counters, ``Journal.counts()``, the counter rows of
#: :data:`COUNTER_SCHEMA` and the ``ingest``/``durability`` sections of
#: a saved journal are all derived from this table.
JOURNAL_COUNTERS: Dict[str, CounterSpec] = {
    "observations_submitted": CounterSpec(
        "ingest", "submitted",
        "Observations entering the ingest pipeline (including coalesced)",
    ),
    "observations_applied": CounterSpec(
        "ingest", "applied", "Observations individually applied to the Journal"
    ),
    "observations_coalesced": CounterSpec(
        "ingest", "coalesced",
        "Submissions merged away by batching sinks, never individually applied",
    ),
    "batches_flushed": CounterSpec(
        "ingest", "batches", "Batch applications performed (one per BatchingSink flush)"
    ),
    "changes_recorded": CounterSpec(None, None, "Mutations that changed a Journal record"),
    "feed_deliveries": CounterSpec(
        "ingest", "feed_deliveries", "Non-empty deltas handed to change-feed subscribers"
    ),
    "queries_served": CounterSpec(
        "ingest", "queries", "Predicate queries evaluated (locally or via the query op)"
    ),
    "negative_evictions": CounterSpec(
        "ingest", "negative_evictions", "Expired negative-cache entries swept"
    ),
    "wal_appends": CounterSpec(
        "durability", "wal_appends", "Frames appended to the write-ahead log"
    ),
    "wal_bytes": CounterSpec(
        "durability", "wal_bytes", "Bytes appended to the write-ahead log"
    ),
    "wal_checkpoints": CounterSpec("durability", "checkpoints", "Atomic checkpoints written"),
    "wal_recovered_records": CounterSpec(
        "durability", "recovered", "WAL records replayed during recovery"
    ),
    "wal_torn_tails": CounterSpec(
        "durability", "torn_dropped", "Torn/corrupt WAL tail frames dropped during recovery"
    ),
}

#: ``Journal.counts()`` key -> registry metric name: the Journal's
#: structural gauges, then its counters.
COUNTER_SCHEMA: Dict[str, str] = {
    "interfaces": "fremont_interface_records",
    "gateways": "fremont_gateway_records",
    "subnets": "fremont_subnet_records",
    "revision": "fremont_journal_revision",
    "negative_cache_size": "fremont_negative_cache_size",
    "feed_subscribers": "fremont_feed_subscribers",
    **{
        key: f"fremont_{key}_total"
        for key, spec in JOURNAL_COUNTERS.items()
        if spec.section is not None
    },
}


# ----------------------------------------------------------------------
# Attributes
# ----------------------------------------------------------------------


def attribute_to_dict(attribute: Attribute) -> List[Any]:
    """An attribute's wire form: the positional row ``[value, first,
    changed, verified, source, quality, verified_by, verified_live]``,
    plus its history, ``[[old value, when], ...]``, as a ninth item
    when it has one."""
    row = [
        attribute.value,
        attribute.first_discovered,
        attribute.last_changed,
        attribute.last_verified,
        attribute.source,
        attribute.quality,
        attribute.verified_by,
        attribute.last_verified_live,
    ]
    if attribute.history:
        row.append([[value, when] for value, when in attribute.history])
    return row


#: the JSON types a timestamp decodes to (``type(True)`` is not one)
_TIME = (float, int)


def attribute_from_dict(data: Any) -> Attribute:
    """An attribute from its row.  An object with named keys (the form
    ``fremont-checkpoint-1`` files and ``fremont-journal-1`` saves
    carry) is still read, so those files recover."""
    if type(data) is not list:
        if isinstance(data, dict):
            return _attribute_from_object(data)
        raise WireError(f"attribute must be a row, not {type(data).__name__}")
    if len(data) == 8:
        value, first, changed, verified, source, quality, verified_by, live = data
        history = None
    elif len(data) == 9:
        value, first, changed, verified, source, quality, verified_by, live, history = data
    else:
        raise WireError(f"attribute row has {len(data)} items, not 8 or 9")
    if (
        type(first) not in _TIME or type(changed) not in _TIME
        or type(verified) not in _TIME or type(source) is not str
        or type(quality) is not str or type(verified_by) is not str
        or (live is not None and type(live) not in _TIME)
    ):
        raise WireError(f"malformed attribute row: {data!r:.120}")
    attribute = Attribute(
        value, first, changed, verified, source, quality, verified_by, live
    )
    if history is not None:
        attribute.history = _history_from_wire(history)
    return attribute


def _history_from_wire(history: Any) -> List[Tuple[Any, float]]:
    if type(history) is not list or not all(
        type(entry) is list and len(entry) == 2 and type(entry[1]) in _TIME
        for entry in history
    ):
        raise WireError(f"malformed attribute history: {history!r:.120}")
    return [(value, when) for value, when in history]


def _attribute_from_object(data: Dict[str, Any]) -> Attribute:
    try:
        attribute = Attribute(
            value=data["value"],
            first_discovered=data["first"],
            last_changed=data["changed"],
            last_verified=data["verified"],
            source=data["source"],
            quality=data.get("quality", "good"),
            verified_by=data.get("verified_by", ""),
            last_verified_live=data.get("verified_live"),
        )
    except KeyError as missing:
        raise WireError(f"attribute missing field {missing}") from None
    attribute.history = _history_from_wire(data.get("history", []))
    return attribute


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


def _base_to_dict(record) -> Dict[str, Any]:
    return {
        "record_id": record.record_id,
        "created_at": record.created_at,
        "last_modified": record.last_modified,
        # The journal revision that last touched this record — the
        # replicator's lost-update-proof sync cursor compares against
        # it (SinceRevision), so it must survive the wire.
        "revision": record.revision,
        "attributes": {
            name: attribute_to_dict(attribute)
            for name, attribute in record.attributes.items()
        },
    }


def _base_from_dict(record, data: Dict[str, Any]) -> None:
    if not isinstance(data, dict) or type(data.get("record_id")) is not int:
        raise WireError(f"malformed record: {data!r:.120}")
    attributes = data.get("attributes", {})
    if not isinstance(attributes, dict):
        raise WireError("record attributes must be an object")
    record.record_id = data["record_id"]
    record.created_at = data.get("created_at")
    record.last_modified = data.get("last_modified", 0.0)
    record.revision = int(data.get("revision", 0))
    record.attributes = {
        name: attribute_from_dict(attribute_data)
        for name, attribute_data in attributes.items()
    }


def interface_to_dict(record: InterfaceRecord) -> Dict[str, Any]:
    data = _base_to_dict(record)
    data["kind"] = "interface"
    return data


def interface_from_dict(data: Dict[str, Any]) -> InterfaceRecord:
    record = InterfaceRecord()
    _base_from_dict(record, data)
    return record


def gateway_to_dict(record: GatewayRecord) -> Dict[str, Any]:
    data = _base_to_dict(record)
    data["kind"] = "gateway"
    data["interface_ids"] = list(record.interface_ids)
    data["connected_subnets"] = {
        key: attribute_to_dict(attribute)
        for key, attribute in record.connected_subnets.items()
    }
    return data


def gateway_from_dict(data: Dict[str, Any]) -> GatewayRecord:
    record = GatewayRecord()
    _base_from_dict(record, data)
    record.interface_ids = list(data.get("interface_ids", []))
    connected = data.get("connected_subnets", {})
    if not isinstance(connected, dict):
        raise WireError("gateway connected_subnets must be an object")
    record.connected_subnets = {
        key: attribute_from_dict(attribute_data)
        for key, attribute_data in connected.items()
    }
    return record


def subnet_to_dict(record: SubnetRecord) -> Dict[str, Any]:
    data = _base_to_dict(record)
    data["kind"] = "subnet"
    data["gateway_ids"] = list(record.gateway_ids)
    return data


def subnet_from_dict(data: Dict[str, Any]) -> SubnetRecord:
    record = SubnetRecord()
    _base_from_dict(record, data)
    record.gateway_ids = list(data.get("gateway_ids", []))
    return record



# ----------------------------------------------------------------------
# Observations
# ----------------------------------------------------------------------


def observation_to_dict(observation: Observation) -> Dict[str, Any]:
    data = {"source": observation.source, "quality": observation.quality}
    data.update(observation.fields())
    return data


def observation_from_dict(data: Dict[str, Any]) -> Observation:
    if "source" not in data:
        raise WireError("observation missing source")
    return Observation(
        source=data["source"],
        ip=data.get("ip"),
        mac=data.get("mac"),
        dns_name=data.get("dns_name"),
        subnet_mask=data.get("subnet_mask"),
        vendor=data.get("vendor"),
        rip_source=data.get("rip_source"),
        promiscuous_rip=data.get("promiscuous_rip"),
        quality=data.get("quality", "good"),
    )


# ----------------------------------------------------------------------
# Plain Journal calls
# ----------------------------------------------------------------------

#: request keys any op may carry besides its fields
_ENVELOPE = frozenset({"op", "id", "epoch"})

#: record class -> (wire ``kind``, encoder, decoder)
_RECORDS = {
    InterfaceRecord: ("interface", interface_to_dict, interface_from_dict),
    GatewayRecord: ("gateway", gateway_to_dict, gateway_from_dict),
    SubnetRecord: ("subnet", subnet_to_dict, subnet_from_dict),
}
#: wire ``kind`` -> decoder
_RECORD_KINDS = {kind: decode for kind, _encode, decode in _RECORDS.values()}


def _checked(kind: type, article: str) -> Callable[[Any], Any]:
    """A decoder that only admits a JSON value of *kind* (a JSON
    ``true`` is no integer)."""

    def check(value: Any) -> Any:
        if not isinstance(value, kind) or isinstance(value, bool):
            raise WireError(f"expected {article}, got {type(value).__name__}")
        return value

    return check


def _any_record(data: Any):
    """A record of whichever kind its wire form names."""
    decode = _RECORD_KINDS.get(data.get("kind")) if isinstance(data, dict) else None
    if decode is None:
        raise WireError("expected a record")
    return decode(data)


def _payloads() -> Dict[Any, Tuple[Callable, Callable]]:
    """type -> (encode, decode) for the annotated types that need more
    than their JSON form: strings and integers are checked; an
    observation, predicate, change delta or topology answer has its own
    codec.  Those types' modules import this one, so the table is built
    as a :class:`JournalCall` is derived, not as this module loads."""
    from .journal import JournalChanges
    from .query import Predicate
    from .topology import TopologyImpact, TopologyPath

    return {
        str: (None, _checked(str, "a string")),
        int: (None, _checked(int, "an integer")),
        Observation: (observation_to_dict, observation_from_dict),
        Predicate: (predicate_to_dict, predicate_from_dict),
        JournalChanges: (changes_to_dict, changes_from_dict),
        TopologyPath: (TopologyPath.to_dict, path_from_dict),
        TopologyImpact: (TopologyImpact.to_dict, impact_from_dict),
    }


def _codec(hint: Any) -> Tuple[Optional[Callable], Optional[Callable]]:
    """``(encode, decode)`` for a value of the annotated type, None for
    a value that travels as it is: a record travels in its wire form
    and must come back as its own ``kind`` (a union of record classes
    as whichever kind it is), a string or an integer must arrive as
    one, an observation, predicate, change delta or topology answer
    travels in its own codec, an ``Optional`` value as that codec or
    null, a list item by item, an int-keyed dict gets its keys back
    (JSON object keys are strings), and any other iterable travels as a
    list."""
    if hint in _RECORDS:
        kind, encode, decode = _RECORDS[hint]

        def decode_record(data: Any):
            if not isinstance(data, dict) or data.get("kind") != kind:
                raise WireError(f"expected a {kind} record")
            return decode(data)

        return encode, decode_record
    try:
        return _payloads()[hint]
    except (KeyError, TypeError):
        pass
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        members = [arg for arg in args if arg is not type(None)]
        if all(member in _RECORDS for member in members):
            return (lambda record: _RECORDS[type(record)][1](record)), _any_record
        encode, decode = _codec(members[0])
        return (
            encode and (lambda value: None if value is None else encode(value)),
            decode and (lambda data: None if data is None else decode(data)),
        )
    if origin is list:
        encode, decode = _codec(args[0])
        return (
            (lambda values: [encode(value) for value in values]) if encode else list,
            decode and (lambda data: [decode(item) for item in data]),
        )
    if origin is dict and args[:1] == (int,):
        return None, lambda data: {int(key): value for key, value in data.items()}
    if origin is collections.abc.Iterable:
        return list, None
    return None, None


def binder(params: Sequence[inspect.Parameter]) -> Callable[..., Dict[str, Any]]:
    """``bind(args, kwargs)`` for a method with these parameters (no
    ``self``): the call's arguments by name, as
    ``inspect.Signature.bind`` would give them (a ``**`` parameter's
    keywords as one dict under its own name), or a TypeError for a call
    the method would refuse.  The names are worked out here, once: a
    plain call costs two dict builds, not a ``Signature.bind``."""
    bind = inspect.Signature(params).bind
    positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    names = frozenset(p.name for p in params if p.kind is not p.VAR_KEYWORD)
    required = {p.name for p in params if p.default is p.empty and p.kind is not p.VAR_KEYWORD}

    def bound(args: Sequence[Any], kwargs: Dict[str, Any]) -> Dict[str, Any]:
        values = dict(zip(positional, args))
        values.update(kwargs)
        if (
            len(values) != len(args) + len(kwargs)
            or not required <= values.keys()
            or not names >= kwargs.keys()
        ):
            # Anything but plain named arguments (a ``**`` argument, or
            # a call the method would refuse): bind it the slow way.
            values = bind(*args, **kwargs).arguments
        return values

    return bound


class JournalCall:
    """The wire codec of one Journal call, derived from its :data:`OPS`
    row and the signature and type hints of the Journal method the row
    names first: :meth:`request` and :meth:`result` for the client (and
    the WAL), :meth:`arguments` and :meth:`reply` for the server.
    Derive it before anything wraps the method: a wrapper without
    ``functools.wraps`` (a tracer's) has neither, so each user derives
    its calls as it loads."""

    def __init__(self, op: str) -> None:
        from .journal import Journal
        from .topology import TopologyImpact, TopologyPath

        spec = OPS[op]
        method = getattr(Journal, spec.methods[0])
        params = list(inspect.signature(method).parameters.values())[1:]
        # journal.py imports the topology answers for type checking only
        # (topology.py imports journal.py).
        hints = typing.get_type_hints(
            method, localns={"TopologyPath": TopologyPath, "TopologyImpact": TopologyImpact}
        )
        codecs = {param.name: _codec(hints.get(param.name)) for param in params}
        self.op, self.spec = op, spec
        #: the Journal method's signature without ``self``
        self.signature = inspect.Signature(params)
        #: the call's arguments by name (see :func:`binder`)
        self.bind = binder(params)
        #: the request fields: the Journal method's parameter names (a
        #: ``**`` parameter travels as one object under its own name)
        self._names = frozenset(param.name for param in params)
        self._encoders = {name: enc for name, (enc, _dec) in codecs.items() if enc}
        self._decoders = {name: dec for name, (_enc, dec) in codecs.items() if dec}
        self._positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
        #: the parameters a one-shot iterator may fill (see :meth:`settle`)
        self._iterables = [name for name, (enc, _dec) in codecs.items() if enc is list]
        #: the ``**`` parameter, whose object spreads into keywords
        self._spread = next((p.name for p in params if p.kind is p.VAR_KEYWORD), None)
        reply = spec.reply or ()
        returned = hints.get("return")
        returned = typing.get_args(returned) if len(reply) > 1 else (returned,)
        self._reply = [(key, *_codec(hint)) for key, hint in zip(reply, returned)]

    def request(self, args: Sequence[Any], kwargs: Dict[str, Any]) -> Dict[str, Any]:
        """The request for a call (a TypeError for arguments the Journal
        method would refuse)."""
        request = {"op": self.op, **self.bind(args, kwargs)}
        for name, encode in self._encoders.items():
            if name in request:
                request[name] = encode(request[name])
        return request

    def settle(self, args: Sequence[Any], kwargs: Dict[str, Any]) -> Tuple[Sequence, Dict]:
        """*args* and *kwargs* (updated in place) with each iterable made
        a list, so a one-shot iterator reaches request and method whole."""
        for name in self._iterables:
            if name in kwargs:
                kwargs[name] = list(kwargs[name])
            elif name in self._positional[: len(args)]:
                index = self._positional.index(name)
                args = (*args[:index], list(args[index]), *args[index + 1 :])
        return args, kwargs

    def result(self, response: Dict[str, Any]) -> Any:
        """The Journal method's return value, rebuilt from its reply."""
        values = tuple(
            decode(response[key]) if decode else response[key]
            for key, _encode, decode in self._reply
        )
        if len(values) == 1:
            return values[0]
        return values or None

    def arguments(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The Journal method's keyword arguments, decoded from a request.
        A missing field surfaces as the method's own TypeError."""
        kwargs = {key: value for key, value in request.items() if key not in _ENVELOPE}
        if not self._names >= kwargs.keys():
            unknown = sorted(kwargs.keys() - self._names)
            raise WireError(f"{self.op}: unknown field(s) {unknown}")
        for name, decode in self._decoders.items():
            if name in kwargs:
                try:
                    kwargs[name] = decode(kwargs[name])
                except WireError as error:
                    raise WireError(f"{self.op}: {name!r}: {error}") from None
        if self._spread in kwargs:
            spread = kwargs.pop(self._spread)
            if not isinstance(spread, dict):
                raise WireError(f"{self.op}: {self._spread!r} must be an object")
            if not self._names.isdisjoint(spread):
                shadowed = sorted(self._names.intersection(spread))
                raise WireError(f"{self.op}: {self._spread!r} repeats field(s) {shadowed}")
            kwargs.update(spread)
        return kwargs

    def reply(self, returned: Any) -> Dict[str, Any]:
        """The reply carrying the Journal method's return value."""
        values = returned if len(self._reply) > 1 else (returned,)
        response: Dict[str, Any] = {"ok": True}
        for (key, encode, _decode), value in zip(self._reply, values):
            response[key] = encode(value) if encode else value
        return response


@functools.lru_cache(maxsize=None)
def journal_calls() -> Dict[str, JournalCall]:
    """The codec of every op that is one Journal method call: the plain
    calls and the logged writes.  The server and the clients build it as
    they load, before anything can wrap a Journal method."""
    from .journal import Journal

    return {
        op: JournalCall(op)
        for op, spec in OPS.items()
        if spec.reply is not None or spec.kind == "write" and hasattr(Journal, spec.methods[0])
    }


# ----------------------------------------------------------------------
# Run ledger
# ----------------------------------------------------------------------

#: outcome vocabulary of the Discovery Manager's per-run ledger
RUN_OUTCOMES = frozenset({"ok", "error", "timeout", "quarantined"})


def run_ledger_to_dict(
    result,
    *,
    retries: int = 0,
    backoff: float = 0.0,
    reconnects: int = 0,
) -> Dict[str, Any]:
    """One startup/history-file ledger entry for a module run.

    *retries* is the module's consecutive-failure count after this run,
    *backoff* the delay the scheduler imposed before the next attempt,
    and *reconnects* how many journal-client reconnects the run incurred.
    """
    if result.outcome not in RUN_OUTCOMES:
        raise WireError(f"unknown run outcome: {result.outcome!r}")
    return {
        "at": result.started_at,
        "duration": result.duration,
        "packets": result.packets_sent,
        "observations": result.observations,
        "changes": result.changes,
        "fruitful": result.fruitful,
        "outcome": result.outcome,
        "error": result.error,
        "retries": retries,
        "backoff": backoff,
        "reconnects": reconnects,
    }


# ----------------------------------------------------------------------
# Batched requests
# ----------------------------------------------------------------------


def batch_request(
    requests: List[Dict[str, Any]], *, coalesced: int = 0
) -> Dict[str, Any]:
    """Envelope applying several requests in one round trip — the
    BatchingSink's flush path and the outage-replay path both use it.
    *coalesced* reports sightings the client merged away before sending,
    so the server-side pipeline counters stay truthful."""
    request: Dict[str, Any] = {"op": "observe_batch", "requests": list(requests)}
    if coalesced:
        request["coalesced"] = coalesced
    return request


# ----------------------------------------------------------------------
# Change-feed deltas
# ----------------------------------------------------------------------

_CHANGE_SETS = (
    "interfaces",
    "gateways",
    "subnets",
    "deleted_interfaces",
    "deleted_gateways",
    "deleted_subnets",
    # Touched index keys, for client-side QueryCache invalidation.
    "keys",
)


def changes_to_dict(changes) -> Dict[str, Any]:
    """Wire form of a JournalChanges delta (subscribe stream frames and
    the changes_since op both carry it)."""
    data: Dict[str, Any] = {
        "since": changes.since,
        "revision": changes.revision,
        "complete": changes.complete,
    }
    for name in _CHANGE_SETS:
        data[name] = sorted(getattr(changes, name))
    vector = getattr(changes, "vector", None)
    if vector is not None:
        data["vector"] = vector_cursor_to_dict(vector)
    return data


def changes_from_dict(data: Dict[str, Any]):
    from .journal import JournalChanges

    try:
        changes = JournalChanges(
            since=data["since"],
            revision=data["revision"],
            complete=bool(data.get("complete", True)),
        )
    except KeyError as missing:
        raise WireError(f"changes delta missing field {missing}") from None
    for name in _CHANGE_SETS:
        getattr(changes, name).update(data.get(name, []))
    if data.get("vector") is not None:
        changes.vector = vector_cursor_from_dict(data["vector"])
    return changes


# ----------------------------------------------------------------------
# Topology answers (path / impact ops)
# ----------------------------------------------------------------------


def path_from_dict(data: Any):
    """A :class:`~repro.core.topology.TopologyPath` from its
    ``to_dict`` form; hostile-input safe like the rest of the codec."""
    from .topology import TopologyPath

    try:
        return TopologyPath.from_dict(data)
    except (TypeError, ValueError, KeyError) as reason:
        raise WireError(f"malformed path payload: {reason}") from None


def impact_from_dict(data: Any):
    """A :class:`~repro.core.topology.TopologyImpact` from its
    ``to_dict`` form; hostile-input safe like the rest of the codec."""
    from .topology import TopologyImpact

    try:
        return TopologyImpact.from_dict(data)
    except (TypeError, ValueError, KeyError) as reason:
        raise WireError(f"malformed impact payload: {reason}") from None


# ----------------------------------------------------------------------
# Federation framing
# ----------------------------------------------------------------------


def vector_cursor_to_dict(revisions: Sequence[int]) -> Dict[str, List[int]]:
    """Wire form of a per-shard revision vector."""
    return {"v": [int(r) for r in revisions]}


def vector_cursor_from_dict(data: Any) -> List[int]:
    """Per-shard revision components from the wire form; hostile-input
    safe like the rest of the codec."""
    if not isinstance(data, dict) or not isinstance(data.get("v"), list):
        raise WireError(f"malformed vector cursor: {data!r}")
    try:
        components = [int(r) for r in data["v"]]
    except (TypeError, ValueError):
        raise WireError(f"malformed vector cursor: {data!r}") from None
    if any(r < 0 for r in components):
        raise WireError(f"vector cursor components must be >= 0: {data!r}")
    return components


def shard_info_to_dict(identity: Optional[Dict[str, int]]) -> Optional[Dict[str, int]]:
    """Wire form of a shard's handshake identity (None when the server
    is not running as part of a sharded fleet)."""
    if identity is None:
        return None
    return {
        "version": int(identity["version"]),
        "shards": int(identity["shards"]),
        "prefix": int(identity["prefix"]),
        "index": int(identity["index"]),
    }


def shard_info_from_dict(data: Any) -> Optional[Dict[str, int]]:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise WireError(f"malformed shard info: {data!r}")
    try:
        identity = {
            "version": int(data["version"]),
            "shards": int(data["shards"]),
            "prefix": int(data["prefix"]),
            "index": int(data["index"]),
        }
    except (KeyError, TypeError, ValueError):
        raise WireError(f"malformed shard info: {data!r}") from None
    if identity["shards"] < 1 or not 0 <= identity["index"] < identity["shards"]:
        raise WireError(f"inconsistent shard info: {data!r}")
    return identity


#: roles a server can hold in a replicated shard
REPLICA_ROLES = ("primary", "standby", "fenced")


def replica_info_to_dict(role: str, epoch: int, revision: int) -> Dict[str, Any]:
    """Wire form of a server's failover coordinates, carried in the
    ``shard_info`` handshake next to the shard identity."""
    return {"role": str(role), "epoch": int(epoch), "revision": int(revision)}


def replica_info_from_dict(data: Any) -> Optional[Dict[str, Any]]:
    """Failover coordinates from the wire; None when the peer predates
    the failover protocol (its handshake carries no ``replica`` key)."""
    if data is None:
        return None
    if not isinstance(data, dict):
        raise WireError(f"malformed replica info: {data!r}")
    try:
        info = {
            "role": str(data["role"]),
            "epoch": int(data["epoch"]),
            "revision": int(data["revision"]),
        }
    except (KeyError, TypeError, ValueError):
        raise WireError(f"malformed replica info: {data!r}") from None
    if info["role"] not in REPLICA_ROLES:
        raise WireError(f"unknown replica role: {data!r}")
    if info["epoch"] < 0 or info["revision"] < 0:
        raise WireError(f"malformed replica info: {data!r}")
    return info


# ----------------------------------------------------------------------
# Whole-journal persistence
# ----------------------------------------------------------------------


#: the whole-journal document format this codec writes
JOURNAL_FORMAT = "fremont-journal-2"
#: the formats it reads: format 1 is format 2 with object-form
#: attributes, which :func:`attribute_from_dict` still decodes
JOURNAL_FORMATS = frozenset({"fremont-journal-1", JOURNAL_FORMAT})


def journal_to_dict(journal) -> Dict[str, Any]:
    # Counters survive restarts: pipeline counters ride along in dumps,
    # so a snapshot's counts() matches the server's, and a recovered
    # journal's lifetime WAL accounting is not reset by the very
    # checkpoint that preserved it.
    counts = journal.counts()
    saved: Dict[str, Dict[str, int]] = {"ingest": {}, "durability": {}}
    for key, spec in JOURNAL_COUNTERS.items():
        if spec.section is not None:
            saved[spec.section][spec.saved] = counts[key]
    return {
        "format": JOURNAL_FORMAT,
        "revision": journal.revision,
        # Record ids are the Journal's own; a replayed WAL names records
        # by them, so the allocator must resume where it stopped.
        "next_id": journal._next_id,
        **saved,
        "interfaces": [interface_to_dict(r) for r in journal.all_interfaces()],
        "gateways": [gateway_to_dict(r) for r in journal.all_gateways()],
        "subnets": [subnet_to_dict(r) for r in journal.all_subnets()],
        # Negative-cache entries survive restarts: re-probing a key the
        # journal already knows is unavailable wastes discovery effort.
        "negative": [
            [kind, key, expiry]
            for (kind, key), expiry in sorted(journal._negative.items())
        ],
    }


def journal_from_dict(data: Dict[str, Any], clock: Optional[Callable[[], float]] = None):
    from .journal import Journal, ip_key

    if data.get("format") not in JOURNAL_FORMATS:
        raise WireError(f"unknown journal format: {data.get('format')!r}")
    journal = Journal(clock=clock)
    for interface_data in data.get("interfaces", []):
        record = interface_from_dict(interface_data)
        journal.interfaces[record.record_id] = record
        if record.ip is not None:
            journal.by_ip.insert(ip_key(record.ip), record.record_id)
        if record.mac is not None:
            journal.by_mac.insert(record.mac, record.record_id)
        if record.dns_name is not None:
            journal.by_name.insert(record.dns_name, record.record_id)
    for gateway_data in data.get("gateways", []):
        record = gateway_from_dict(gateway_data)
        journal.gateways[record.record_id] = record
    for subnet_data in data.get("subnets", []):
        record = subnet_from_dict(subnet_data)
        journal.subnets[record.record_id] = record
        if record.subnet is not None:
            journal.by_subnet.insert(record.subnet, record.record_id)
    journal.revision = int(data.get("revision", 0))
    # No change history is loaded: a delta since an older revision is
    # incomplete, so its consumer rescans instead of missing records.
    journal._pruned_through = journal.revision
    # The Journal is fresh, so counting a saved value restores it.
    journal.count(**{
        key: int(data.get(spec.section, {}).get(spec.saved, 0))
        for key, spec in JOURNAL_COUNTERS.items()
        if spec.section is not None
    })
    journal._negative = {
        (kind, key): expiry for kind, key, expiry in data.get("negative", [])
    }
    journal._rebuild_gateway_index()
    journal._rebuild_modified_index()
    # The id allocator resumes where the saved one stopped, and never
    # below a loaded id (a document saved without it resumes past them).
    loaded = [*journal.interfaces, *journal.gateways, *journal.subnets]
    journal._next_id = max(int(data.get("next_id", 0)), 1 + max(loaded, default=0))
    # With the default step clock the recovered journal would restart
    # time at zero and stamp new sightings *before* everything it just
    # loaded; resume from the newest loaded timestamp instead.
    if clock is None:
        newest = max(
            (
                record.last_modified
                for table in (journal.interfaces, journal.gateways, journal.subnets)
                for record in table.values()
            ),
            default=0.0,
        )
        journal._clock.resume(newest)
    return journal


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


#: orjson writes what the stdlib writes: string keys, and no dataclass
#: or datetime the stdlib would refuse
_ORJSON_OPTION = (
    orjson.OPT_NON_STR_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME
)


def encode_json(value: Any, *, sort_keys: bool = False, newline: bool = False) -> bytes:
    """*value* as compact UTF-8 JSON: the one encoder of frames, WAL
    records and checkpoints.  Non-ASCII text is written raw, not
    ``\\u``-escaped, and non-string keys become strings as the
    stdlib makes them.  orjson refuses what the stdlib writes — an
    integer beyond 64 bits, a lone surrogate, a tuple subclass — so
    such a value alone goes through the stdlib and reads back as the
    same JSON value.  What the stdlib refuses (a dataclass, a datetime,
    a set) is refused here too, with :class:`TypeError`.
    """
    option = _ORJSON_OPTION
    if sort_keys:
        option |= orjson.OPT_SORT_KEYS
    if newline:
        option |= orjson.OPT_APPEND_NEWLINE
    try:
        return orjson.dumps(value, option=option)
    except orjson.JSONEncodeError:
        text = json.dumps(value, separators=(",", ":"), sort_keys=sort_keys)
    return (text + "\n" if newline else text).encode("utf-8")


def encode_document(document: Any) -> bytes:
    """A saved document (``Journal.save``, the Discovery Manager's
    state, the fencing epoch): indented, sorted JSON, made to be read
    by people as well as loaded."""
    return json.dumps(document, indent=1, sort_keys=True).encode("utf-8")


def encode_message(message: Dict[str, Any]) -> bytes:
    """One protocol message: compact JSON plus a newline terminator."""
    return encode_json(message, newline=True)


def _non_finite(constant: str) -> NoReturn:
    raise WireError(f"non-finite number {constant} is not JSON")


def decode_message(line: bytes) -> Dict[str, Any]:
    """One protocol message.  ``NaN`` and ``Infinity`` are refused: the
    encoder writes neither, and a write holding one would log a record
    that could not replay."""
    try:
        message = json.loads(line.decode("utf-8"), parse_constant=_non_finite)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"malformed message: {error}") from None
    if not isinstance(message, dict):
        raise WireError("message must be a JSON object")
    return message


class FrameReader:
    """Deadline-aware frame reader over a blocking socket.

    Both sync client halves (:class:`~repro.core.client.RemoteClient`
    and :class:`~repro.core.client.RemoteChangeFeed`) need the same
    loop: buffer bytes, split on newlines, honour a per-read deadline
    without ever tearing a frame mid-read.  The socket itself must stay
    in blocking mode; deadlines are enforced with ``poll`` before each
    ``recv`` (``select`` would cap the process at FD_SETSIZE=1024
    descriptors — far below the fan-in this transport serves), so a
    half-received frame is always completed by the next call.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._socket = sock
        self._buffer = bytearray()
        #: bytes at the head of the buffer already known to hold no
        #: newline, so a large frame arriving in many chunks is scanned
        #: once, not from byte 0 after every recv
        self._scanned = 0
        self._poller = select.poll()
        self._poller.register(sock.fileno(), select.POLLIN)

    def pending(self) -> bool:
        """A complete frame is already buffered (no recv needed)."""
        return self._buffer.find(b"\n", self._scanned) >= 0

    def read(self, timeout: Optional[float]) -> Optional[Dict[str, Any]]:
        """The next decoded frame, or None once *timeout* seconds pass
        without one (None blocks indefinitely).  Raises
        :class:`ConnectionError` on EOF and :class:`WireError` on a
        malformed frame."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            newline = self._buffer.find(b"\n", self._scanned)
            if newline >= 0:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                self._scanned = 0
                if line.strip():
                    return decode_message(line)
                continue
            self._scanned = len(self._buffer)
            if deadline is not None:
                # A zero/expired deadline still polls once with no
                # wait: a non-blocking read drains frames the kernel
                # already buffered instead of reporting "nothing yet".
                remaining = max(deadline - time.monotonic(), 0.0)
                if not self._poller.poll(remaining * 1000.0):
                    return None
            chunk = self._socket.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed by peer")
            self._buffer.extend(chunk)
