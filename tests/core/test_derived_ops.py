"""Every plain Journal call, driven from its ``wire.OPS`` row.

A plain Journal call is an op whose row declares ``reply``: its request
fields are the Journal method's parameter names, and its server handler and its ``LocalClient``/``RemoteClient`` methods are derived
from the row and the Journal method's signature.  One parametrized case
per derived row checks that the in-process, remote and failover clients
(and the op as an ``observe_batch`` item) return equal results on equal
journals, and that a malformed request is refused with ``ok: false``
while the server keeps serving.  The sharded router's methods are
derived from the row's ``route``: on a one- and a two-shard fleet each
returns the Journal's result with its record ids made global.
"""

from __future__ import annotations

import copy
import inspect
import socket
import typing

import pytest

from repro.core import (
    FailoverClient, Journal, JournalServer, LocalClient, RemoteClient, ShardedClient, ShardMap,
    VectorCursor, wire,
)
from repro.core.journal import JournalChanges
from repro.core.query import InSubnet
from repro.core.records import GatewayRecord, InterfaceRecord, Observation, SubnetRecord
from repro.core.shard import _POLICIES, global_id
from repro.core.topology import TopologyImpact, TopologyPath

DERIVED = sorted(op for op, spec in wire.OPS.items() if spec.reply is not None)

NOW = 100.0


def _clock() -> float:
    return NOW


def _seed():
    """A journal with two gateway members, a loose interface, two
    subnets the gateway joins and a live negative entry, plus records
    from another journal to absorb.  Returns ``(journal, ids, foreign)``."""
    journal = Journal(clock=_clock)
    a, _ = journal.observe_interface(Observation(source="t", ip="10.0.1.1", mac="08:00:20:00:00:01"))
    b, _ = journal.observe_interface(Observation(source="t", ip="10.0.1.2", mac="08:00:20:00:00:02"))
    loose, _ = journal.observe_interface(Observation(source="t", ip="10.0.2.9"))
    gateway, _ = journal.ensure_gateway(
        source="t", name="gw-1", interface_ids=[a.record_id, b.record_id]
    )
    journal.link_gateway_subnet(gateway.record_id, "10.0.1.0", source="t")
    journal.link_gateway_subnet(gateway.record_id, "10.0.5.0", source="t")
    journal.negative_put("dns", "cached.test", ttl=1000.0)
    ids = {"a": a.record_id, "loose": loose.record_id, "gateway": gateway.record_id}

    far = Journal(clock=lambda: NOW - 10.0)
    member, _ = far.observe_interface(Observation(source="far", ip="10.0.1.1", mac="08:00:20:00:00:01"))
    far_gateway, _ = far.ensure_gateway(
        source="far", name="gw-far", interface_ids=[member.record_id]
    )
    far.link_gateway_subnet(far_gateway.record_id, "10.0.4.0", source="far")
    far_subnet, _ = far.ensure_subnet("10.0.1.0", source="far", mask="255.255.255.0")
    foreign = {
        "interface": member,
        "gateway": far_gateway,
        "id_map": {member.record_id: a.record_id},
        "subnet": far_subnet,
    }
    return journal, ids, foreign


#: op -> (ids, foreign) -> (args, kwargs) of one call
CALLS = {
    "ensure_gateway": lambda ids, far: (
        (), {"source": "t", "name": "gw-2", "interface_ids": (ids["loose"],)}
    ),
    "rename_gateway": lambda ids, far: ((ids["gateway"], "gw-renamed"), {"source": "t"}),
    "link_gateway_subnet": lambda ids, far: ((ids["gateway"], "10.0.2.0"), {"source": "t"}),
    "ensure_subnet": lambda ids, far: (
        ("10.0.3.0",), {"source": "t", "quality": "good", "mask": "255.255.255.0"}
    ),
    "delete_interface": lambda ids, far: ((ids["a"],), {}),
    "absorb_interface": lambda ids, far: ((far["interface"],), {}),
    "absorb_gateway": lambda ids, far: ((far["gateway"], far["id_map"]), {}),
    "absorb_subnet": lambda ids, far: ((far["subnet"],), {}),
    "negative_put": lambda ids, far: (("dns", "new.test"), {"ttl": 60.0}),
    "negative_check": lambda ids, far: (("dns", "cached.test"), {}),
    "counts": lambda ids, far: ((), {}),
    "query": lambda ids, far: (("interfaces",), {"where": InSubnet("10.0.1.0/24")}),
    "pull": lambda ids, far: ((0,), {}),
    "changes_since": lambda ids, far: ((1,), {}),
    "path": lambda ids, far: (("10.0.1.0", "10.0.5.0"), {}),
    "impact": lambda ids, far: (("gw-1",), {}),
}


_TO_DICT = {
    InterfaceRecord: wire.interface_to_dict,
    GatewayRecord: wire.gateway_to_dict,
    SubnetRecord: wire.subnet_to_dict,
}


def _comparable(value):
    """A result in comparable form.  Record ids stay: equal journals
    mint equal records under equal ids (each Journal owns its ids)."""
    if isinstance(value, tuple):
        return tuple(_comparable(item) for item in value)
    if isinstance(value, list):
        return [_comparable(item) for item in value]
    if isinstance(value, (TopologyPath, TopologyImpact)):
        return value.to_dict()
    if isinstance(value, JournalChanges):
        return wire.changes_to_dict(value)
    if type(value) in _TO_DICT:
        return _TO_DICT[type(value)](value)
    return value


def _copy(journal: Journal) -> Journal:
    return Journal.from_dict(journal.to_dict(), clock=_clock)


def _raw_reply(server: JournalServer, request):
    """Send one frame over a bare socket and return the raw reply."""
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(wire.encode_message(request))
        return wire.FrameReader(sock).read(5.0)


@pytest.fixture
def servers():
    started = []

    def serve(journal: Journal) -> JournalServer:
        server = JournalServer(journal)
        server.start()
        started.append(server)
        return server

    yield serve
    for server in started:
        server.stop()


def test_every_derived_row_has_a_case():
    assert sorted(CALLS) == DERIVED


@pytest.mark.parametrize("op", DERIVED)
def test_methods_carry_the_journal_signature(op):
    seed, ids, foreign = _seed()
    args, kwargs = CALLS[op](ids, foreign)
    parameters = list(inspect.signature(getattr(Journal, op)).parameters)[1:]
    request = wire.JournalCall(op).request(args, kwargs)
    assert set(request) - {"op"} <= set(parameters)
    for cls in (LocalClient, RemoteClient):
        method = getattr(cls, op)
        assert method.__name__ == op
        assert method.__doc__ == getattr(Journal, op).__doc__
        assert inspect.signature(method) == inspect.signature(getattr(Journal, op))


@pytest.mark.parametrize("op", DERIVED)
def test_every_client_returns_the_journal_result(op, servers):
    seed, ids, foreign = _seed()
    args, kwargs = CALLS[op](ids, foreign)
    expected = _comparable(getattr(_copy(seed), op)(*args, **kwargs))

    assert _comparable(getattr(LocalClient(_copy(seed)), op)(*args, **kwargs)) == expected

    with RemoteClient(*servers(_copy(seed)).address) as client:
        assert _comparable(getattr(client, op)(*args, **kwargs)) == expected

    with FailoverClient([servers(_copy(seed)).address]) as client:
        assert _comparable(getattr(client, op)(*args, **kwargs)) == expected

    call = wire.JournalCall(op)
    batched = _copy(seed)
    with RemoteClient(*servers(batched).address) as client:
        item = client._call(wire.batch_request([call.request(args, kwargs)]))[
            "responses"
        ][0]
    assert item["ok"] is True
    assert set(item) == {"ok", *wire.OPS[op].reply}
    assert _comparable(call.result(item)) == expected


#: a value of the wrong JSON type for a string or an integer field
_WRONG_TYPE = {str: 5, int: "5"}


def _malformed(op, request):
    """Malformed variants of a good request: each required field
    missing, an unknown field, a string or integer field of the wrong
    JSON type, every record swapped for another kind or carrying a
    malformed attribute row, a ``**`` field that is no object, and one
    that repeats a field."""
    hints = typing.get_type_hints(
        getattr(Journal, op),
        localns={"TopologyPath": TopologyPath, "TopologyImpact": TopologyImpact},
    )
    for param in wire.JournalCall(op).signature.parameters.values():
        if param.default is param.empty and param.kind is not param.VAR_KEYWORD:
            yield {key: value for key, value in request.items() if key != param.name}
        hint = hints.get(param.name)
        if typing.get_origin(hint) is typing.Union:
            (hint,) = set(typing.get_args(hint)) - {type(None)}
        if hint in _WRONG_TYPE:
            yield {**request, param.name: _WRONG_TYPE[hint]}
    yield {**request, "bogus": 1}
    for name, value in request.items():
        if isinstance(value, dict) and "kind" in value:
            swapped = (
                wire.interface_to_dict(InterfaceRecord())
                if value["kind"] == "subnet"
                else wire.subnet_to_dict(SubnetRecord())
            )
            yield {**request, name: swapped}
            rows = value["attributes"]
            attribute = next(iter(rows))
            for row in (rows[attribute][:7], rows[attribute] + [[], 0], "not a row"):
                yield {**request, name: {**value, "attributes": {**rows, attribute: row}}}
    if "stats" in request:
        yield {**request, "stats": ["not an object"]}
        for name in ("source", "quality", "subnet_key"):
            yield {**request, "stats": {**request["stats"], name: "x"}}
        missing = {key: value for key, value in request.items() if key != "source"}
        yield {**missing, "stats": {**request["stats"], "source": "x"}}


@pytest.mark.parametrize("op", DERIVED)
def test_malformed_request_is_refused_and_the_server_keeps_serving(op, servers):
    seed, ids, foreign = _seed()
    args, kwargs = CALLS[op](ids, foreign)
    journal = _copy(seed)
    server = servers(journal)
    request = wire.JournalCall(op).request(args, kwargs)
    bad_requests = list(_malformed(op, request))
    assert bad_requests
    before = journal.to_dict()
    for bad in bad_requests:
        reply = _raw_reply(server, bad)
        assert reply["ok"] is False, bad
        assert reply["error"]
        with RemoteClient(*server.address) as client:
            (item,) = client._call(wire.batch_request([bad]))["responses"]
        assert item["ok"] is False, bad
    after = journal.to_dict()
    # Refused requests changed nothing but the batch counter.
    before.pop("ingest"), after.pop("ingest")
    assert after == before
    with RemoteClient(*server.address) as client:
        assert client._call(request)["ok"] is True


ROUTED = sorted(
    op for op, spec in wire.OPS.items() if spec.kind in ("read", "write") and spec.methods
)
#: the routes whose router methods are written out by hand
HAND_WRITTEN = {"anchored", "partition", "aggregate", "router"}


@pytest.mark.parametrize("op", ROUTED)
def test_every_routable_row_declares_a_route(op):
    policy, _, key = (wire.OPS[op].route or "").partition(":")
    assert policy in set(_POLICIES) | HAND_WRITTEN, op
    assert bool(key) == (policy == "place"), op


@pytest.mark.parametrize("op", ROUTED)
def test_router_methods_carry_the_journal_signature(op):
    """A derived router method is dressed as the Journal method; a
    hand-written one takes the Journal method's parameters, so a caller
    naming them reaches the fleet as it reaches one Journal."""
    derived = wire.OPS[op].route.partition(":")[0] not in HAND_WRITTEN
    for name in wire.OPS[op].methods:
        model = getattr(Journal, name, None)
        if not callable(model):
            if not derived:
                continue  # a client-level method the router writes itself
            model = getattr(LocalClient, name)
        method = getattr(ShardedClient, name)
        assert inspect.signature(method) == inspect.signature(model), name
        if derived:
            assert method.__name__ == name and method.__doc__ == model.__doc__


@pytest.mark.parametrize(
    "op", [op for op in ROUTED if wire.OPS[op].route.partition(":")[0] in _POLICIES]
)
def test_router_refuses_a_call_the_journal_refuses(op):
    """Too many arguments, or a required one missing: the derived
    router method raises the Journal method's TypeError."""
    router = ShardedClient([LocalClient(Journal(clock=_clock)) for _ in range(2)])
    for name in wire.OPS[op].methods:
        model = getattr(Journal, name, None) or getattr(LocalClient, name)
        params = list(inspect.signature(model).parameters.values())[1:]
        calls = [(None,) * 6]
        if any(p.default is p.empty and p.kind is not p.VAR_KEYWORD for p in params):
            calls.append(())
        for args in calls:
            with pytest.raises(TypeError):
                model(Journal(clock=_clock), *args)
            with pytest.raises(TypeError):
                getattr(router, name)(*args)


def _global(value, shards, home):
    """A comparable result with every record id made the fleet's global
    id of a record on shard *home*."""
    if isinstance(value, (tuple, list)):
        return type(value)(_global(item, shards, home) for item in value)
    if not isinstance(value, dict):
        return value
    value = copy.deepcopy(value)
    g = lambda rid: None if rid is None else global_id(rid, home, shards)  # noqa: E731
    if "record_id" in value:
        value["record_id"] = g(value["record_id"])
        for name in ("interface_ids", "gateway_ids"):
            if name in value:
                value[name] = [g(rid) for rid in value[name]]
        row = value["attributes"].get("gateway_id")
        if row is not None:
            row[0] = g(row[0])
            if len(row) == 9:
                row[8] = [[g(old), when] for old, when in row[8]]
    elif "since" in value:
        for name in wire._CHANGE_SETS[:-1]:
            value[name] = [g(rid) for rid in value[name]]
    return value


def _fleet_view(value):
    """A comparable result without what only the fleet adds: a delta's
    vector cursor and a topology hop's aggregate-local gateway id."""
    if isinstance(value, (tuple, list)):
        return type(value)(_fleet_view(item) for item in value)
    if isinstance(value, dict):
        value = {key: item for key, item in value.items() if key != "vector"}
        for hop in value.get("hops", ()):
            hop.pop("gateway")
    return value


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("op", DERIVED)
def test_router_returns_the_journal_result(op, shards):
    """The seed sits on one *home* shard (a /12 map puts every 10.0.x.x
    address there, and the negative entry's token hashes there too);
    any other shard is empty."""
    seed, ids, foreign = _seed()
    args, kwargs = CALLS[op](ids, foreign)
    expected = _comparable(getattr(_copy(seed), op)(*args, **kwargs))

    shard_map = ShardMap(shards, prefix=12)
    home = shard_map.shard_for_ip("10.0.0.1")
    assert shard_map.shard_for_token("neg:dns:cached.test") == home
    router = ShardedClient(
        [LocalClient(_copy(seed) if index == home else Journal(clock=_clock))
         for index in range(shards)],
        shard_map=shard_map,
    )
    ids = {name: global_id(rid, home, shards) for name, rid in ids.items()}
    foreign["id_map"] = {
        member: global_id(rid, home, shards) for member, rid in foreign["id_map"].items()
    }
    args, kwargs = CALLS[op](ids, foreign)
    if op == "changes_since":
        args = (VectorCursor([args[0] if index == home else 0 for index in range(shards)]),)
    answer = _comparable(getattr(router, op)(*args, **kwargs))
    assert _fleet_view(answer) == _fleet_view(_global(expected, shards, home))


def _traced(cls, name, calls):
    """Replace ``cls.name`` with a bare ``*args, **kwargs`` wrapper, as a
    tracer installs it (no ``functools.wraps``): the wrapper has neither
    the method's signature nor its type hints."""
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    return wrapper


def test_served_reads_decode_under_a_wrapped_journal(monkeypatch, servers):
    """A codec derived after the wrap would read no signature and no
    hints, so it would send records and topology answers unencoded:
    the codecs are built when the modules load, not on first
    dispatch."""
    from repro.core.topology import TopologyStore

    calls = []
    for cls, name in (
        (Journal, "query"),
        (Journal, "path"),
        (Journal, "impact"),
        (TopologyStore, "path"),
        (TopologyStore, "impact"),
    ):
        monkeypatch.setattr(cls, name, _traced(cls, name, calls))
    seed, _ids, _foreign = _seed()
    with RemoteClient(*servers(seed).address) as client:
        records = client.query("interfaces", InSubnet("10.0.1.0/24"))
        assert [record.ip for record in records] == ["10.0.1.1", "10.0.1.2"]
        path = client.path("10.0.1.0", "10.0.5.0")
        assert isinstance(path, TopologyPath) and path.found
        impact = client.impact("gw-1")
        assert isinstance(impact, TopologyImpact) and impact.cut_subnets == ["10.0.5.0"]
    assert sorted(set(calls)) == ["impact", "path", "query"]
    assert len(calls) == 5
