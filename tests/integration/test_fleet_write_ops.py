"""The fleet keeps the single-journal contract for every write op.

One hypothesis property drives a sharded fleet of 1-4 in-process shards
(through :class:`~repro.core.shard.ShardedClient`) and one Journal with
the same steps, each built by the crash-recovery campaign's per-op
builders.  After every step the fleet's aggregate ``identity_state()``,
its named reads and its negative-cache answers equal the Journal's.
The builders name records by the Journal's ids; the step reaches the
fleet with each id swapped for the fleet's global id of the same record
(an interface by its identity, a gateway by its name).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Journal, LocalClient, ShardedClient, wire
from repro.core.query import FieldEquals, InSubnet
from tests.integration.test_crash_recovery import BUILDERS, HOSTS, STEPS

#: write op -> its arguments that name a record by id, and the table
#: each one names
ID_ARGUMENTS = {
    "ensure_gateway": {"interface_ids": "interfaces"},
    "rename_gateway": {"record_id": "gateways"},
    "link_gateway_subnet": {"gateway_id": "gateways"},
    "delete_interface": {"record_id": "interfaces"},
    "absorb_gateway": {"interface_id_map": "interfaces"},
}

#: every address the builders sight, absorb or negatively cache
IPS = [f"10.7.0.{host}" for host in (*range(1, HOSTS + 1), 9)]
NEGATIVE_KEYS = [f"10.9.0.{n}" for n in range(4)]


def _call(request):
    """A builder's request as ``(method, args, kwargs)`` of a client."""
    op = request["op"]
    if op == "observe":
        return "observe_interface", (wire.observation_from_dict(request["observation"]),), {}
    if op == "observe_batch":
        items = request["requests"]
        return "observe_batch", ([wire.observation_from_dict(i["observation"]) for i in items],), {}
    return op, (), wire.JournalCall(op).arguments(request)


def _identity(record):
    return (record.ip or "", record.mac or "", record.dns_name or "")


def _fleet_id(single: Journal, router: ShardedClient, table: str, record_id: int) -> int:
    """The fleet's global id of the Journal record *record_id*: the
    interface of the same identity (the same rank among equal ones), or
    a fragment of the gateway of the same name."""
    if table == "gateways":
        name = single.gateways[record_id].name
        assert name is not None
        fragments = router.query("gateways", FieldEquals("name", name))
        assert fragments, f"no fleet fragment of gateway {name!r}"
        return min(fragment.record_id for fragment in fragments)
    identity = _identity(single.interfaces[record_id])
    ours = sorted(rid for rid, record in single.interfaces.items() if _identity(record) == identity)
    theirs = sorted(r.record_id for r in router.all_interfaces() if _identity(r) == identity)
    assert len(ours) == len(theirs), identity
    return theirs[ours.index(record_id)]


def _translated(single, router, op, kwargs):
    kwargs = dict(kwargs)
    for name, table in ID_ARGUMENTS.get(op, {}).items():
        value = kwargs[name]
        if isinstance(value, dict):
            kwargs[name] = {k: _fleet_id(single, router, table, rid) for k, rid in value.items()}
        elif isinstance(value, list):
            kwargs[name] = [_fleet_id(single, router, table, rid) for rid in value]
        else:
            kwargs[name] = _fleet_id(single, router, table, value)
    return kwargs


def _content(records):
    """Records as comparable content: attribute values without the
    journal-local gateway id, in any order."""
    return sorted(
        (sorted((name, a.value) for name, a in r.attributes.items() if name != "gateway_id")
         for r in records),
        key=repr,
    )


def _reads(client):
    """Every named read and negative-cache answer the steps can change."""
    return {
        "by_ip": {ip: _content(client.interfaces_by_ip(ip)) for ip in IPS},
        "by_mac": {
            mac: _content(client.interfaces_by_mac(mac))
            for mac in sorted({r.mac for r in client.all_interfaces() if r.mac})
        },
        "by_name": {
            name: _content(client.interfaces_by_name(name))
            for name in sorted({r.dns_name for r in client.all_interfaces() if r.dns_name})
        },
        "range": _content(client.interfaces_in_ip_range("10.7.0.0", "10.7.0.255")),
        "in_subnet": _content(client.query("interfaces", InSubnet("10.7.0.0/24"))),
        "interfaces": _content(client.all_interfaces()),
        "subnets": _content(client.all_subnets()),
        "negative": {key: client.negative_check("ip", key) for key in NEGATIVE_KEYS},
    }


def test_builders_cover_every_write_op():
    assert set(BUILDERS) == wire.WRITE_OPS
    assert set(ID_ARGUMENTS) <= wire.WRITE_OPS


@settings(max_examples=60, deadline=None)
@given(steps=STEPS, shards=st.integers(min_value=1, max_value=4))
def test_fleet_equals_one_journal_after_every_write_op(steps, shards):
    state = {"now": 0.0}
    clock = lambda: state["now"]  # noqa: E731
    single = Journal(clock=clock)
    reference = LocalClient(single)
    router = ShardedClient([LocalClient(Journal(clock=clock)) for _ in range(shards)])
    for op, a, b in steps:
        state["now"] += 1.0
        request = BUILDERS[op](single, a, b)
        if request is None:
            continue
        name, args, kwargs = _call(request)
        fleet_kwargs = _translated(single, router, op, kwargs)
        getattr(reference, name)(*args, **kwargs)
        getattr(router, name)(*args, **fleet_kwargs)
        assert router.snapshot().identity_state() == single.identity_state(), op
        assert _reads(router) == _reads(reference), op

