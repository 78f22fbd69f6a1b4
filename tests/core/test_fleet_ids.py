"""Fleet-wide record ids: a seated shard issues them, the router passes
them through.

A Journal seated as shard ``k`` of ``n`` issues ``global_id(r, k, n)``
for its ``r``-th id, so the ids a router hands out are the ids its
shards' Journals hold, and ``id % n`` names the owner.  Covered here:
the ids against unstrided reference Journals, a seated store's recovery
with no shard argument, the handshake's refusals (and the rule for a
store written unseated), and a promoted standby that keeps issuing ids
that route to its own shard.
"""

from __future__ import annotations

import contextlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import (
    FailoverClient,
    Journal,
    JournalServer,
    JournalStore,
    LocalClient,
    ShardedClient,
    ShardMap,
    StandbyReplica,
    connect,
    global_id,
    shard_store_path,
)
from repro.core.records import Observation

# -- the ids a router returns ---------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.integers(1, 8), st.integers(1, 5)),
        st.tuples(st.just("subnet"), st.integers(1, 8), st.just(0)),
        st.tuples(st.just("delete"), st.integers(0, 30), st.just(0)),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(shards=st.integers(1, 4), ops=_OPS)
def test_router_ids_are_the_unstrided_ids_made_global(shards, ops):
    """Every id the router returns is ``global_id(local, k, n)`` of an
    unstrided Journal fed shard ``k``'s share of the same ops."""
    journals = [Journal() for _ in range(shards)]
    router = ShardedClient([LocalClient(journal) for journal in journals])
    shard_map = router.shard_map
    references = [Journal() for _ in range(shards)]
    issued = []  # (fleet id, owning shard, reference id)

    def check(record, reference, shard):
        assert record.record_id == global_id(reference.record_id, shard, shards)
        issued.append((record.record_id, shard, reference.record_id))

    for op, third, host in ops:
        if op == "observe":
            observation = Observation(
                "t", ip=f"10.{third}.1.{host}", mac=f"08:00:20:00:{third:02x}:{host:02x}"
            )
            shard = shard_map.shard_for_observation(observation)
            record, changed = router.observe_interface(observation)
            reference, expected = references[shard].observe_interface(observation)
            assert changed == expected
            check(record, reference, shard)
        elif op == "subnet":
            key = f"10.{third}.1.0/24"
            shard = shard_map.shard_for_subnet(key)
            record, _ = router.ensure_subnet(key, source="t")
            reference, _ = references[shard].ensure_subnet(key, source="t")
            check(record, reference, shard)
        elif issued:
            record_id, shard, reference_id = issued[third % len(issued)]
            assert router.delete_interface(record_id) == references[shard].delete_interface(
                reference_id
            )
    for shard, (journal, reference) in enumerate(zip(journals, references)):
        assert journal.shard == shard_map.identity(shard)
        for table in ("interfaces", "gateways", "subnets"):
            assert sorted(getattr(journal, table)) == sorted(
                global_id(rid, shard, shards) for rid in getattr(reference, table)
            )
        assert journal.identity_state() == reference.identity_state()


# -- a seated store recovers its stride -------------------------------------

IDENTITY = ShardMap(3).identity(2)


def _write(journal: Journal) -> None:
    """Every WAL record kind that names ids: gateway members, a subnet
    link by gateway id, a delete by interface id."""
    members = [
        journal.observe_interface(Observation("t", ip=f"10.0.1.{host}"))[0]
        for host in range(1, 4)
    ]
    gateway, _ = journal.ensure_gateway(
        source="t", name="gw", interface_ids=[m.record_id for m in members[:2]]
    )
    journal.link_gateway_subnet(gateway.record_id, "10.0.2.0/24", source="t")
    journal.delete_interface(members[2].record_id)


@pytest.mark.parametrize("recovery", ["wal", "checkpoint", "checkpoint+wal"])
def test_a_seated_store_recovers_its_stride(tmp_path, recovery):
    store = JournalStore(str(tmp_path))
    journal = store.recover()
    assert journal.seat(IDENTITY) == IDENTITY
    _write(journal)
    if recovery != "wal":
        store.checkpoint()
    if recovery != "checkpoint":
        journal.observe_interface(Observation("t", ip="10.0.3.1"))
    ids = {kind: sorted(getattr(journal, kind)) for kind in ("interfaces", "gateways", "subnets")}
    state, next_id = journal.identity_state(), journal._next_id
    store.close(checkpoint=False)

    reopened = JournalStore(str(tmp_path))
    recovered = reopened.recover()
    try:
        report = reopened.last_recovery
        assert report.checkpoint_loaded == (recovery != "wal")
        assert report.recovered_records == {"wal": 7, "checkpoint": 0, "checkpoint+wal": 1}[
            recovery
        ]
        assert recovered.shard == IDENTITY
        assert recovered._next_id == next_id
        assert {kind: sorted(getattr(recovered, kind)) for kind in ids} == ids
        assert recovered.identity_state() == state
        record, _ = recovered.observe_interface(Observation("t", ip="10.0.9.9"))
        assert record.record_id == next_id
        assert record.record_id % 3 == 2
        assert all(record.record_id not in table for table in ids.values())
    finally:
        reopened.close()


def test_a_document_without_next_id_resumes_on_the_stride():
    journal = Journal()
    assert journal.seat(IDENTITY) == IDENTITY
    _write(journal)
    document = journal.to_dict()
    del document["next_id"]
    loaded = Journal.from_dict(document)
    assert loaded.shard == IDENTITY
    newest = max([*journal.interfaces, *journal.gateways, *journal.subnets])
    assert loaded._next_id == newest + 3
    record, _ = loaded.observe_interface(Observation("t", ip="10.0.9.9"))
    assert record.record_id % 3 == 2


def test_an_unseated_journal_keeps_its_document_and_ids():
    journal = Journal()
    _write(journal)
    assert "shard" not in journal.to_dict()
    assert sorted(journal.interfaces) == [1, 2]
    assert journal._next_id == 6


# -- the handshake's refusals -------------------------------------------------


def test_a_shard_holding_unseated_ids_is_refused():
    used = Journal()
    used.observe_interface(Observation("t", ip="10.0.1.1"))
    with pytest.raises(ValueError, match="shard 1 handshake mismatch"):
        ShardedClient([LocalClient(Journal()), LocalClient(used)])
    assert used.shard is None


def test_a_shard_seated_elsewhere_is_refused():
    seated = Journal()
    assert seated.seat(ShardMap(2).identity(0)) == ShardMap(2).identity(0)
    assert seated.seat(ShardMap(2).identity(1)) == ShardMap(2).identity(0)
    with pytest.raises(ValueError, match="shard 1 handshake mismatch"):
        ShardedClient([LocalClient(Journal()), LocalClient(seated)])


def test_one_shard_takes_a_journal_with_ids_as_it_is():
    used = Journal()
    record, _ = used.observe_interface(Observation("t", ip="10.0.1.1"))
    router = ShardedClient([LocalClient(used)])
    assert used.shard == ShardMap(1).identity(0)
    assert router.interfaces_by_ip("10.0.1.1")[0].record_id == record.record_id
    assert router.observe_interface(Observation("t", ip="10.0.1.2"))[0].record_id == 2


def _unverified_router():
    """Two unseated shards behind a router that skipped the handshake,
    each holding four sightings: both issued ids 1-4."""
    journals = [Journal(), Journal()]
    router = ShardedClient([LocalClient(journal) for journal in journals], check=False)
    for net in (1, 2):
        for host in range(1, 5):
            router.observe_interface(Observation("t", ip=f"10.{net}.{host}.1"))
    assert sorted(journals[0].interfaces) == sorted(journals[1].interfaces) == [1, 2, 3, 4]
    return journals, router


def test_an_unverified_router_refuses_to_delete_by_id():
    """Unseated shards' ids do not name their shard: ``id % n`` would
    delete another shard's record that happens to hold the same id."""
    journals, router = _unverified_router()
    before = [sorted(r.ip for r in journal.interfaces.values()) for journal in journals]
    with pytest.raises(ValueError, match="handshake"):
        router.delete_interface(1)
    assert [sorted(r.ip for r in journal.interfaces.values()) for journal in journals] == before


def _foreign_gateway():
    """A gateway from another Journal, and its member's id mapped to 1."""
    donor = Journal()
    member, _ = donor.observe_interface(Observation("t", ip="10.9.9.9"))
    gateway, _ = donor.ensure_gateway(source="t", name="gw", interface_ids=[member.record_id])
    return gateway, {member.record_id: 1}


@pytest.mark.parametrize("call", [
    lambda router: router.rename_gateway(1, "gw", source="t"),
    lambda router: router.link_gateway_subnet(1, "10.1.1.0/24", source="t"),
    lambda router: router.ensure_gateway(source="t", name="gw", interface_ids=[1, 2]),
    lambda router: router.absorb_gateway(*_foreign_gateway()),
])
def test_an_unverified_router_refuses_every_call_it_routes_by_id(call):
    journals, router = _unverified_router()
    with pytest.raises(ValueError, match="handshake"):
        call(router)
    assert not any(journal.gateways for journal in journals)


def test_served_shards_are_seated_by_the_handshake():
    servers = [JournalServer(Journal()).start() for _ in range(2)]
    try:
        router = connect([server.address for server in servers])
        try:
            for third in range(1, 9):
                ip = f"10.{third}.1.1"
                record, _ = router.observe_interface(Observation("t", ip=ip))
                assert record.record_id % 2 == router.shard_map.shard_for_ip(ip)
            assert [server.journal.shard for server in servers] == [
                ShardMap(2).identity(index) for index in range(2)
            ]
        finally:
            router.close()
    finally:
        for server in servers:
            server.stop()


def test_a_store_written_unseated_is_refused_as_a_fleet_shard(tmp_path):
    """The rule for a store written before shards issued fleet ids: it
    holds ids on the unit stride, so ``serve --shard K/N`` (N > 1)
    refuses it with the handshake mismatch and leaves it as it was."""
    directory = shard_store_path(str(tmp_path), 1)
    store = JournalStore(directory)
    store.recover().observe_interface(Observation("t", ip="10.0.1.1"))
    store.close()
    with pytest.raises(ValueError, match="handshake mismatch"):
        main(["serve", "--shard", "1/2", "--durable", str(tmp_path), "--port", "0"])
    reopened = JournalStore(directory)
    try:
        journal = reopened.recover()
        assert journal.shard is None and sorted(journal.interfaces) == [1]
    finally:
        reopened.close()


# -- failover keeps the stride -------------------------------------------------


def _caught_up(standby: StandbyReplica, primary: JournalServer) -> bool:
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if standby.replicated_revision >= primary.journal.revision:
            return True
        time.sleep(0.02)
    return False


def test_a_promoted_standby_issues_ids_that_route_home():
    """Plain served shards with standbys, seated by the router's
    handshake after the standbys connected: each standby takes its
    primary's identity before the first record it copies, so after the
    primaries die a record the promoted standby creates routes back to
    it by id."""
    shard_map = ShardMap(2)
    thirds = {}
    for third in range(1, 40):
        thirds.setdefault(shard_map.shard_for_ip(f"10.{third}.1.1"), []).append(third)
    with contextlib.ExitStack() as stack:
        primaries = [JournalServer(Journal()).start() for _ in range(2)]
        for primary in primaries:
            stack.callback(primary.stop)
        standbys = [
            stack.enter_context(StandbyReplica(primary.address, poll_interval=0.05))
            for primary in primaries
        ]
        router = ShardedClient([
            FailoverClient([primary.address, standby.address], probe_timeout=0.5)
            for primary, standby in zip(primaries, standbys)
        ])
        stack.callback(router.close)
        for shard in range(2):
            router.observe_interface(Observation("t", ip=f"10.{thirds[shard][0]}.1.1"))
        for primary, standby in zip(primaries, standbys):
            assert _caught_up(standby, primary)
            primary.stop()
        for shard, standby in enumerate(standbys):
            assert standby.journal.shard == shard_map.identity(shard)
            record, changed = router.observe_interface(
                Observation("t", ip=f"10.{thirds[shard][1]}.1.1")
            )
            assert changed and standby.role == "primary"
            assert record.record_id % 2 == shard
            assert record.record_id in standby.journal.interfaces
            assert router.delete_interface(record.record_id)
            assert record.record_id not in standby.journal.interfaces
