"""Every client answers a named read alike.

The named reads (``interfaces_by_ip``, ``all_gateways``, ...) are
predicate queries, defined once in :class:`repro.core.query.NamedReads`.
These tests check that the in-process, remote, failover and sharded
clients return the same records in the same ``(last_modified,
record_id)`` order, and that the router sends a one-IP lookup or a
one-network range read to the network's owning shard only, and a
gateway write's fragment lookups to the member shards as member
queries.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    FailoverClient,
    Journal,
    JournalServer,
    LocalClient,
    RemoteClient,
    ShardMap,
    ShardedClient,
)
from repro.core.query import FieldEquals, InSubnet, IpRange, MacPrefix, Members, ip_key
from repro.core.records import Observation

SHARD_MAP = ShardMap(2)


def _subnets_on_both_shards():
    """Third octets of two /24s that the 2-shard map places apart."""
    owners = {}
    for third in range(256):
        owners.setdefault(SHARD_MAP.shard_for_ip(f"10.0.{third}.1"), third)
        if len(owners) == 2:
            return sorted(owners.values())
    raise AssertionError("the shard map put every /24 on one shard")


THIRDS = _subnets_on_both_shards()
IPS = [f"10.0.{third}.{host}" for third in THIRDS for host in (1, 2, 9)]
#: lookups also try the zero-padded spelling of each address
LOOKUP_IPS = IPS + [ip_key(ip) for ip in IPS]
MACS = ["08:00:20:00:00:01", "08:00:20:00:00:02", "aa:00:00:00:00:03"]
NAMES = ["a.test", "b.test"]


def maybe(values):
    return st.one_of(st.none(), st.sampled_from(values))


# Every sighting carries an IP, so all of one interface's sightings
# route to one shard: the placement under which the fleet must answer
# exactly as one Journal does.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.sampled_from(IPS), maybe(MACS), maybe(NAMES)),
        st.tuples(st.just("subnet"), st.sampled_from(THIRDS)),
        st.tuples(st.just("gateway"), st.sampled_from(THIRDS)),
    ),
    max_size=20,
)

DUP_IP, OTHER_IP = IPS[0], IPS[-1]
#: two records share an IP (conflicting MACs), and the first is
#: re-verified after the second was inserted
REVERIFIED_DUPLICATE = [
    ("observe", OTHER_IP, MACS[2], NAMES[0]),
    ("gateway", THIRDS[1]),
    ("subnet", THIRDS[0]),
    ("observe", DUP_IP, MACS[0], NAMES[0]),
    ("observe", DUP_IP, MACS[1], NAMES[0]),
    ("observe", OTHER_IP, MACS[0], NAMES[1]),
    ("observe", DUP_IP, MACS[0], None),
    ("subnet", THIRDS[1]),
]


def apply(client, op) -> None:
    if op[0] == "observe":
        _kind, ip, mac, name = op
        client.observe_interface(Observation(source="t", ip=ip, mac=mac, dns_name=name))
    elif op[0] == "subnet":
        client.ensure_subnet(f"10.0.{op[1]}.0/24", source="t")
    else:
        members = client.interfaces_in_ip_range(f"10.0.{op[1]}.0", f"10.0.{op[1]}.255")
        if members:
            client.ensure_gateway(
                source="t",
                name=f"gw-{op[1]}",
                interface_ids=[record.record_id for record in members],
            )


def interface_view(records):
    return [
        (r.ip, r.mac, r.dns_name, r.last_modified, r.last_verified) for r in records
    ]


def named_reads(client):
    """Every named read over the test's key space, projected to what
    all clients agree on (record ids are global on the fleet)."""
    reads = {}
    for ip in LOOKUP_IPS:
        reads["ip", ip] = interface_view(client.interfaces_by_ip(ip))
    for mac in MACS:
        reads["mac", mac] = interface_view(client.interfaces_by_mac(mac))
    for name in NAMES:
        reads["name", name] = interface_view(client.interfaces_by_name(name))
    # from the lower /24 to the higher one: spans both shards
    reads["range"] = interface_view(client.interfaces_in_ip_range(IPS[0], IPS[-1]))
    # one network each: the fleet asks its owning shard only
    for third in THIRDS:
        reads["subnet", third] = interface_view(
            client.query("interfaces", InSubnet(f"10.0.{third}.0/24"))
        )
    reads["subnet", "/16"] = interface_view(client.query("interfaces", InSubnet("10.0.0.0/16")))
    for older_than in (2.5, 6.5, 1e9):
        reads["stale", older_than] = interface_view(
            client.stale_interfaces(older_than=older_than)
        )
    reads["all_interfaces"] = interface_view(client.all_interfaces())
    reads["all_gateways"] = [
        (g.name, g.last_modified, len(g.interface_ids)) for g in client.all_gateways()
    ]
    reads["all_subnets"] = [(s.subnet, s.last_modified) for s in client.all_subnets()]
    return reads


class TestEveryClientAnswersAlike:
    @settings(max_examples=25, deadline=None)
    @given(OPS)
    @example(REVERIFIED_DUPLICATE)
    def test_named_reads_agree_across_clients(self, ops):
        state = {"now": 0.0}
        clock = lambda: state["now"]  # noqa: E731
        journal = Journal(clock=clock)
        local = LocalClient(journal)
        fleet = ShardedClient(
            [LocalClient(Journal(clock=clock)) for _ in range(2)], shard_map=SHARD_MAP
        )
        for step, op in enumerate(ops, start=1):
            state["now"] = float(step)
            apply(local, op)
            apply(fleet, op)

        expected = named_reads(local)
        for ip, padded in zip(IPS, LOOKUP_IPS[len(IPS):]):
            assert expected["ip", padded] == expected["ip", ip]
        assert named_reads(fleet) == expected
        server = JournalServer(journal).start()
        remote = RemoteClient(*server.address)
        failover = FailoverClient([server.address])
        try:
            assert named_reads(remote) == expected
            assert named_reads(failover) == expected
        finally:
            failover.close()
            remote.close()
            server.stop()

    def test_reverified_duplicate_comes_back_in_modified_order(self):
        journal = Journal()
        client = LocalClient(journal)
        first, _ = client.observe_interface(Observation(source="t", ip=DUP_IP, mac=MACS[0]))
        second, _ = client.observe_interface(Observation(source="t", ip=DUP_IP, mac=MACS[1]))
        client.observe_interface(Observation(source="t", ip=DUP_IP, mac=MACS[0]))
        # The Journal's own index keeps insertion order; every client
        # answers in (last_modified, record_id) order.
        assert [r.record_id for r in journal.interfaces_by_ip(DUP_IP)] == [
            first.record_id, second.record_id,
        ]
        assert [r.record_id for r in client.interfaces_by_ip(DUP_IP)] == [
            second.record_id, first.record_id,
        ]


class _CountingClient(LocalClient):
    """LocalClient that records every query it is asked."""

    def __init__(self, journal):
        super().__init__(journal)
        self.queries = []

    def query(self, kind, where=None):
        self.queries.append((kind, where))
        return super().query(kind, where)


class _DeadClient:
    """A shard client whose every call fails like a lost connection."""

    def __getattr__(self, name):
        def boom(*args, **kwargs):
            raise ConnectionError("shard down")

        return boom


class TestRouting:
    def setup_method(self):
        state = {"now": 0.0}
        clock = lambda: state["now"]  # noqa: E731
        self.shards = [_CountingClient(Journal(clock=clock)) for _ in range(2)]
        self.router = ShardedClient(self.shards, shard_map=SHARD_MAP)
        #: one journal fed the same sightings at the same times
        self.single = Journal(clock=clock)
        for step, (ip, mac) in enumerate(zip(IPS, MACS + MACS), start=1):
            state["now"] = float(step)
            self.router.observe_interface(Observation(source="t", ip=ip, mac=mac))
            self.single.observe_interface(Observation(source="t", ip=ip, mac=mac))
        for shard in self.shards:
            shard.queries.clear()

    def _asked(self):
        asked = [len(shard.queries) for shard in self.shards]
        for shard in self.shards:
            shard.queries.clear()
        return asked

    def test_one_ip_lookup_asks_only_the_owning_shard(self):
        for ip in (IPS[0], IPS[-1]):
            owner = SHARD_MAP.shard_for_ip(ip)
            for read in (
                lambda: self.router.interfaces_by_ip(ip),
                lambda: self.router.query("interfaces", FieldEquals("ip", ip)),
            ):
                assert [r.ip for r in read()] == [ip]
                assert len(self.shards[owner].queries) == 1
                assert self.shards[1 - owner].queries == []
                for shard in self.shards:
                    shard.queries.clear()

    def test_other_predicates_still_scatter(self):
        for read in (
            lambda: self.router.interfaces_by_mac(MACS[0]),
            lambda: self.router.query("interfaces", MacPrefix("08:00:20")),
        ):
            assert read()
            assert [len(shard.queries) for shard in self.shards] == [1, 1]
            for shard in self.shards:
                shard.queries.clear()

    def test_one_network_range_asks_only_the_owning_shard(self):
        for third in THIRDS:
            owner = SHARD_MAP.shard_for_ip(f"10.0.{third}.1")
            for where in (
                InSubnet(f"10.0.{third}.0/24"),
                InSubnet(f"10.0.{third}.0/25"),
                IpRange(f"10.0.{third}.2", f"10.0.{third}.200"),
            ):
                records = self.router.query("interfaces", where)
                assert interface_view(records) == interface_view(
                    self.single.query("interfaces", where)
                )
                assert records
                assert self._asked() == [int(owner == 0), int(owner == 1)]
            self.router.interfaces_in_ip_range(f"10.0.{third}.0", f"10.0.{third}.255")
            assert self._asked() == [int(owner == 0), int(owner == 1)]

    def test_range_across_networks_scatters(self):
        low, high = sorted(THIRDS)
        for where in (
            InSubnet(f"10.0.{low - low % 2}.0/23"),
            InSubnet("10.0.0.0/16"),
            IpRange(f"10.0.{low}.1", f"10.0.{high}.9"),
            IpRange(f"10.0.{low}.255", f"10.0.{low + 1}.0"),
        ):
            records = self.router.query("interfaces", where)
            assert interface_view(records) == interface_view(
                self.single.query("interfaces", where)
            )
            assert self._asked() == [1, 1]
        # a range inside one network, but a gateway or subnet read
        assert self.router.query("subnets", InSubnet(f"10.0.{low}.0/24")) == []
        assert self._asked() == [1, 1]

    def test_routed_range_raises_when_its_owner_is_down(self):
        journal = Journal()
        for index in range(2):
            router = ShardedClient(
                [_DeadClient(), LocalClient(journal)][::1 if index == 0 else -1],
                shard_map=SHARD_MAP,
                check=False,
            )
            for third in THIRDS:
                where = InSubnet(f"10.0.{third}.0/24")
                if SHARD_MAP.shard_for_ip(f"10.0.{third}.1") == index:
                    with pytest.raises(ConnectionError):
                        router.query("interfaces", where)
                else:
                    assert router.query("interfaces", where) == []
            # the failed routed read marks its owner down
            down = router.telemetry.get("fremont_shard_down").samples()
            assert {labels["shard"]: int(sample.value) for labels, sample in down} == {
                str(index): 1, str(1 - index): 0,
            }
            # a scatter read degrades instead
            assert router.query("interfaces", InSubnet("10.0.0.0/16")) == []
            assert router.partial and router.missing_shards == [index]

    def _merged_gateway(self):
        """On one shard, merge gateway gw-a into gw-b by renaming gw-b
        to gw-a: the first member's gateway_id then holds gw-b's
        shard-local id, with gw-a's in its history.  Returns ``(owner,
        gw-a, gw-b, first member)``."""
        third = THIRDS[0]
        owner = SHARD_MAP.shard_for_ip(f"10.0.{third}.1")
        shard = self.shards[owner]
        first_member, second_member = shard.query(
            "interfaces", InSubnet(f"10.0.{third}.0/24")
        )[:2]
        first, _ = shard.ensure_gateway(
            source="t", name="gw-a", interface_ids=[first_member.record_id]
        )
        second, _ = shard.ensure_gateway(
            source="t", name="gw-b", interface_ids=[second_member.record_id]
        )
        shard.rename_gateway(second.record_id, "gw-a", source="t")
        shard.link_gateway_subnet(second.record_id, f"10.0.{third}.0/24", source="t")
        return owner, first, second, first_member

    def test_gateway_id_history_comes_back_global(self):
        """The owner issued fleet ids, and the router hands them back as
        the owner holds them."""
        owner, first, second, member = self._merged_gateway()
        (merged,) = self.router.interfaces_by_ip(member.ip)
        gateway_attr = merged.attribute("gateway_id")
        assert gateway_attr.value == second.record_id
        assert [old for old, _when in gateway_attr.history] == [first.record_id]
        assert {first.record_id % 2, second.record_id % 2} == {owner}

    def test_fleet_reads_leave_the_shard_journals_untouched(self):
        """Fleet reads leave every record of the shards' journals as it
        was: the router rewrites nothing it hands back."""
        _owner, _first, _second, member = self._merged_gateway()

        def ids(journal):
            return (
                {
                    rid: (
                        record.record_id,
                        record.get("gateway_id"),
                        list(record.attribute("gateway_id").history)
                        if record.attribute("gateway_id") else None,
                    )
                    for rid, record in journal.interfaces.items()
                },
                {rid: (g.record_id, list(g.interface_ids)) for rid, g in journal.gateways.items()},
                {rid: (s.record_id, list(s.gateway_ids)) for rid, s in journal.subnets.items()},
            )

        before = [ids(client.journal) for client in self.shards]
        for _ in range(2):
            self.router.all_interfaces()
            self.router.all_gateways()
            self.router.all_subnets()
            self.router.query("interfaces", InSubnet(f"10.0.{THIRDS[0]}.0/24"))
            self.router.interfaces_by_ip(member.ip)
            self.router.pull(0)
        assert [ids(client.journal) for client in self.shards] == before

    def test_named_gateway_write_asks_members_not_a_dump(self):
        members = [r.record_id for r in self.router.all_interfaces()]
        self.router.ensure_gateway(source="t", name="gw-old", interface_ids=members)
        for shard in self.shards:
            shard.queries.clear()
        # A new name for the same members: the router looks for the
        # device's fragments under their old name on every member shard.
        self.router.ensure_gateway(source="t", name="gw-new", interface_ids=members)
        asked = [query for shard in self.shards for query in shard.queries]
        assert ("gateways", None) not in asked
        assert [
            sorted(where.ids) for shard in self.shards
            for kind, where in shard.queries if isinstance(where, Members)
        ] == [
            sorted(r.record_id for r in shard.all_interfaces())
            for shard in self.shards
        ]
        assert {g.name for g in self.router.all_gateways()} == {"gw-new"}
