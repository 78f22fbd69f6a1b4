"""Sharded Journal federation: ShardMap placement, global-id codec,
vector cursors, and the ShardedClient scatter-gather router."""

from __future__ import annotations

import contextlib
import socket
import statistics
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Journal,
    JournalServer,
    LocalClient,
    QueryCache,
    RemoteChangeFeed,
    RemoteClient,
    ShardFlushError,
    ShardMap,
    ShardedChangeFeed,
    ShardedClient,
    VectorCursor,
    connect,
    format_targets,
    global_id,
    parse_shard_spec,
    parse_targets,
    shard_of_id,
)
from repro.core import query as q
from repro.core import wire
from repro.core.records import Observation
from repro.core.shard import _normalize_cursor


def make_router(shards: int = 3):
    journals = [Journal() for _ in range(shards)]
    router = connect([connect(j) for j in journals])
    return journals, router


class TestGlobalIdCodec:
    def test_round_trip(self):
        for shards in (1, 2, 3, 7):
            for shard in range(shards):
                for local in (1, 2, 17, 10_000):
                    gid = global_id(local, shard, shards)
                    assert shard_of_id(gid, shards) == shard

    def test_global_ids_never_collide_across_shards(self):
        shards = 4
        seen = set()
        for shard in range(shards):
            for local in range(1, 50):
                gid = global_id(local, shard, shards)
                assert gid not in seen
                seen.add(gid)

    def test_provisional_id_passes_through(self):
        assert global_id(-1, 2, 4) == -1

    def test_routing_rejects_provisional(self):
        with pytest.raises(ValueError):
            shard_of_id(-1, 4)


class TestParseShardSpec:
    def test_valid(self):
        assert parse_shard_spec("0/1") == (0, 1)
        assert parse_shard_spec("2/4") == (2, 4)

    @pytest.mark.parametrize("bad", ["", "3", "4/4", "-1/4", "a/b", "1/0"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_shard_spec(bad)


class TestShardMap:
    def test_deterministic_across_instances(self):
        first, second = ShardMap(5), ShardMap(5)
        for ip in ("10.0.0.1", "128.138.243.9", "192.168.7.200"):
            assert first.shard_for_ip(ip) == second.shard_for_ip(ip)

    def test_subnet_colocates_interfaces(self):
        shard_map = ShardMap(7)
        # Every address of one /24 — and the subnet record itself —
        # lands on the same shard.
        shards = {shard_map.shard_for_ip(f"10.20.30.{i}") for i in range(1, 255)}
        assert len(shards) == 1
        assert shard_map.shard_for_subnet("10.20.30.0/24") in shards

    def test_identity_fallbacks(self):
        shard_map = ShardMap(5)
        by_mac = shard_map.shard_for_identity(None, "08:00:20:aa:bb:cc", None)
        assert by_mac == shard_map.shard_for_token("mac:08:00:20:aa:bb:cc")
        by_name = shard_map.shard_for_identity(None, None, "host.cs")
        assert by_name == shard_map.shard_for_token("name:host.cs")
        assert shard_map.shard_for_identity(None, None, None) == 0

    def test_non_ip_text_is_unanchored(self):
        assert ShardMap(3).shard_for_ip("not-an-ip") is None
        assert ShardMap(3).shard_for_ip("1.2.3.999") is None

    def test_wire_round_trip(self):
        shard_map = ShardMap(4, prefix=16)
        assert ShardMap.from_dict(shard_map.to_dict()) == shard_map

    def test_identity_handshake_codec(self):
        identity = ShardMap(4).identity(2)
        assert wire.shard_info_from_dict(wire.shard_info_to_dict(identity)) == {
            "version": 1,
            "shards": 4,
            "prefix": 24,
            "index": 2,
        }

    def test_handshake_codec_rejects_malformed(self):
        assert wire.shard_info_to_dict(None) is None
        assert wire.shard_info_from_dict(None) is None
        with pytest.raises(wire.WireError):
            wire.shard_info_from_dict({"shards": 0, "index": 0})
        with pytest.raises(wire.WireError):
            wire.shard_info_from_dict({"shards": 2, "index": 5})


class TestVectorCursor:
    def test_scalar_and_zero(self):
        assert VectorCursor.zero(3).revisions == [0, 0, 0]
        assert VectorCursor([2, 5, 1]).scalar == 8

    def test_wire_round_trip(self):
        cursor = VectorCursor([3, 0, 9])
        assert VectorCursor.from_dict(cursor.to_dict()) == cursor

    def test_wire_rejects_malformed(self):
        with pytest.raises(wire.WireError):
            wire.vector_cursor_from_dict({"v": [-1]})
        with pytest.raises(wire.WireError):
            wire.vector_cursor_from_dict(["not", "a", "dict"])

    def test_normalize_rejects_nonzero_scalar(self):
        with pytest.raises(ValueError, match="cannot be split"):
            _normalize_cursor(7, 3)
        assert _normalize_cursor(0, 3) == [0, 0, 0]
        assert _normalize_cursor(None, 2) == [0, 0]

    def test_normalize_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            _normalize_cursor([1, 2], 3)


class TestShardedClientRouting:
    def test_interfaces_route_by_subnet(self):
        journals, router = make_router(3)
        shard_map = router.shard_map
        for i in range(1, 6):
            router.observe_interface(Observation("t", ip=f"10.1.1.{i}"))
            router.observe_interface(Observation("t", ip=f"10.2.2.{i}"))
        for subnet_base in ("10.1.1.0", "10.2.2.0"):
            owner = shard_map.shard_for_ip(subnet_base)
            for index, journal in enumerate(journals):
                in_subnet = [
                    r for r in journal.all_interfaces()
                    if (r.ip or "").startswith(subnet_base[:-1])
                ]
                assert bool(in_subnet) == (index == owner)

    def test_by_ip_read_is_routed_not_scattered(self):
        _journals, router = make_router(3)
        router.observe_interface(Observation("t", ip="10.1.1.5", dns_name="a"))
        scatter_before = router.telemetry.get(
            "fremont_router_scatter_reads_total"
        ).value
        records = router.interfaces_by_ip("10.1.1.5")
        assert [r.dns_name for r in records] == ["a"]
        after = router.telemetry.get("fremont_router_scatter_reads_total").value
        assert after == scatter_before

    def test_global_ids_on_read_surface(self):
        journals, router = make_router(3)
        record, changed = router.observe_interface(
            Observation("t", ip="10.9.9.9")
        )
        assert changed
        # The shard's Journal issued the fleet id itself.
        shard = shard_of_id(record.record_id, 3)
        assert journals[shard].interfaces[record.record_id].ip == "10.9.9.9"
        # The same global id comes back from every read path.
        assert [r.record_id for r in router.interfaces_by_ip("10.9.9.9")] == [
            record.record_id
        ]
        assert record.record_id in {
            r.record_id for r in router.all_interfaces()
        }

    def test_scatter_merge_is_ordered(self):
        _journals, router = make_router(4)
        for i in range(1, 40):
            router.observe_interface(Observation("t", ip=f"10.{i}.1.1"))
        records = router.all_interfaces()
        assert len(records) == 39
        keys = [(r.last_modified, r.record_id) for r in records]
        assert keys == sorted(keys)

    def test_record_ids_predicate_localized_per_shard(self):
        _journals, router = make_router(3)
        wanted = []
        for i in range(1, 10):
            record, _ = router.observe_interface(
                Observation("t", ip=f"10.{i}.0.1")
            )
            if i % 2:
                wanted.append(record.record_id)
        got = router.query("interfaces", q.RecordIds(wanted))
        assert sorted(r.record_id for r in got) == sorted(wanted)

    def test_since_revision_predicate_rejected(self):
        _journals, router = make_router(2)
        with pytest.raises(ValueError, match="SinceRevision"):
            router.query("interfaces", q.SinceRevision(3))

    def test_delete_routes_home(self):
        _journals, router = make_router(3)
        record, _ = router.observe_interface(Observation("t", ip="10.5.5.5"))
        assert router.delete_interface(record.record_id)
        assert router.interfaces_by_ip("10.5.5.5") == []

    def test_absorbed_gateway_links_each_subnet_on_its_owner(self):
        """A foreign gateway's subnet links land on each subnet's owning
        shard, as ``link_gateway_subnet`` places them: linked on the
        gateway's anchor shard instead, a subnet would exist on two
        shards and a scatter read would list it twice.  The router takes
        the Journal method's argument names."""
        journals, router = make_router(3)
        keys = {}
        for third in range(1, 64):
            key = f"10.{third}.1.0/24"
            keys.setdefault(router.shard_map.shard_for_subnet(key), key)
        assert len(keys) == 3
        far = Journal()
        gateway, _ = far.ensure_gateway(source="far", name="gw-far")
        for key in keys.values():
            far.link_gateway_subnet(gateway.record_id, key, source="far")
        router.absorb_gateway(foreign=far.gateways[gateway.record_id], interface_id_map={})
        assert sorted(s.subnet for s in router.all_subnets()) == sorted(keys.values())
        for shard, key in keys.items():
            assert [s.subnet for s in journals[shard].all_subnets()] == [key]
        (merged,) = router.snapshot().all_gateways()
        assert sorted(merged.connected_subnets) == sorted(keys.values())

    def test_absorbed_gateway_renames_the_devices_stale_fragments(self):
        """A foreign gateway absorbed onto renamed members renames the
        device back on every shard, as ``ensure_gateway`` with a new
        name does: a fragment left under the old name would split the
        device in the aggregate."""
        shard_map = ShardMap(2)
        member_ip = "10.1.1.1"
        subnet = next(
            f"10.{third}.1.0/24" for third in range(2, 64)
            if shard_map.shard_for_subnet(f"10.{third}.1.0/24")
            != shard_map.shard_for_ip(member_ip)
        )
        far = Journal()
        far_member, _ = far.observe_interface(Observation("far", ip=member_ip))
        far_gateway, _ = far.ensure_gateway(
            source="far", name="gw-far", interface_ids=[far_member.record_id]
        )
        far.link_gateway_subnet(far_gateway.record_id, subnet, source="far")
        single = Journal()
        router = ShardedClient([LocalClient(Journal()) for _ in range(2)], shard_map=shard_map)
        for client in (LocalClient(single), router):
            member, _ = client.observe_interface(Observation("t", ip=member_ip))
            id_map = {far_member.record_id: member.record_id}
            client.absorb_gateway(far.gateways[far_gateway.record_id], id_map)
            client.ensure_gateway(source="t", name="gw0", interface_ids=[member.record_id])
            client.absorb_gateway(far.gateways[far_gateway.record_id], id_map)
        assert {g.name for g in router.all_gateways()} == {"gw-far"}
        assert router.snapshot().identity_state() == single.identity_state()

    def test_counts_sum_across_shards(self):
        _journals, router = make_router(3)
        for i in range(1, 7):
            router.observe_interface(Observation("t", ip=f"10.{i}.1.1"))
        counts = router.counts()
        assert counts["interfaces"] == 6
        assert counts["revision"] == router.revision()


class TestShardedChangesAndFeeds:
    def test_changes_since_composes_vector(self):
        _journals, router = make_router(3)
        for i in range(1, 5):
            router.observe_interface(Observation("t", ip=f"10.{i}.1.1"))
        delta = router.changes_since(0)
        assert delta.revision == router.revision()
        assert delta.vector is not None
        assert sum(delta.vector) == delta.revision
        assert len(delta.interfaces) == 4

        cursor = VectorCursor(delta.vector)
        router.observe_interface(Observation("t", ip="10.99.1.1"))
        tail = router.changes_since(cursor)
        assert len(tail.interfaces) == 1
        assert tail.since == cursor.scalar

    def test_changes_since_rejects_scalar_cursor(self):
        _journals, router = make_router(2)
        router.observe_interface(Observation("t", ip="10.1.1.1"))
        with pytest.raises(ValueError):
            router.changes_since(1)

    def test_feed_delivers_global_ids(self):
        _journals, router = make_router(3)
        feed = router.subscribe(since=0)
        try:
            record, _ = router.observe_interface(
                Observation("t", ip="10.3.3.3")
            )
            delta = feed.poll(timeout=1.0)
            assert delta is not None
            assert record.record_id in delta.interfaces
            assert delta.vector is not None
            assert feed.revision == router.revision()
        finally:
            feed.close()

    def test_wire_round_trip_carries_vector(self):
        _journals, router = make_router(2)
        router.observe_interface(Observation("t", ip="10.1.1.1"))
        delta = router.changes_since(0)
        encoded = wire.changes_to_dict(delta)
        decoded = wire.changes_from_dict(encoded)
        assert decoded.vector == delta.vector
        assert decoded.revision == delta.revision


class _DeadClient:
    """A shard client whose every call fails like a lost connection."""

    def __getattr__(self, name):
        def boom(*args, **kwargs):
            raise ConnectionError("shard down")

        return boom


class TestDegradation:
    def test_scatter_read_sets_partial_flag(self):
        journals = [Journal(), Journal()]
        live = LocalClient(journals[0])
        router = ShardedClient([live, _DeadClient()], check=False)
        live.observe_interface(Observation("t", ip="10.0.0.1"))
        records = router.all_interfaces()
        assert [r.ip for r in records] == ["10.0.0.1"]
        assert router.partial
        assert router.missing_shards == [1]

    def test_partial_clears_after_full_read(self):
        journal = Journal()
        router = ShardedClient([LocalClient(journal)], check=False)
        router.partial = True
        router.missing_shards = [0]
        router.all_interfaces()
        assert not router.partial
        assert router.missing_shards == []

    def test_topology_read_clears_and_reports_partial(self):
        """A fully answered path/impact clears the partial flag a
        previous scatter read set, and a topology read missing a shard
        sets it, flips the shard-down gauge and counts as partial."""

        class _Flaky(LocalClient):
            down = False

            def __getattribute__(self, name):
                if name not in ("down", "journal") and object.__getattribute__(
                    self, "down"
                ):
                    raise ConnectionError("shard down")
                return object.__getattribute__(self, name)

        journals = [Journal(), Journal()]
        flaky = _Flaky(journals[1])
        router = ShardedClient([LocalClient(journals[0]), flaky])
        gateway, _ = router.ensure_gateway(source="t", name="gw")
        router.link_gateway_subnet(gateway.record_id, "10.0.1.0/24", source="t")
        router.link_gateway_subnet(gateway.record_id, "10.0.2.0/24", source="t")
        partial_reads = router.telemetry.counter(
            "fremont_router_partial_reads_total", ""
        )
        down = router.telemetry.gauge("fremont_shard_down", "", labels=("shard",))

        flaky.down = True
        router.query("interfaces")
        assert router.partial and router.missing_shards == [1]
        flaky.down = False
        assert router.path("10.0.1.0/24", "10.0.2.0/24").found
        assert not router.partial
        assert router.missing_shards == []
        assert down.labels(shard="1").value == 0
        assert partial_reads.value == 1

        flaky.down = True
        router.impact("gw")
        assert router.partial and router.missing_shards == [1]
        assert down.labels(shard="1").value == 1
        assert partial_reads.value == 2

    def test_a_routed_op_writes_the_down_gauge_only_when_it_flips(self, monkeypatch):
        """The gauge reads 1 after an unreachable routed call and 0 after
        a successful one, but a run of successes writes it no more."""
        from repro.core import telemetry

        class _Flaky(LocalClient):
            down = False

            def negative_check(self, kind, key):
                if self.down:
                    raise ConnectionError("shard down")
                return super().negative_check(kind, key)

        flaky = _Flaky(Journal())
        router = ShardedClient([flaky], check=False)
        gauge = router.telemetry.gauge("fremont_shard_down", "", labels=("shard",))
        writes = []
        set_value = telemetry.Gauge.set
        monkeypatch.setattr(
            telemetry.Gauge, "set",
            lambda self, value: (writes.append(value), set_value(self, value)),
        )
        for _ in range(3):
            assert router.negative_check("arp", "k") is False
        assert gauge.labels(shard="0").value == 0 and writes == []
        flaky.down = True
        for _ in range(2):
            with pytest.raises(ConnectionError):
                router.negative_check("arp", "k")
        assert gauge.labels(shard="0").value == 1 and writes == [1]
        flaky.down = False
        for _ in range(3):
            router.negative_check("arp", "k")
        assert gauge.labels(shard="0").value == 0 and writes == [1, 0]

    def test_healthy_fan_outs_leave_the_down_gauges_unwritten(self, monkeypatch):
        """Scatter reads, topology reads and flushes over live shards
        write no ``fremont_shard_down`` gauge; a fan-out missing a shard
        writes its gauge once, and the next complete one once more."""
        from repro.core import telemetry

        class _Flaky(LocalClient):
            down = False

            def query(self, kind, where=None):
                if self.down:
                    raise ConnectionError("shard down")
                return super().query(kind, where)

            def flush(self):
                if self.down:
                    raise ConnectionError("shard down")
                return super().flush()

        flaky = _Flaky(Journal())
        router = ShardedClient([LocalClient(Journal()), flaky])
        router.observe_interface(Observation("t", ip="10.0.0.1"))
        writes = []
        set_value = telemetry.Gauge.set

        def counted(gauge, value):
            if gauge in router._down:
                writes.append((router._down.index(gauge), value))
            set_value(gauge, value)

        monkeypatch.setattr(telemetry.Gauge, "set", counted)
        for _ in range(3):
            router.all_interfaces()
            router.counts()
            router.changes_since(0)
            router.path("10.0.0.0/24", "10.0.0.0/24")
            router.flush()
        assert writes == []
        flaky.down = True
        for _ in range(2):
            router.all_interfaces()
            with pytest.raises(ShardFlushError):
                router.flush()
        assert writes == [(1, 1)]
        flaky.down = False
        router.all_interfaces()
        router.flush()
        assert writes == [(1, 1), (1, 0)]

    def test_counts_raise_on_unreachable_shard(self):
        router = ShardedClient(
            [LocalClient(Journal()), _DeadClient()], check=False
        )
        with pytest.raises(ConnectionError):
            router.counts()


class TestPipelinedFanOut:
    @pytest.mark.parametrize("read", [
        lambda router: router.all_interfaces(),
        lambda router: router.counts(),
        lambda router: router.pull(0),
        lambda router: router.changes_since(0),
    ], ids=["query", "counts", "pull", "changes_since"])
    def test_every_shard_is_asked_before_any_is_awaited(self, read):
        """A fan-out costs one round trip, not one per shard."""
        from repro.core import JournalServer, RemoteClient

        servers = [JournalServer(Journal()).start() for _ in range(2)]
        clients = [RemoteClient(*server.address) for server in servers]
        try:
            events = []
            for index, client in enumerate(clients):
                def send(request, _send=client._send_tagged, _index=index):
                    events.append(("send", _index))
                    return _send(request)

                def wait(rid, timeout, _wait=client._wait, _index=index):
                    events.append(("wait", _index))
                    return _wait(rid, timeout)

                client._send_tagged, client._wait = send, wait
            router = ShardedClient(clients, check=False)
            router.observe_interface(Observation("t", ip="10.1.1.1"))
            events.clear()
            read(router)
            assert events == [("send", 0), ("send", 1), ("wait", 0), ("wait", 1)]
        finally:
            for client in clients:
                client.close()
            for server in servers:
                server.stop()


class TestConnectTargets:
    def test_local_list(self):
        router = connect([None, None, None])
        assert isinstance(router, ShardedClient)
        assert router.shard_map.shards == 3

    def test_journal_list(self):
        journals = [Journal(), Journal()]
        router = connect(journals[:])
        record, _ = router.observe_interface(Observation("t", ip="10.1.1.1"))
        assert record.record_id >= 2

    def test_mixed_local_and_remote_rejected(self):
        with pytest.raises(ValueError, match="mix local and remote"):
            connect([Journal(), "127.0.0.1:9"])
        with pytest.raises(ValueError, match="mix local and remote"):
            connect([None, ("127.0.0.1", 9)])

    def test_retry_rejected_for_local_shards(self):
        with pytest.raises(ValueError, match="retry"):
            connect([None, None], retry={"timeout": 1.0})

    def test_parse_targets_forms(self):
        assert parse_targets("shard://h1:1,h2:2") == [("h1", 1), ("h2", 2)]
        assert parse_targets("h1:1,h2:2") == [("h1", 1), ("h2", 2)]
        assert parse_targets("h1:1") == [("h1", 1)]

    @pytest.mark.parametrize("bad", ["shard://", "a:1,,b:2", "a:1,b:x"])
    def test_parse_targets_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_targets(bad)

    def test_format_targets(self):
        assert format_targets([("h", 1)]) == "h:1"
        assert format_targets([("a", 1), ("b", 2)]) == "shard://a:1,b:2"
        with pytest.raises(ValueError):
            format_targets([])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.from_regex(r"[a-z][a-z0-9.-]{0,20}", fullmatch=True),
                st.integers(min_value=1, max_value=65535),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_target_string_round_trip(self, addresses):
        assert parse_targets(format_targets(addresses)) == addresses


class TestQueryCacheGuard:
    def test_query_cache_refuses_sharded_client(self):
        _journals, router = make_router(2)
        with pytest.raises(TypeError, match="ShardedClient"):
            QueryCache(router)


class TestHandshakeVerification:
    def test_mismatched_fleet_rejected(self):
        class _Identified:
            def __init__(self, identity):
                self._identity = identity

            def shard_info(self, seat=None):
                return self._identity

        fleet = [
            _Identified(ShardMap(2).identity(0)),
            _Identified(ShardMap(3).identity(1)),
        ]
        with pytest.raises(ValueError, match="shard"):
            ShardedClient(fleet)

    def test_wrong_index_rejected(self):
        class _Identified:
            def __init__(self, identity):
                self._identity = identity

            def shard_info(self, seat=None):
                return self._identity

        fleet = [
            _Identified(ShardMap(2).identity(1)),
            _Identified(ShardMap(2).identity(0)),
        ]
        with pytest.raises(ValueError, match="shard"):
            ShardedClient(fleet)


@contextlib.contextmanager
def _served_fleet(shards):
    """A router over *shards* in-process served Journals."""
    servers = [JournalServer(Journal(), port=0).start() for _ in range(shards)]
    try:
        with ShardedClient([RemoteClient(*server.address) for server in servers]) as router:
            yield router
    finally:
        for server in servers:
            server.stop()


def _prefix_on(shard, shards):
    """A /24 prefix the *shards*-wide map places on *shard*."""
    shard_map = ShardMap(shards)
    return next(
        f"10.9.{third}" for third in range(1, 250)
        if shard_map.shard_for_ip(f"10.9.{third}.1") == shard
    )


class _DemotedShard:
    """A stand-in shard server over an in-process Journal that demotes
    its one subscriber at once: it acknowledges ``subscribe``, sends
    ``feed_lagged``, then answers each ``changes_since`` from the
    Journal."""

    def __init__(self, journal):
        self.journal = journal
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _addr = self._listener.accept()
        with conn:
            frames = wire.FrameReader(conn)
            try:
                while True:
                    request = frames.read(None)
                    if request["op"] == "subscribe":
                        reply = {"ok": True, "revision": self.journal.revision}
                        lagged = {"ok": True, "event": "feed_lagged", "revision": 0}
                        conn.sendall(
                            wire.encode_message({**reply, "id": request["id"]})
                            + wire.encode_message(lagged)
                        )
                    else:
                        changes = self.journal.changes_since(int(request["since"]))
                        conn.sendall(wire.encode_message({
                            "ok": True, "id": request["id"],
                            "changes": wire.changes_to_dict(changes),
                        }))
            except OSError:
                pass  # the feed closed its connection

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5.0)


class TestComposedFeedWait:
    """A composed feed drains every member, then waits on every push
    stream at once: news on any shard is handed over when it lands."""

    def test_deltas_on_the_last_shard_are_handed_over_when_they_land(self):
        with _served_fleet(3) as router:
            prefix = _prefix_on(2, 3)
            feed = router.subscribe(since=0)
            sent, arrived = {}, {}

            def consume():
                deadline = time.monotonic() + 10.0
                while len(arrived) < 20 and time.monotonic() < deadline:
                    try:
                        delta = feed.poll()
                    except ConnectionError:
                        return
                    now = time.monotonic()
                    for record_id in delta.interfaces if delta else ():
                        arrived.setdefault(record_id, now)

            consumer = threading.Thread(target=consume)
            consumer.start()
            try:
                for host in range(1, 21):
                    time.sleep(0.03)
                    started = time.monotonic()
                    record, _ = router.observe_interface(
                        Observation("t", ip=f"{prefix}.{host}")
                    )
                    sent[record.record_id] = started
                consumer.join(timeout=10.0)
            finally:
                feed.close()
                consumer.join(timeout=5.0)
            assert set(arrived) == set(sent)
            delays = [arrived[record_id] - sent[record_id] for record_id in sent]
            assert statistics.median(delays) < 0.010

    def test_a_poll_over_local_shards_returns_after_one_pass(self):
        _journals, router = make_router(2)
        with router.subscribe(since=0) as feed:
            started = time.thread_time()
            assert feed.poll(0.3) is None
            assert time.thread_time() - started < 0.05

    def test_a_demoted_member_and_a_push_member_compose_one_chain(self):
        demoted = _DemotedShard(Journal())
        server = JournalServer(Journal(), port=0).start()
        writer = RemoteClient(*server.address)
        feed = ShardedChangeFeed([
            RemoteChangeFeed(*demoted.address, since=0),
            RemoteChangeFeed(*server.address, since=0),
        ])
        try:
            chain = []
            for round_ in range(2):
                for host in (1, 2):
                    demoted.journal.submit(Observation("t", ip=f"10.1.{round_}.{host}"))
                writer.observe_interface(Observation("t", ip=f"10.2.{round_}.1"))
                target = [demoted.journal.revision, writer.revision()]
                while feed.vector.revisions != target:
                    delta = feed.poll(5.0)
                    assert delta is not None
                    chain.append(delta)
            polling, push = feed._feeds
            assert (polling.mode, push.mode) == ("polling", "push")
            assert polling.reader() is None and push.reader() is not None
            since, vector = 0, [0, 0]
            for delta in chain:
                assert delta.since == since == sum(vector)
                assert all(a <= b for a, b in zip(vector, delta.vector))
                assert delta.revision == sum(delta.vector)
                since, vector = delta.revision, delta.vector
            assert vector == target
            ips = {key for delta in chain for key in delta.keys if key.startswith("ip:")}
            assert len(ips) == 6
        finally:
            feed.close()
            writer.close()
            server.stop()
            demoted.close()

    def test_a_member_with_a_buffered_frame_is_handed_over_without_waiting(self):
        with _served_fleet(2) as router:
            prefix = _prefix_on(1, 2)
            feed = router.subscribe(since=0)
            try:
                member = feed._feeds[1]
                for host in (1, 2):
                    router.observe_interface(Observation("t", ip=f"{prefix}.{host}"))
                    time.sleep(0.1)  # each write is pushed as its own frame
                first = member.poll(0.0)  # one recv takes both frames
                assert first is not None and member._client._frames.pending()
                started = time.monotonic()
                delta = feed.poll(1.0)
                elapsed = time.monotonic() - started
                assert delta is not None and not delta.keys & first.keys
                assert delta.vector == [0, 2]
                assert elapsed < 0.02
            finally:
                feed.close()

    def test_the_wait_never_blocks_on_a_buffered_or_closed_reader(self):
        idle, idle_peer = socket.socketpair()
        busy, busy_peer = socket.socketpair()
        try:
            idle_reader, busy_reader = wire.FrameReader(idle), wire.FrameReader(busy)
            busy_peer.sendall(wire.encode_message({"a": 1}) + wire.encode_message({"b": 2}))
            assert busy_reader.read(1.0) == {"a": 1} and busy_reader.pending()
            started = time.monotonic()
            wire.wait_for_frames([idle_reader, busy_reader], 1.0)
            assert time.monotonic() - started < 0.1
            started = time.monotonic()
            wire.wait_for_frames([idle_reader], 0.05)
            assert time.monotonic() - started >= 0.04
            idle.close()
            started = time.monotonic()
            wire.wait_for_frames([idle_reader], 1.0)
            assert time.monotonic() - started < 0.1
        finally:
            for sock in (idle, idle_peer, busy, busy_peer):
                sock.close()
