"""Journal replication tests: multi-site sharing (paper + future work)."""

import pytest

from repro.core import Journal, JournalServer, LocalClient, RemoteClient
from repro.core.records import Observation
from repro.core.replicate import JournalReplicator


def _clock():
    state = {"now": 0.0}
    return (lambda: state["now"]), state


@pytest.fixture
def two_sites():
    clock_a, state_a = _clock()
    clock_b, state_b = _clock()
    site_a = Journal(clock=clock_a)
    site_b = Journal(clock=clock_b)
    return (site_a, state_a), (site_b, state_b)


def _observe(journal, **kwargs):
    source = kwargs.pop("source", "ARPwatch")
    record, _ = journal.observe_interface(Observation(source=source, **kwargs))
    return record


class TestAbsorbInterface:
    def test_preserves_foreign_timestamps(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 1234.0
        foreign = _observe(site_a, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        state_b["now"] = 9999.0
        local, changed = site_b.absorb_interface(foreign)
        assert changed is True
        assert local.attribute("ip").first_discovered == 1234.0
        assert local.attribute("ip").last_verified == 1234.0

    def test_merges_with_existing_knowledge(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_b["now"] = 100.0
        _observe(site_b, ip="10.0.0.1")
        state_a["now"] = 500.0
        foreign = _observe(site_a, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        local, changed = site_b.absorb_interface(foreign)
        assert changed is True
        assert site_b.counts()["interfaces"] == 1
        assert local.mac == "aa:00:03:00:00:01"
        # First discovery keeps the EARLIEST time across sites.
        assert local.attribute("ip").first_discovered == 100.0
        assert local.attribute("ip").last_verified == 500.0

    def test_idempotent(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 5.0
        foreign = _observe(site_a, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        site_b.absorb_interface(foreign)
        _local, changed = site_b.absorb_interface(foreign)
        assert changed is False
        assert site_b.counts()["interfaces"] == 1

    def test_newer_remote_value_wins(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_b["now"] = 100.0
        _observe(site_b, ip="10.0.0.1", dns_name="old.test")
        state_a["now"] = 900.0
        foreign = _observe(site_a, ip="10.0.0.1", dns_name="new.test")
        local, changed = site_b.absorb_interface(foreign)
        assert changed is True
        assert local.dns_name == "new.test"
        assert site_b.interfaces_by_name("new.test")
        assert site_b.interfaces_by_name("old.test") == []

    def test_older_remote_value_loses(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 100.0
        foreign = _observe(site_a, ip="10.0.0.1", dns_name="old.test")
        state_b["now"] = 900.0
        _observe(site_b, ip="10.0.0.1", dns_name="new.test")
        local, _changed = site_b.absorb_interface(foreign)
        assert local.dns_name == "new.test"

    def test_conflicting_identities_stay_separate(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_b["now"] = 100.0
        _observe(site_b, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        state_a["now"] = 100.0
        foreign = _observe(site_a, ip="10.0.0.1", mac="aa:00:03:00:00:99")
        site_b.absorb_interface(foreign)
        # A cross-site duplicate-address conflict is itself a finding.
        assert len(site_b.interfaces_by_ip("10.0.0.1")) == 2


class TestReplicatorLocal:
    def test_full_sync_copies_everything(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        r1 = _observe(site_a, ip="10.0.1.1", mac="08:00:20:00:00:01")
        r2 = _observe(site_a, ip="10.0.2.1", mac="08:00:20:00:00:01")
        gateway, _ = site_a.ensure_gateway(
            source="x", name="gw", interface_ids=[r1.record_id, r2.record_id]
        )
        site_a.link_gateway_subnet(gateway.record_id, "10.0.1.0/24", source="x")
        replicator = JournalReplicator(LocalClient(site_a), LocalClient(site_b))
        stats = replicator.sync()
        assert stats.interfaces_sent == 2
        assert stats.gateways_sent == 1
        assert site_b.counts()["interfaces"] == 2
        assert site_b.counts()["gateways"] == 1
        remote_gateway = site_b.all_gateways()[0]
        assert remote_gateway.name == "gw"
        assert len(remote_gateway.interface_ids) == 2
        assert "10.0.1.0/24" in remote_gateway.connected_subnets
        assert site_b.subnet_by_key("10.0.1.0/24") is not None

    def test_incremental_sync_moves_only_new_records(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        _observe(site_a, ip="10.0.1.1")
        replicator = JournalReplicator(LocalClient(site_a), LocalClient(site_b))
        first = replicator.sync()
        assert first.interfaces_sent == 1
        second = replicator.sync()
        assert second.interfaces_sent == 0  # nothing new
        state_a["now"] = 20.0
        _observe(site_a, ip="10.0.1.2")
        third = replicator.sync()
        assert third.interfaces_sent == 1
        assert site_b.counts()["interfaces"] == 2

    def test_bidirectional_exchange(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        _observe(site_a, ip="10.0.1.1")
        state_b["now"] = 10.0
        _observe(site_b, ip="10.0.2.1")
        a_to_b = JournalReplicator(LocalClient(site_a), LocalClient(site_b))
        b_to_a = JournalReplicator(LocalClient(site_b), LocalClient(site_a))
        a_to_b.sync()
        b_to_a.sync()
        assert site_a.counts()["interfaces"] == 2
        assert site_b.counts()["interfaces"] == 2

    def test_repeated_bidirectional_sync_converges(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        _observe(site_a, ip="10.0.1.1", mac="aa:00:03:00:00:01")
        a_to_b = JournalReplicator(LocalClient(site_a), LocalClient(site_b))
        b_to_a = JournalReplicator(LocalClient(site_b), LocalClient(site_a))
        for _round in range(3):
            a_to_b.sync()
            b_to_a.sync()
        assert site_a.counts()["interfaces"] == 1
        assert site_b.counts()["interfaces"] == 1


class TestReplicatorOverSockets:
    def test_two_journal_servers_share_findings(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 42.0
        record = _observe(site_a, ip="10.0.1.1", mac="08:00:20:00:00:01")
        site_a.ensure_gateway(source="x", name="gw", interface_ids=[record.record_id])
        server_a = JournalServer(site_a)
        server_b = JournalServer(site_b)
        server_a.start()
        server_b.start()
        try:
            with RemoteClient(*server_a.address) as client_a, RemoteClient(
                *server_b.address
            ) as client_b:
                replicator = JournalReplicator(client_a, client_b)
                stats = replicator.sync()
                assert stats.interfaces_sent == 1
                assert stats.gateways_sent == 1
        finally:
            server_a.stop()
            server_b.stop()
        counts = site_b.counts()
        assert (counts["interfaces"], counts["gateways"], counts["subnets"]) == (1, 1, 0)
        absorbed = site_b.interfaces_by_ip("10.0.1.1")[0]
        assert absorbed.attribute("ip").first_discovered == 42.0
        assert site_b.all_gateways()[0].name == "gw"


class TestRevisionCursor:
    """The sync cursor is the revision counter, not a timestamp
    high-water mark — timestamps lose same-instant writes."""

    def test_same_timestamp_write_after_sync_is_not_lost(self, two_sites):
        """Regression: with the old ``last_modified > last_sync`` filter
        a record written at EXACTLY the high-water timestamp after a
        pass was never replicated.  Step clocks make such ties routine."""
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        _observe(site_a, ip="10.0.1.1")
        replicator = JournalReplicator(LocalClient(site_a), LocalClient(site_b))
        assert replicator.sync().interfaces_sent == 1
        # The clock has NOT advanced: same timestamp, new record.
        _observe(site_a, ip="10.0.1.2")
        assert replicator.sync().interfaces_sent == 1
        assert len(site_b.interfaces_by_ip("10.0.1.2")) == 1

    def test_burst_of_same_timestamp_writes_straddling_a_sync(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 7.0
        for index in range(1, 4):
            _observe(site_a, ip=f"10.0.1.{index}")
        replicator = JournalReplicator(LocalClient(site_a), LocalClient(site_b))
        replicator.sync()
        for index in range(4, 7):  # still t=7.0
            _observe(site_a, ip=f"10.0.1.{index}")
        assert replicator.sync().interfaces_sent == 3
        assert site_b.counts()["interfaces"] == 6

    def test_cursor_advances_to_source_revision(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        _observe(site_a, ip="10.0.1.1")
        replicator = JournalReplicator(LocalClient(site_a), LocalClient(site_b))
        replicator.sync()
        assert replicator.last_revision == site_a.revision
        assert replicator.syncs_completed == 1

    def test_verify_only_refresh_does_not_resync(self, two_sites):
        """The documented trade-off: a re-observation that confirms known
        values advances last_modified without spending a revision, so it
        does not ride along — value changes always do."""
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        _observe(site_a, ip="10.0.1.1", mac="aa:00:03:00:00:01")
        replicator = JournalReplicator(LocalClient(site_a), LocalClient(site_b))
        replicator.sync()
        state_a["now"] = 99.0
        _observe(site_a, ip="10.0.1.1", mac="aa:00:03:00:00:01")  # verify only
        assert replicator.sync().records_sent == 0
        state_a["now"] = 100.0
        _observe(site_a, ip="10.0.1.1", dns_name="gw.test")  # value change
        assert replicator.sync().interfaces_sent == 1
        assert site_b.interfaces_by_name("gw.test")


class _CountingClient(LocalClient):
    """LocalClient that counts read calls, to pin the replicator's
    access pattern: one pull per pass, no queries or table scans."""

    def __init__(self, journal):
        super().__init__(journal)
        self.all_interfaces_calls = 0
        self.query_calls = 0
        self.pulls = []

    def all_interfaces(self):
        self.all_interfaces_calls += 1
        return super().all_interfaces()

    def query(self, kind, where=None):
        self.query_calls += 1
        return super().query(kind, where)

    def pull(self, since, where=None):
        pulled = super().pull(since, where)
        self.pulls.append(pulled)
        return pulled


class TestBatchedMemberResolution:
    def test_one_query_per_pass_not_one_scan_per_member(self, two_sites):
        """Regression for the O(interfaces x members) rescan: a pass is
        ONE pull, whose members list resolves every unsent member of a
        changed gateway — no query and no interface scan of its own."""
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        members = [
            _observe(site_a, ip=f"10.0.{index}.1", mac=f"aa:00:03:00:00:{index:02x}")
            for index in range(1, 6)
        ]
        gateway, _ = site_a.ensure_gateway(
            source="x", name="gw", interface_ids=[r.record_id for r in members]
        )
        source = _CountingClient(site_a)
        replicator = JournalReplicator(source, LocalClient(site_b))
        replicator.sync()
        # Pass 2 touches ONLY the gateway: its members fall outside the
        # incremental window and all need resolving.
        state_a["now"] = 20.0
        site_a.link_gateway_subnet(gateway.record_id, "10.0.1.0/24", source="x")
        source.pulls.clear()
        stats = replicator.sync()
        assert stats.gateways_sent == 1
        assert source.all_interfaces_calls == 0
        assert source.query_calls == 0
        assert len(source.pulls) == 1
        _revision, interfaces, _gateways, pulled_members, _subnets = source.pulls[0]
        assert interfaces == []
        assert len(pulled_members) == 5
        target_gateway = site_b.all_gateways()[0]
        assert len(target_gateway.interface_ids) == 5

    def test_no_batch_query_when_members_ride_the_same_pass(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        record = _observe(site_a, ip="10.0.1.1")
        site_a.ensure_gateway(source="x", name="gw", interface_ids=[record.record_id])
        source = _CountingClient(site_a)
        JournalReplicator(source, LocalClient(site_b)).sync()
        assert source.all_interfaces_calls == 0
        assert source.query_calls == 0
        assert len(source.pulls) == 1
        assert source.pulls[0][3] == []  # the member rode the interface delta
        assert site_b.all_gateways()[0].interface_ids == [
            site_b.interfaces_by_ip("10.0.1.1")[0].record_id
        ]


class TestSkippedGateways:
    def test_unanchorable_gateway_is_counted_not_silent(self, two_sites):
        """A nameless gateway whose members no longer exist cannot be
        anchored on the target: it must show up in stats and telemetry
        instead of vanishing."""
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        record = _observe(site_a, ip="10.0.1.1")
        site_a.ensure_gateway(source="x", name=None, interface_ids=[record.record_id])
        site_a.delete_interface(record.record_id)
        replicator = JournalReplicator(LocalClient(site_a), LocalClient(site_b))
        stats = replicator.sync()
        assert stats.gateways_skipped == 1
        assert stats.gateways_sent == 0
        assert site_b.counts()["gateways"] == 0
        counter = replicator.telemetry.counter(
            "fremont_replication_gateways_skipped_total",
            "Gateways not replicated for lack of a target-side anchor",
        )
        assert counter.value == 1

    def test_named_gateway_without_members_still_replicates(self, two_sites):
        (site_a, state_a), (site_b, state_b) = two_sites
        state_a["now"] = 10.0
        record = _observe(site_a, ip="10.0.1.1")
        site_a.ensure_gateway(source="x", name="gw", interface_ids=[record.record_id])
        site_a.delete_interface(record.record_id)
        replicator = JournalReplicator(LocalClient(site_a), LocalClient(site_b))
        stats = replicator.sync()
        assert stats.gateways_sent == 1
        assert stats.gateways_skipped == 0
        assert site_b.all_gateways()[0].name == "gw"


class TestScopedReplication:
    """where= on the replicator: predicate-filtered shard-to-shard sync."""

    def test_interfaces_outside_scope_stay_home(self, two_sites):
        from repro.core import query as q

        (site_a, state_a), (site_b, _state_b) = two_sites
        state_a["now"] = 10.0
        _observe(site_a, ip="10.1.1.1")
        _observe(site_a, ip="10.1.1.2")
        _observe(site_a, ip="10.2.2.1")
        replicator = JournalReplicator(
            LocalClient(site_a), LocalClient(site_b),
            where=q.InSubnet("10.1.1.0/24"),
        )
        replicator.sync(full=True)
        assert sorted(r.ip for r in site_b.all_interfaces()) == [
            "10.1.1.1", "10.1.1.2",
        ]

    def test_scope_composes_with_incremental_cursor(self, two_sites):
        from repro.core import query as q

        (site_a, state_a), (site_b, _state_b) = two_sites
        state_a["now"] = 10.0
        _observe(site_a, ip="10.1.1.1")
        replicator = JournalReplicator(
            LocalClient(site_a), LocalClient(site_b),
            where=q.InSubnet("10.1.1.0/24"),
        )
        replicator.sync(full=True)
        state_a["now"] = 20.0
        _observe(site_a, ip="10.1.1.7")
        _observe(site_a, ip="10.3.3.3")
        stats = replicator.sync()
        assert stats.interfaces_sent == 1
        assert sorted(r.ip for r in site_b.all_interfaces()) == [
            "10.1.1.1", "10.1.1.7",
        ]

    def test_out_of_scope_members_drop_from_gateways(self, two_sites):
        from repro.core import query as q

        (site_a, state_a), (site_b, _state_b) = two_sites
        state_a["now"] = 10.0
        inside = _observe(site_a, ip="10.1.1.1")
        outside = _observe(site_a, ip="10.2.2.1")
        site_a.ensure_gateway(
            source="t", name="gw", interface_ids=[inside.record_id, outside.record_id]
        )
        replicator = JournalReplicator(
            LocalClient(site_a), LocalClient(site_b),
            where=q.InSubnet("10.1.1.0/24"),
        )
        replicator.sync(full=True)
        (gateway,) = site_b.all_gateways()
        members = [site_b.interfaces[i].ip for i in gateway.interface_ids]
        assert members == ["10.1.1.1"]


class TestFederatedView:
    """Aggregate read-only view over a sharded fleet."""

    def _fleet(self, shards=3):
        from repro.core import connect

        journals = [Journal() for _ in range(shards)]
        router = connect([connect(j) for j in journals])
        return journals, router

    def test_aggregate_sees_every_shard(self):
        from repro.core import FederatedView

        _journals, router = self._fleet()
        for index in range(1, 8):
            router.observe_interface(Observation(source="t", ip=f"10.{index}.1.1"))
        view = FederatedView(router)
        stats = view.refresh(full=True)
        assert stats.interfaces_sent == 7
        assert view.counts()["interfaces"] == 7
        assert not view.partial

    def test_refresh_is_incremental(self):
        from repro.core import FederatedView

        _journals, router = self._fleet()
        router.observe_interface(Observation(source="t", ip="10.1.1.1"))
        view = FederatedView(router)
        view.refresh(full=True)
        router.observe_interface(Observation(source="t", ip="10.2.2.2"))
        stats = view.refresh()
        assert stats.interfaces_sent == 1
        assert view.counts()["interfaces"] == 2

    def test_cross_shard_gateway_remerges_in_aggregate(self):
        from repro.core import FederatedView

        _journals, router = self._fleet()
        left, _ = router.observe_interface(Observation(source="t", ip="10.1.1.1"))
        right, _ = router.observe_interface(Observation(source="t", ip="10.2.2.1"))
        router.ensure_gateway(
            source="t", name="gw-span", interface_ids=[left.record_id, right.record_id]
        )
        # The router keeps per-shard fragments; the aggregate re-merges
        # them into the one device a single Journal would hold.
        assert len(router.all_gateways()) >= 1
        view = FederatedView(router)
        view.refresh(full=True)
        gateways = view.all_gateways()
        assert len(gateways) == 1
        members = sorted(
            view.journal.interfaces[i].ip for i in gateways[0].interface_ids
        )
        assert members == ["10.1.1.1", "10.2.2.1"]

    def test_unreachable_shard_degrades_gracefully(self):
        from repro.core import FederatedView

        class _Dead:
            def __getattr__(self, name):
                def boom(*args, **kwargs):
                    raise ConnectionError("down")
                return boom

        journal = Journal()
        client = LocalClient(journal)
        _observe(journal, ip="10.1.1.1")
        view = FederatedView([client, _Dead()])
        stats = view.refresh(full=True)
        assert view.partial
        assert view.stale_shards == [1]
        assert stats.interfaces_sent == 1
        # The aggregate keeps serving what it has.
        assert view.counts()["interfaces"] == 1

    def test_stale_shard_catches_up_from_its_cursor(self):
        from repro.core import FederatedView

        class _Flaky:
            def __init__(self, client):
                self._client = client
                self.down = False

            def __getattr__(self, name):
                if self.down:
                    raise ConnectionError("down")
                return getattr(self._client, name)

        journal = Journal()
        flaky = _Flaky(LocalClient(journal))
        _observe(journal, ip="10.1.1.1")
        view = FederatedView([flaky])
        view.refresh(full=True)
        _observe(journal, ip="10.1.1.2")
        flaky.down = True
        view.refresh()
        assert view.partial and view.stale_shards == [0]
        flaky.down = False
        stats = view.refresh()
        assert not view.partial
        assert stats.interfaces_sent == 1
        assert view.counts()["interfaces"] == 2


class TestPipelinedRefresh:
    """FederatedView.refresh over live shards: one pull per shard, all
    sent before any is waited on."""

    def test_one_request_per_shard_all_sent_before_any_wait(self):
        from repro.core import FederatedView

        journals = [Journal(), Journal()]
        _observe(journals[0], ip="10.1.1.1")
        _observe(journals[1], ip="10.2.2.1")
        servers = [JournalServer(journal).start() for journal in journals]
        clients = [RemoteClient(*server.address) for server in servers]
        try:
            events = []
            for index, client in enumerate(clients):
                def send(request, _send=client._send_tagged, _index=index):
                    events.append(("send", _index, request["op"]))
                    return _send(request)

                def wait(rid, timeout, _wait=client._wait, _index=index):
                    events.append(("wait", _index))
                    return _wait(rid, timeout)

                client._send_tagged = send
                client._wait = wait
            view = FederatedView(clients)
            stats = view.refresh()
            assert events == [
                ("send", 0, "pull"), ("send", 1, "pull"),
                ("wait", 0), ("wait", 1),
            ]
            assert stats.interfaces_sent == 2
            # A no-change refresh costs the same single round trip.
            events.clear()
            assert view.refresh().records_sent == 0
            assert [e[0] for e in events] == ["send", "send", "wait", "wait"]
        finally:
            for client in clients:
                client.close()
            for server in servers:
                server.stop()

    @pytest.mark.parametrize("error", [ConnectionError, RuntimeError])
    def test_every_started_pull_is_consumed_after_a_failure(self, error):
        """A lost shard goes stale; a server error is raised — but only
        after the other shard's pull has been waited on."""
        from repro.core import FederatedView

        journals = [Journal(), Journal()]
        _observe(journals[1], ip="10.1.1.1")
        servers = [JournalServer(journal).start() for journal in journals]
        clients = [RemoteClient(*server.address) for server in servers]
        waited = []
        try:
            def fail(rid, timeout):
                raise error("shard 0 failed")

            def wait(rid, timeout, _wait=clients[1]._wait):
                waited.append(rid)
                return _wait(rid, timeout)

            clients[0]._wait = fail
            clients[1]._wait = wait
            view = FederatedView(clients)
            if error is ConnectionError:
                stats = view.refresh()
                assert view.partial and view.stale_shards == [0]
                assert stats.interfaces_sent == 1
            else:
                with pytest.raises(RuntimeError, match="shard 0 failed"):
                    view.refresh()
                # Nothing absorbed: every cursor stays put for the retry.
                assert view.counts()["interfaces"] == 0
                assert [r.last_revision for r in view.replicators] == [0, 0]
            assert len(waited) == 1
        finally:
            for client in clients:
                client.close()
            for server in servers:
                server.stop()


class TestReplicateFromRouter:
    """A sharded router as a replication source (``fremont replicate``
    from a ``shard://`` fleet)."""

    def _fleet(self):
        from repro.core import connect

        journals = [Journal() for _ in range(2)]
        router = connect([connect(j) for j in journals])
        left, _ = router.observe_interface(Observation(source="t", ip="10.1.1.1"))
        right, _ = router.observe_interface(Observation(source="t", ip="10.2.2.1"))
        router.observe_interface(Observation(source="t", ip="10.3.3.3"))
        gateway, _ = router.ensure_gateway(
            source="t", name="gw-span",
            interface_ids=[left.record_id, right.record_id],
        )
        router.link_gateway_subnet(gateway.record_id, "10.1.1.0/24", source="t")
        router.ensure_subnet("10.9.9.0/24", source="t")
        return journals, router

    def test_full_sync_equals_router_snapshot(self):
        _journals, router = self._fleet()
        target = Journal()
        stats = JournalReplicator(router, LocalClient(target)).sync(full=True)
        assert stats.interfaces_sent == 3
        assert target.identity_state() == router.snapshot().identity_state()

    def test_incremental_pull_is_refused(self):
        _journals, router = self._fleet()
        replicator = JournalReplicator(router, LocalClient(Journal()))
        replicator.sync(full=True)
        with pytest.raises(ValueError, match="incremental pull"):
            replicator.sync()

    def test_unreachable_shard_fails_the_full_pull(self):
        from repro.core import ShardedClient

        class _Dead:
            def __getattr__(self, name):
                def boom(*args, **kwargs):
                    raise ConnectionError("down")
                return boom

        router = ShardedClient([LocalClient(Journal()), _Dead()], check=False)
        with pytest.raises(ConnectionError):
            router.pull(0)
