"""QueryCache: feed-invalidated client-side caching.

Two properties matter:

1. zero cost on a hit — a repeated query sends *nothing* over the wire
   (proved by watching the RemoteClient's request-id allocator);
2. coherence — after ``sync()``, a cached read never differs from an
   uncached one, no matter what was written in between.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Journal, JournalServer, QueryCache, RemoteClient, connect
from repro.core import query as q
from repro.core.records import Observation


def _clock():
    state = {"now": 0.0}
    return (lambda: state["now"]), state


def _observe(journal, **kwargs):
    source = kwargs.pop("source", "ARPwatch")
    record, _ = journal.observe_interface(Observation(source=source, **kwargs))
    return record


@pytest.fixture
def journal():
    clock, state = _clock()
    journal = Journal(clock=clock)
    journal._clock_state = state
    return journal


IN_SUBNET = q.InSubnet("10.1.1.0/24")


class TestLocalCache:
    def test_hit_serves_identical_records(self, journal):
        _observe(journal, ip="10.1.1.1")
        with QueryCache(connect(journal)) as cache:
            first = cache.query("interfaces", IN_SUBNET)
            second = cache.query("interfaces", IN_SUBNET)
            assert first == second
            assert (cache.hits, cache.misses) == (1, 1)

    def test_related_write_evicts(self, journal):
        _observe(journal, ip="10.1.1.1")
        with QueryCache(connect(journal)) as cache:
            assert len(cache.query("interfaces", IN_SUBNET)) == 1
            _observe(journal, ip="10.1.1.2")
            hits = cache.query("interfaces", IN_SUBNET)
            assert [r.ip for r in hits] == ["10.1.1.1", "10.1.1.2"]
            assert cache.evictions == 1
            assert cache.hits == 0

    def test_unrelated_write_keeps_the_entry(self, journal):
        _observe(journal, ip="10.1.1.1")
        with QueryCache(connect(journal)) as cache:
            cache.query("interfaces", IN_SUBNET)
            _observe(journal, ip="10.9.9.9")  # different subnet's keys
            assert len(cache.query("interfaces", IN_SUBNET)) == 1
            assert cache.hits == 1
            assert cache.evictions == 0

    def test_unfiltered_query_evicted_by_any_write(self, journal):
        _observe(journal, ip="10.1.1.1")
        with QueryCache(connect(journal)) as cache:
            assert len(cache.query("interfaces", None)) == 1
            _observe(journal, ip="10.9.9.9")
            assert len(cache.query("interfaces", None)) == 2

    def test_kinds_are_independent(self, journal):
        _observe(journal, ip="10.1.1.1")
        journal.ensure_subnet("10.1.1.0/24", source="x")
        with QueryCache(connect(journal)) as cache:
            cache.query("interfaces", None)
            cache.query("subnets", None)
            # a subnet write must not evict the interfaces entry
            journal.ensure_subnet("10.2.2.0/24", source="x")
            cache.query("interfaces", None)
            assert cache.hits == 1

    def test_uncacheable_predicates_bypass(self, journal):
        _observe(journal, ip="10.1.1.1")
        with QueryCache(connect(journal)) as cache:
            for _ in range(3):
                cache.query("interfaces", q.Stale(50.0))
            assert len(cache) == 0
            assert (cache.hits, cache.misses) == (0, 3)

    def test_uncacheable_bypass_is_never_stale(self, journal):
        """The reason freshness predicates bypass: a verify-only
        re-observation moves them without any feed delta."""
        state = journal._clock_state
        state["now"] = 10.0
        _observe(journal, ip="10.1.1.1", mac="08:00:20:00:00:01")
        with QueryCache(connect(journal)) as cache:
            assert len(cache.query("interfaces", q.Stale(50.0))) == 1
            state["now"] = 60.0  # re-verify: no revision bump, no delta
            _observe(journal, ip="10.1.1.1", mac="08:00:20:00:00:01")
            assert cache.query("interfaces", q.Stale(50.0)) == []

    def test_lru_capacity_eviction(self, journal):
        for index in range(1, 4):
            _observe(journal, ip=f"10.{index}.0.1")
        with QueryCache(connect(journal), max_entries=2) as cache:
            for index in range(1, 4):
                cache.query("interfaces", q.InSubnet(f"10.{index}.0.0/24"))
            assert len(cache) == 2
            assert cache.evictions == 1
            # oldest entry (10.1.0.0/24) was dropped: re-fetching misses
            cache.query("interfaces", q.InSubnet("10.1.0.0/24"))
            assert cache.hits == 0

    def test_invalidate_clears_everything(self, journal):
        _observe(journal, ip="10.1.1.1")
        with QueryCache(connect(journal)) as cache:
            cache.query("interfaces", IN_SUBNET)
            cache.invalidate()
            assert len(cache) == 0
            cache.query("interfaces", IN_SUBNET)
            assert cache.hits == 0

    def test_delete_evicts(self, journal):
        record = _observe(journal, ip="10.1.1.1")
        with QueryCache(connect(journal)) as cache:
            assert len(cache.query("interfaces", IN_SUBNET)) == 1
            journal.delete_interface(record.record_id)
            assert cache.query("interfaces", IN_SUBNET) == []

    def test_vacated_identity_key_evicts(self, journal):
        """A field changing value logs the VACATED key too, so a query
        pinned to the old value drops its entry instead of serving a
        record that no longer matches."""
        _observe(journal, ip="10.1.1.1", dns_name="old.test")
        with QueryCache(connect(journal)) as cache:
            pinned = q.FieldEquals("dns_name", "old.test")
            assert len(cache.query("interfaces", pinned)) == 1
            journal._clock_state["now"] = 50.0
            _observe(journal, ip="10.1.1.1", dns_name="new.test")  # renamed
            assert cache.query("interfaces", pinned) == []
            assert len(
                cache.query("interfaces", q.FieldEquals("dns_name", "new.test"))
            ) == 1


_WRITES = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 6), st.booleans()),
    min_size=1,
    max_size=20,
)


class TestLocalCoherenceProperty:
    @staticmethod
    def _same_members(cached, fresh):
        # Membership and identity must agree.  Ordering may not: a
        # verify-only re-observation advances last_modified (the sort
        # key) without spending a revision, so the feed cannot report
        # it — the documented cacheability boundary.
        return sorted(r.record_id for r in cached) == sorted(
            r.record_id for r in fresh
        )

    @settings(max_examples=50, deadline=None)
    @given(writes=_WRITES)
    def test_cache_never_serves_stale_membership(self, writes):
        """Interleave writes with cached queries: every cached read must
        contain exactly the records a fresh uncached query finds."""
        clock, state = _clock()
        journal = Journal(clock=clock)
        subnets = [q.InSubnet(f"10.{index}.0.0/24") for index in range(4)]
        with QueryCache(connect(journal)) as cache:
            for step, (net, host, query_first) in enumerate(writes):
                state["now"] = float(step)
                if query_first:
                    for predicate in subnets:
                        assert self._same_members(
                            cache.query("interfaces", predicate),
                            journal.query("interfaces", predicate),
                        )
                journal.observe_interface(
                    Observation(source="prop", ip=f"10.{net}.0.{host}")
                )
            for predicate in subnets:
                assert self._same_members(
                    cache.query("interfaces", predicate),
                    journal.query("interfaces", predicate),
                )


class TestRemoteCache:
    @pytest.fixture
    def served(self):
        clock, state = _clock()
        journal = Journal(clock=clock)
        journal._clock_state = state
        server = JournalServer(journal)
        server.start()
        yield journal, server
        server.stop()

    def test_hit_costs_zero_round_trips(self, served):
        journal, server = served
        _observe(journal, ip="10.1.1.1")
        with RemoteClient(*server.address) as client:
            with QueryCache(client) as cache:
                first = cache.query("interfaces", IN_SUBNET)
                before = client._next_id
                second = cache.query("interfaces", IN_SUBNET)
                assert client._next_id == before  # nothing hit the wire
                assert [r.ip for r in second] == [r.ip for r in first]
                assert cache.hits == 1

    def test_sync_gives_read_your_writes(self, served):
        journal, server = served
        _observe(journal, ip="10.1.1.1")
        with RemoteClient(*server.address) as reader, RemoteClient(
            *server.address
        ) as writer:
            with QueryCache(reader) as cache:
                assert len(cache.query("interfaces", IN_SUBNET)) == 1
                writer.observe_interface(Observation(source="x", ip="10.1.1.2"))
                cache.sync()
                hits = cache.query("interfaces", IN_SUBNET)
                assert [r.ip for r in hits] == ["10.1.1.1", "10.1.1.2"]

    def test_unrelated_remote_write_keeps_entry_and_stays_off_the_wire(
        self, served
    ):
        journal, server = served
        _observe(journal, ip="10.1.1.1")
        with RemoteClient(*server.address) as reader, RemoteClient(
            *server.address
        ) as writer:
            with QueryCache(reader) as cache:
                cache.query("interfaces", IN_SUBNET)
                writer.observe_interface(Observation(source="x", ip="10.9.9.9"))
                cache.sync()  # delta arrives, watch does not trigger
                before = reader._next_id
                assert len(cache.query("interfaces", IN_SUBNET)) == 1
                assert reader._next_id == before
                assert cache.evictions == 0


class TestFeedLaggedInvalidation:
    """A cache whose push feed is demoted (feed_lagged) must trust
    nothing once its delta window is pruned — full invalidate — and
    sync() immediately afterwards must still give read-your-writes."""

    def test_lag_demotion_invalidates_then_syncs(self):
        import socket as socket_module
        import time as time_module

        def wait_for(predicate, timeout=10.0):
            deadline = time_module.monotonic() + timeout
            while time_module.monotonic() < deadline:
                if predicate():
                    return True
                time_module.sleep(0.02)
            return predicate()

        journal = Journal()
        server = JournalServer(journal, queue_limit=4)
        server.start()
        host, port = server.address
        writer = RemoteClient(host, port)
        fallbacks = journal.telemetry.get("fremont_server_feed_fallbacks_total")
        try:
            with QueryCache(RemoteClient(host, port)) as cache:
                _observe(journal, ip="10.1.1.1")
                primed = cache.query("interfaces", IN_SUBNET)
                assert [r.ip for r in primed] == ["10.1.1.1"]
                assert len(cache) == 1

                # Clamp both ends of the cache's feed socket so the
                # 4-frame outbox is the bottleneck, then flood from a
                # second client until the server demotes the feed.
                cache._feed._client._socket.setsockopt(
                    socket_module.SOL_SOCKET, socket_module.SO_RCVBUF, 4096
                )
                assert wait_for(
                    lambda: any(
                        conn._subscription is not None
                        for conn in server._connections
                    )
                )
                (feed_conn,) = [
                    conn
                    for conn in server._connections
                    if conn._subscription is not None
                ]
                feed_conn._writer.get_extra_info("socket").setsockopt(
                    socket_module.SOL_SOCKET, socket_module.SO_SNDBUF, 4096
                )
                for batch in range(400):
                    writer.observe_batch(
                        [
                            Observation(
                                source="flood",
                                ip=f"10.{200 + batch % 50}.{batch // 50}.{i + 1}",
                            )
                            for i in range(200)
                        ]
                    )
                    if fallbacks.value >= 1:
                        break
                assert wait_for(lambda: fallbacks.value >= 1)

                # The demotion unsubscribed the feed server-side; once
                # that lands, pruning discards the cache's replay window.
                assert wait_for(lambda: not journal._subscriptions)
                journal.prune_changes(journal.revision)

                # Read-your-writes through the SAME underlying client,
                # immediately after the lag: sync() must surface it.
                cache.client.observe_interface(
                    Observation(source="t", ip="10.1.1.9")
                )
                cache.sync(timeout=30.0)
                assert cache._feed.mode == "polling"
                # The pruned (incomplete) delta nuked every entry.
                assert len(cache) == 0
                fresh = cache.query("interfaces", IN_SUBNET)
                assert sorted(r.ip for r in fresh) == ["10.1.1.1", "10.1.1.9"]
                # And the cached copy agrees with an uncached read.
                assert [r.ip for r in cache.query("interfaces", IN_SUBNET)] == [
                    r.ip for r in cache.client.query("interfaces", IN_SUBNET)
                ]
        finally:
            writer.close()
            server.stop()
