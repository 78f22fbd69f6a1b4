"""Unit tests for the failover subsystem (DESIGN.md §13).

Covers the fencing state machine (promote/fence/epoch stamps), the
``shard_info`` replica handshake, replica target parsing, epoch
persistence, reconnect jitter, write handoff between connections,
standby tailing/promotion, FailoverClient discovery and hedged reads,
aggregated sharded flush errors, and change-feed resume correctness
under a flapping link (chaos proxy).  The full fault campaign — SIGKILL
and partitions against real processes — lives in
``tests/integration/test_failover.py``.
"""

import contextlib
import shutil
import socket
import time

import pytest

from repro.core import (
    FailoverClient,
    Journal,
    JournalServer,
    JournalStore,
    RemoteChangeFeed,
    RemoteClient,
    ShardFlushError,
    ShardedClient,
    StandbyReplica,
    connect,
    format_replica_targets,
    parse_replica_targets,
)
from repro.core.records import Observation
from repro.core.wire import FencedError

from tests.chaos.proxy import ChaosProxy


def obs(index, source="failover-test"):
    return Observation(
        source=source,
        ip=f"10.40.{index // 250}.{index % 250 + 1}",
        mac=f"08:00:2b:00:{(index >> 8) & 0xFF:02x}:{index & 0xFF:02x}",
    )


def _closed_port():
    """A localhost port nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def server():
    journal = Journal()
    server = JournalServer(journal, port=0)
    server.start()
    try:
        yield server
    finally:
        server.stop()


class TestFencing:
    """The epoch state machine, exercised over the wire."""

    def test_promote_moves_epoch_and_reports_role(self, server):
        host, port = server.address
        with RemoteClient(host, port) as client:
            info = client.replica_info()
            assert info == {"role": "primary", "epoch": 0, "revision": 0}
            assert client.promote() == 1
            assert client.replica_info()["epoch"] == 1
            # Idempotent re-promote of the sitting primary at its epoch.
            assert client.promote(1) == 1
            # Backwards promotion is fenced.
            with pytest.raises(FencedError):
                client.promote(1 - 1)

    def test_stale_epoch_stamp_rejected(self, server):
        host, port = server.address
        with RemoteClient(host, port) as admin:
            admin.promote(3)
        with RemoteClient(host, port, fence_epoch=2) as stale:
            with pytest.raises(FencedError) as excinfo:
                stale.resolve(obs(1))
            assert excinfo.value.epoch == 3
            assert excinfo.value.role == "primary"

    def test_matching_epoch_stamp_accepted(self, server):
        host, port = server.address
        with RemoteClient(host, port) as admin:
            admin.promote(3)
        with RemoteClient(host, port, fence_epoch=3) as current:
            record, changed = current.resolve(obs(1))
            assert changed

    def test_newer_stamp_steps_server_down(self, server):
        host, port = server.address
        with RemoteClient(host, port, fence_epoch=5) as future:
            with pytest.raises(FencedError):
                future.resolve(obs(1))
        with RemoteClient(host, port) as probe:
            info = probe.replica_info()
            assert info["role"] == "fenced"
            assert info["epoch"] == 5

    def test_fenced_server_rejects_even_unstamped_writes(self, server):
        host, port = server.address
        with RemoteClient(host, port) as admin:
            admin.fence(1)
            with pytest.raises(FencedError):
                admin.resolve(obs(1))
            # Reads still serve: followers and fenced servers answer them.
            assert admin.all_interfaces() == []
            # Re-promotion past the fence restores the write path.
            assert admin.promote() == 2
            _record, changed = admin.resolve(obs(2))
            assert changed

    def test_fence_of_sitting_primary_needs_newer_epoch(self, server):
        host, port = server.address
        with RemoteClient(host, port) as admin:
            admin.promote(4)
            with pytest.raises(RuntimeError):
                admin.fence(4)
            assert admin.replica_info()["role"] == "primary"
            admin.fence(5)
            assert admin.replica_info()["role"] == "fenced"


class TestReplicaTargets:
    def test_parse_and_format_round_trip(self):
        spec = "shard://h1:1001|r1:2001,h2:1002|r2:2002|r3:2003"
        groups = parse_replica_targets(spec)
        assert groups == [
            [("h1", 1001), ("r1", 2001)],
            [("h2", 1002), ("r2", 2002), ("r3", 2003)],
        ]
        assert format_replica_targets(groups) == spec

    def test_plain_targets_stay_single_member(self):
        assert parse_replica_targets("h1:1001,h2:1002") == [
            [("h1", 1001)],
            [("h2", 1002)],
        ]

    def test_connect_replica_list_builds_failover_client(self, server):
        host, port = server.address
        with connect(f"{host}:{port}|127.0.0.1:1") as client:
            assert isinstance(client, FailoverClient)
            assert client.active_address == (host, port)

    def test_path_and_impact_through_replica_list(self, server):
        """Every RemoteClient read is proxied by FailoverClient, the
        topology queries included: a replicated target answers path and
        impact exactly like a plain connection to its primary."""
        journal = server.journal
        a, _ = journal.ensure_gateway(source="RIPwatch", name="gw-a")
        for key in ("10.0.1.0/24", "10.0.2.0/24"):
            journal.link_gateway_subnet(a.record_id, key, source="RIPwatch")
        b, _ = journal.ensure_gateway(source="Traceroute", name="gw-b")
        for key in ("10.0.2.0/24", "10.0.3.0/24"):
            journal.link_gateway_subnet(b.record_id, key, source="Traceroute")
        host, port = server.address
        spec = f"{host}:{port}|{host}:{_closed_port()}"
        with RemoteClient(host, port) as plain, connect(spec) as replicated:
            assert isinstance(replicated, FailoverClient)
            path = replicated.path("10.0.1.0/24", "10.0.3.0/24")
            assert path.found
            assert path == plain.path("10.0.1.0/24", "10.0.3.0/24")
            impact = replicated.impact("gw-b")
            assert impact.articulation
            assert impact == plain.impact("gw-b")


class TestEpochPersistence:
    def test_epoch_survives_store_reopen(self, tmp_path):
        store = JournalStore(tmp_path)
        assert store.read_epoch() == 0
        store.write_epoch(7)
        store.close()
        reopened = JournalStore(tmp_path)
        assert reopened.read_epoch() == 7
        reopened.close()

    def test_missing_or_garbage_epoch_reads_as_zero(self, tmp_path):
        store = JournalStore(tmp_path)
        with open(store.epoch_path, "w") as handle:
            handle.write("not json")
        assert store.read_epoch() == 0
        store.close()


class TestReconnectJitter:
    def test_two_clients_retry_schedules_diverge(self, server, monkeypatch):
        """The thundering-herd fix: with the same backoff parameters,
        two clients must not sleep the same schedule."""
        host, port = server.address
        a = RemoteClient(host, port, reconnect_attempts=4)
        b = RemoteClient(host, port, reconnect_attempts=4)
        server.stop()
        schedules = {}

        def record(client, label):
            sleeps = []
            monkeypatch.setattr(
                "repro.core.client.time.sleep", sleeps.append
            )
            assert not client._reconnect()
            schedules[label] = sleeps

        record(a, "a")
        record(b, "b")
        assert len(schedules["a"]) == len(schedules["b"]) == 3
        assert schedules["a"] != schedules["b"]
        # Jitter stays within the [0.5, 1.5) envelope of the base delay.
        for sleeps in schedules.values():
            for base, actual in zip((0.1, 0.2, 0.4), sleeps):
                assert base * 0.5 <= actual < base * 1.5


class TestHandoff:
    def test_unacked_writes_move_to_the_replacement_connection(self, server):
        host, port = server.address
        victim = Journal()
        victim_server = JournalServer(victim, port=0)
        victim_server.start()
        vh, vp = victim_server.address
        doomed = RemoteClient(vh, vp, reconnect_attempts=1)
        victim_server.stop()
        # Observations against a dead server park for replay.
        doomed.observe_interface(obs(1))
        doomed.observe_interface(obs(2))
        assert doomed.pending_replay == 2
        carried, owed = doomed.handoff()
        assert len(carried) == 2
        assert doomed.pending_replay == 0
        with RemoteClient(host, port) as replacement:
            replacement.adopt(carried, coalesced=owed)
            replacement.flush()
            assert len(replacement.all_interfaces()) == 2

    def test_handoff_drops_reads_and_strips_stamps(self, server):
        host, port = server.address
        client = RemoteClient(host, port, fence_epoch=2)
        client._pending.append({"op": "ping"})
        client._pending.append({"op": "observe", "epoch": 9, "observation": {}})
        carried, _owed = client.handoff()
        assert {"op": "ping"} in carried  # parked entries carry as-is
        assert {"op": "observe", "observation": {}} in carried


class TestShardedFlush:
    class _StubShard:
        def __init__(self, fail=False):
            self.fail = fail
            self.flushed = 0

        def flush(self):
            if self.fail:
                raise ConnectionError("shard unreachable")
            self.flushed += 1

        def close(self):
            pass

    def test_failures_aggregate_and_healthy_shards_still_drain(self):
        shards = [
            self._StubShard(),
            self._StubShard(fail=True),
            self._StubShard(),
            self._StubShard(fail=True),
        ]
        router = ShardedClient(shards, check=False)
        with pytest.raises(ShardFlushError) as excinfo:
            router.flush()
        assert excinfo.value.shard_indexes == [1, 3]
        assert "shard(s) 1, 3" in str(excinfo.value)
        assert shards[0].flushed == 1 and shards[2].flushed == 1
        down = {
            labels["shard"]: sample.value
            for labels, sample in router.telemetry.get(
                "fremont_shard_down"
            ).samples()
        }
        assert down == {"0": 0, "1": 1, "2": 0, "3": 1}

    def test_all_healthy_flush_returns_cleanly(self):
        shards = [self._StubShard(), self._StubShard()]
        router = ShardedClient(shards, check=False)
        router.flush()
        assert [s.flushed for s in shards] == [1, 1]


class TestStandbyReplica:
    def test_tails_primary_and_serves_reads(self, server):
        host, port = server.address
        with StandbyReplica((host, port), poll_interval=0.05) as standby:
            with RemoteClient(host, port) as client:
                for index in range(10):
                    client.resolve(obs(index))
                revision = client.revision()
            deadline = time.monotonic() + 10.0
            while (
                standby.replicated_revision < revision
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert standby.replicated_revision >= revision
            assert standby.lag == 0
            sh, sp = standby.address
            with RemoteClient(sh, sp) as reader:
                assert len(reader.all_interfaces()) == 10
                with pytest.raises(FencedError):
                    reader.resolve(obs(99))

    def test_local_promote_stops_tailing_and_opens_writes(self, server):
        host, port = server.address
        with StandbyReplica((host, port), poll_interval=0.05) as standby:
            assert standby.promote() == 1
            assert standby.role == "primary"
            assert standby._tail_stop.is_set()
            sh, sp = standby.address
            with RemoteClient(sh, sp) as client:
                _record, changed = client.resolve(obs(1))
                assert changed

    def test_absorbing_standby_checkpoints_and_loses_no_acked_write(
        self, server, tmp_path
    ):
        # A standby writes only absorbs.  They are WAL-logged like any
        # write, so they count toward its checkpoint policy, and after
        # promotion a crash (its directory copied without close()) loses
        # neither what it replicated nor what it acknowledged since.
        host, port = server.address
        with RemoteClient(host, port) as client:
            members = [client.resolve(obs(index))[0] for index in range(6)]
            gateway, _ = client.ensure_gateway(
                source="t", name="gw-1",
                interface_ids=[record.record_id for record in members[:2]],
            )
            client.link_gateway_subnet(gateway.record_id, "10.40.0.0/24", source="t")
            revision = client.revision()
        store = JournalStore(
            str(tmp_path / "standby"), fsync="never", checkpoint_ops=4,
            checkpoint_bytes=None, checkpoint_age=None,
        )
        standby = StandbyReplica(
            (host, port), store=store, poll_interval=0.05,
            server_options={"checkpoint_poll": 0.05},
        )
        with standby:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and (
                standby.replicated_revision < revision
                or standby.journal.counts()["wal_checkpoints"] < 1
            ):
                time.sleep(0.02)
            assert standby.replicated_revision >= revision
            assert standby.journal.counts()["wal_checkpoints"] >= 1
            standby.promote()
            sh, sp = standby.address
            with RemoteClient(sh, sp) as client:
                client.resolve(obs(99))  # acknowledged by the new primary

            def crash_copy():
                # On the loop with no file job in flight, nothing
                # writes the standby's directory.
                if standby.server._file_job is not None:
                    return False
                shutil.copytree(tmp_path / "standby", tmp_path / "crashed")
                return True

            while not standby.server.call(crash_copy):
                time.sleep(0.01)
            promoted = standby.journal.identity_state()
        recovered_store = JournalStore(str(tmp_path / "crashed"))
        recovered = recovered_store.recover()
        assert recovered.identity_state() == promoted
        assert len(recovered.gateways) == 1 and len(recovered.interfaces) == 7
        recovered_store.close(checkpoint=False)
        store.close()

    def test_standby_adopts_primary_epoch(self, server):
        host, port = server.address
        with RemoteClient(host, port) as admin:
            admin.promote(6)
        with StandbyReplica((host, port), poll_interval=0.05) as standby:
            deadline = time.monotonic() + 10.0
            while standby.epoch < 6 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert standby.epoch == 6
            # Promotion must go strictly beyond every observed epoch.
            assert standby.promote() == 7


class TestFailoverClient:
    def test_failover_promotes_freshest_standby(self, server):
        host, port = server.address
        with StandbyReplica((host, port), poll_interval=0.05) as standby:
            client = FailoverClient([(host, port), standby.address])
            try:
                for index in range(5):
                    client.resolve(obs(index))
                revision = client.revision()
                deadline = time.monotonic() + 10.0
                while (
                    standby.replicated_revision < revision
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                server.stop()
                _record, changed = client.resolve(obs(100))
                assert changed
                assert client.active_address == standby.address
                assert client.epoch == 1
                assert standby.role == "primary"
                assert len(client.all_interfaces()) == 6
            finally:
                client.close()

    def test_read_hedges_to_follower_when_primary_dies(self, server):
        host, port = server.address
        with StandbyReplica((host, port), poll_interval=0.05) as standby:
            client = FailoverClient([(host, port), standby.address])
            try:
                for index in range(3):
                    client.resolve(obs(index))
                deadline = time.monotonic() + 10.0
                while (
                    standby.replicated_revision < 3
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                server.stop()
                assert len(client.all_interfaces()) == 3
                assert (
                    client.telemetry.value("fremont_failover_hedged_reads_total")
                    + client.telemetry.value("fremont_failover_failovers_total")
                    > 0
                )
            finally:
                client.close()

    def test_no_reachable_replica_raises_connection_error(self):
        with pytest.raises(ConnectionError):
            FailoverClient([("127.0.0.1", 1)], probe_timeout=0.2)


class TestShardedFailoverBatch:
    """A synchronous sharded ``observe_batch`` over replica groups
    sends every shard's sub-batch before waiting on any, so failover
    must cover the wait: a primary fenced after the send re-sends its
    sub-batch to the promoted standby instead of dropping it."""

    def test_fenced_primaries_during_sync_batch_lose_nothing(self):
        observations = [
            Observation(source="failover-test", ip=f"10.41.{index}.1",
                        mac=f"08:00:2b:01:00:{index:02x}")
            for index in range(16)
        ]
        with contextlib.ExitStack() as stack:
            primaries = []
            for _ in range(2):
                primary = JournalServer(Journal(), port=0)
                primary.start()
                stack.callback(primary.stop)
                primaries.append(primary)
            standbys = [
                stack.enter_context(
                    StandbyReplica(primary.address, poll_interval=0.05)
                )
                for primary in primaries
            ]
            router = ShardedClient(
                [
                    FailoverClient([primary.address, standby.address])
                    for primary, standby in zip(primaries, standbys)
                ],
                check=False,
            )
            stack.callback(router.close)
            assert len(router._partition(observations)) == 2
            # Fence behind the clients' backs: each send reaches its old
            # primary and only the wait learns of the fence.
            for primary in primaries:
                with RemoteClient(*primary.address) as admin:
                    admin.fence(1)
            assert router.observe_batch(observations) == [True] * 16
            stored = set()
            for client, standby in zip(router.clients, standbys):
                assert client.active_address == standby.address
                assert standby.role == "primary"
                with RemoteClient(*standby.address) as reader:
                    stored.update(r.ip for r in reader.all_interfaces())
            assert stored == {o.ip for o in observations}


class TestFeedFlap:
    """Satellite: RemoteChangeFeed across a flapping link must deliver
    every delta exactly once, in order, across resumes."""

    def test_no_delta_duplicated_or_skipped_across_resumes(self, server):
        host, port = server.address
        with ChaosProxy((host, port)) as proxy:
            ph, pp = proxy.address
            feed = RemoteChangeFeed(
                ph, pp, since=0,
                reconnect_attempts=10, reconnect_backoff=0.05,
            )
            try:
                with RemoteClient(host, port) as writer:
                    seen = []
                    total = 30
                    for index in range(total):
                        writer.resolve(obs(index))
                        if index % 7 == 3:
                            # connect -> deliver -> drop -> heal, repeated
                            proxy.kill_connections()
                        deadline = time.monotonic() + 10.0
                        while (
                            feed.revision < index + 1
                            and time.monotonic() < deadline
                        ):
                            delta = feed.poll(0.1)
                            if delta is not None:
                                seen.append(delta)
                    assert feed.revision == total
                    assert feed.resumes > 0
                    # Exactly-once, in-order delivery: the per-delta
                    # (since, revision] windows tile [0, total] with no
                    # gap and no overlap.
                    cursor = 0
                    for delta in seen:
                        assert delta.since == cursor
                        assert delta.revision > delta.since
                        cursor = delta.revision
                    assert cursor == total
            finally:
                feed.close()

    def test_blackhole_then_heal_resumes_without_loss(self, server):
        host, port = server.address
        with ChaosProxy((host, port)) as proxy:
            ph, pp = proxy.address
            feed = RemoteChangeFeed(ph, pp, since=0, timeout=5.0)
            try:
                with RemoteClient(host, port) as writer:
                    writer.resolve(obs(1))
                    delta = feed.poll(5.0)
                    assert delta is not None and delta.revision == 1
                    proxy.blackhole()
                    writer.resolve(obs(2))
                    assert feed.poll(0.3) is None  # half-open: silence
                    proxy.heal()
                    deadline = time.monotonic() + 10.0
                    while feed.revision < 2 and time.monotonic() < deadline:
                        feed.poll(0.1)
                    assert feed.revision == 2
            finally:
                feed.close()
