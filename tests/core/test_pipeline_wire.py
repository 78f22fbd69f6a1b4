"""The pipelined async transport: out-of-order completion, per-request
deadlines, the slow-feed polling fallback, graceful stop() drain, and
the cost-routed inline path on a durable server."""

import os
import socket
import threading
import time

import pytest

from repro.core import (
    FailoverClient,
    Journal,
    JournalServer,
    JournalStore,
    LocalClient,
    RemoteClient,
    ShardMap,
    connect,
)
from repro.core import wire
from repro.core.records import Observation
from repro.core.server import JournalDispatcher


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.fixture
def served():
    journal = Journal()
    server = JournalServer(journal)
    server.start()
    yield journal, server
    server.stop()


def _raw_connection(server):
    sock = socket.create_connection(server.address, timeout=5.0)
    return sock, wire.FrameReader(sock)


class TestOutOfOrderCompletion:
    def test_inline_read_overtakes_bulk_dump(self, served):
        journal, server = served
        for index in range(500):
            journal.observe_interface(
                Observation(source="seed", ip=f"10.{index // 200}.{index % 200}.9")
            )
        sock, frames = _raw_connection(server)
        try:
            # dump serialises the whole journal on the worker pool; ping is
            # answered inline on the loop thread, so its response must land
            # first even though it was submitted second.  One segment so
            # both frames reach the reader in the same wakeup.
            sock.sendall(
                wire.encode_message({"op": "dump", "id": 1})
                + wire.encode_message({"op": "ping", "id": 2})
            )
            first = frames.read(10.0)
            second = frames.read(10.0)
            assert first["id"] == 2
            assert second["id"] == 1
            assert first["ok"] and second["ok"]
            assert "journal" in second
        finally:
            sock.close()

    def test_replies_resolve_by_id_not_arrival_order(self, served):
        journal, server = served
        host, port = server.address
        with RemoteClient(host, port) as client:
            replies = [
                client.begin(
                    {
                        "op": "observe",
                        "observation": {"source": "t", "ip": f"10.0.0.{i + 1}"},
                    }
                )
                for i in range(10)
            ]
            counts_reply = client.begin({"op": "counts"})
            # Settle newest-first: each PendingReply finds its own frame no
            # matter the order the caller collects them in.
            for reply in reversed(replies):
                assert reply.wait()["ok"] is True
            # The read may legally overtake the pipelined writes; it just
            # has to resolve against its own id.
            assert counts_reply.wait()["ok"] is True
        assert journal.counts()["interfaces"] == 10

    def test_pipelined_writes_apply_in_submission_order(self, served):
        journal, server = served
        host, port = server.address
        with RemoteClient(host, port) as client:
            replies = [
                client.begin(
                    {
                        "op": "observe",
                        "observation": {
                            "source": "t",
                            "ip": "10.0.0.1",
                            "vendor": f"vendor-{i}",
                        },
                    }
                )
                for i in range(8)
            ]
            for reply in replies:
                assert reply.wait()["ok"] is True
        (record,) = journal.interfaces_by_ip("10.0.0.1")
        # Writes chain per connection: the last submitted observation is
        # the last applied, so its vendor wins the merge.
        assert record.get("vendor") == "vendor-7"


class TestPerRequestTimeout:
    @pytest.fixture
    def black_hole(self):
        """A listener that accepts connections and never answers."""
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def accept_loop():
            try:
                while True:
                    conn, _addr = listener.accept()
                    accepted.append(conn)
            except OSError:
                pass

        thread = threading.Thread(target=accept_loop, daemon=True)
        thread.start()
        yield listener.getsockname()
        listener.close()
        for conn in accepted:
            conn.close()
        thread.join(timeout=2.0)

    def test_request_timeout_bounds_every_call(self, black_hole):
        host, port = black_hole
        client = RemoteClient(host, port, request_timeout=0.2, reconnect_attempts=1)
        try:
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.counts()
            assert time.monotonic() - started < 2.0
            assert client.telemetry.get("fremont_client_timeouts_total").value == 1
        finally:
            client.close()

    def test_per_reply_deadline_overrides_default(self, black_hole):
        host, port = black_hole
        client = RemoteClient(host, port, request_timeout=30.0, reconnect_attempts=1)
        try:
            reply = client.begin({"op": "ping"}, timeout=0.2)
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                reply.wait()
            assert time.monotonic() - started < 2.0
        finally:
            client.close()

    def test_timeout_disconnects_but_client_recovers(self):
        # A real server that answers: after a black-hole timeout the client
        # reconnects on the next call and keeps working.
        journal = Journal()
        server = JournalServer(journal)
        server.start()
        host, port = server.address
        client = RemoteClient(
            host, port, request_timeout=5.0, reconnect_attempts=2,
            reconnect_backoff=0.01, reconnect_backoff_cap=0.05,
        )
        try:
            with pytest.raises(TimeoutError):
                # an impossible deadline: even a ping cannot answer in 0s
                client.begin({"op": "ping"}, timeout=0.0).wait()
            assert client.counts()["interfaces"] == 0  # reconnected fine
        finally:
            client.close()
            server.stop()


class TestSlowFeedFallback:
    def test_lagging_subscriber_demoted_to_polling(self):
        journal = Journal()
        server = JournalServer(journal, queue_limit=4)
        server.start()
        host, port = server.address
        writer = RemoteClient(host, port)
        fallbacks = journal.telemetry.get("fremont_server_feed_fallbacks_total")
        try:
            feed = writer.subscribe(since=0)
            try:
                # Kernel socket buffers absorb megabytes on loopback, which
                # would hide the server-side backpressure this test is
                # about; clamp both ends so the 4-frame outbox is the
                # bottleneck.
                feed._socket.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, 4096
                )
                assert _wait_for(
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
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )

                # Flood without the feed reading: pushed deltas blow past
                # the outbox and the server cuts the subscriber over
                # instead of stalling the loop or the writers.
                batches = 0
                for batch in range(400):
                    writer.observe_batch(
                        [
                            Observation(
                                source="flood",
                                ip=f"10.{batch % 250}.{batch // 250}.{index + 1}",
                            )
                            for index in range(200)
                        ]
                    )
                    batches += 1
                    if fallbacks.value >= 1:
                        break
                assert _wait_for(lambda: fallbacks.value >= 1)
                # The flood was unhindered by the lagging feed.
                assert journal.counts()["interfaces"] == batches * 200

                # Drain the backlog: buffered push frames, then the
                # feed_lagged marker flips the feed to polling mode.
                for _ in range(5000):
                    if feed.mode == "polling":
                        break
                    feed.poll(5.0)
                assert feed.mode == "polling"

                # Polling mode still converges on the journal's revision.
                target = journal.revision
                for _ in range(20):
                    if feed.revision >= target:
                        break
                    feed.poll(5.0)
                assert feed.revision >= target
            finally:
                feed.close()

            # Request/response traffic on other connections never noticed.
            assert writer.counts()["interfaces"] == batches * 200
        finally:
            writer.close()
            server.stop()


class TestGracefulStop:
    def test_stop_drains_inflight_pipelined_requests(self):
        journal = Journal()
        server = JournalServer(journal)
        server.start()
        sock, frames = _raw_connection(server)
        try:
            for index in range(5):
                sock.sendall(
                    wire.encode_message(
                        {
                            "op": "observe",
                            "id": index,
                            "observation": {"source": "t", "ip": f"10.0.0.{index + 1}"},
                        }
                    )
                )
            sock.sendall(wire.encode_message({"op": "dump", "id": 99}))

            # Let the requests reach dispatch before stopping, so stop()
            # races the in-flight work (not the TCP delivery): the drain
            # must flush every computed response before closing.
            assert _wait_for(lambda: server.requests_served >= 6)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            seen = set()
            try:
                while True:
                    frame = frames.read(10.0)
                    if frame is None:
                        break
                    if "id" in frame:
                        assert frame["ok"] is True
                        seen.add(frame["id"])
            except ConnectionError:
                pass  # server closed the socket after the drain
            stopper.join(timeout=10.0)
            assert not stopper.is_alive()
            # Every in-flight request got its response before close.
            assert seen == {0, 1, 2, 3, 4, 99}
            assert journal.counts()["interfaces"] == 5
            assert server.live_connections == 0
        finally:
            sock.close()


class TestFeedLaggedResume:
    def test_resume_polls_from_delivered_revision_not_marker(self):
        """Regression: the feed_lagged marker carries the revision of the
        first delta that FAILED to enqueue — a delta the client never
        received.  Re-arming the cursor from the marker silently skipped
        it; the resume must poll from the revision actually delivered."""
        from repro.core.client import RemoteChangeFeed
        from repro.core.journal import JournalChanges

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        observed = {}

        def fake_server():
            conn, _addr = listener.accept()
            try:
                frames = wire.FrameReader(conn)
                request = frames.read(5.0)
                observed["subscribe"] = request
                conn.sendall(wire.encode_message({"ok": True, "revision": 0}))
                delivered = JournalChanges(since=0, revision=5)
                delivered.interfaces.add(1)
                conn.sendall(
                    wire.encode_message(
                        {
                            "ok": True,
                            "event": "changes",
                            "changes": wire.changes_to_dict(delivered),
                        }
                    )
                )
                # Pushes stopped at revision 9: deltas 6..9 were dropped,
                # never delivered.
                conn.sendall(
                    wire.encode_message(
                        {
                            "ok": True,
                            "event": "feed_lagged",
                            "revision": 9,
                            "reason": "slow consumer; poll changes_since",
                        }
                    )
                )
                poll = frames.read(5.0)
                observed["poll"] = poll
                missing = JournalChanges(
                    since=int(poll.get("since", -1)), revision=9
                )
                missing.interfaces.update({2, 3})
                conn.sendall(
                    wire.encode_message(
                        {"ok": True, "changes": wire.changes_to_dict(missing)}
                    )
                )
            finally:
                conn.close()

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        feed = RemoteChangeFeed(host, port, since=0)
        try:
            first = feed.poll(5.0)
            assert first is not None and first.revision == 5
            # This poll reads the feed_lagged marker and transparently
            # issues the changes_since fallback.
            recovered = feed.poll(5.0)
            thread.join(timeout=5.0)
            assert observed["subscribe"]["op"] == "subscribe"
            assert observed["poll"]["op"] == "changes_since"
            # The heart of the regression: resume from 5 (delivered),
            # never 9 (the dropped frame's marker).
            assert observed["poll"]["since"] == 5
            assert feed.mode == "polling"
            assert recovered is not None
            assert recovered.interfaces == {2, 3}
            assert feed.revision == 9
        finally:
            feed.close()
            listener.close()


class TestDurableInlinePath:
    """A durable server routes ops by cost: cheap writes and point
    lookups run on the loop thread, while fsyncs, checkpoints, bulk
    reads and everything under ``fsync="always"`` stay off it."""

    LOOP = "journal-server-loop"

    @pytest.fixture
    def handler_threads(self, monkeypatch):
        """Record which thread ran each write handler (op -> names)."""
        seen = {}
        ops = (
            "observe", "observe_batch", "negative_put", "ensure_gateway",
            "ensure_subnet", "link_gateway_subnet", "delete_interface",
            "absorb_interface", "absorb_gateway", "absorb_subnet",
        )
        for op in ops:
            original = getattr(JournalDispatcher, f"_op_{op}")

            def recording(self, request, _op=op, _original=original):
                seen.setdefault(_op, []).append(threading.current_thread().name)
                return _original(self, request)

            monkeypatch.setattr(JournalDispatcher, f"_op_{op}", recording)
        return seen

    @staticmethod
    def _durable_server(tmp_path, **settings):
        store = JournalStore(str(tmp_path), **settings)
        server = JournalServer(store.recover())
        server.start()
        return store, server

    def test_no_fsync_or_checkpoint_on_the_loop_thread(
        self, tmp_path, monkeypatch, handler_threads
    ):
        fsync_threads, checkpoint_threads = [], []
        real_fsync = os.fsync
        real_checkpoint = JournalStore.checkpoint

        def recording_fsync(fd):
            fsync_threads.append(threading.current_thread().name)
            real_fsync(fd)

        def recording_checkpoint(self):
            checkpoint_threads.append(threading.current_thread().name)
            return real_checkpoint(self)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(JournalStore, "checkpoint", recording_checkpoint)
        # Donor records for the absorb_* (replication) ops.
        donor = Journal()
        donor_interface, _ = donor.observe_interface(
            Observation(source="donor", ip="10.9.0.1")
        )
        donor_gateway, _ = donor.ensure_gateway(
            source="donor", interface_ids=[donor_interface.record_id]
        )
        donor_subnet, _ = donor.ensure_subnet("10.9.0.0/24", source="donor")

        store, server = self._durable_server(
            tmp_path, fsync="interval", fsync_interval=0.01, checkpoint_ops=4,
        )
        try:
            with RemoteClient(*server.address) as client:
                for round_ in range(10):
                    record, _ = client.observe_interface(
                        Observation(source="t", ip=f"10.0.{round_}.1")
                    )
                    # Varying batch sizes move the point where a
                    # checkpoint comes due (and the next write goes to
                    # the pool) around the op sequence.
                    client.observe_batch(
                        [Observation(source="t", ip=f"10.1.{round_}.{i + 1}")
                         for i in range(round_ % 4 + 1)]
                    )
                    client.negative_put("ip", f"10.2.{round_}.1", ttl=60.0)
                    gateway, _ = client.ensure_gateway(
                        source="t", interface_ids=[record.record_id]
                    )
                    client.ensure_subnet(f"10.0.{round_}.0/24", source="t")
                    client.link_gateway_subnet(
                        gateway.record_id, f"10.0.{round_}.0/24", source="t"
                    )
                    client.delete_interface(record.record_id)
                    absorbed, _ = client.absorb_interface(donor_interface)
                    client.absorb_gateway(
                        donor_gateway,
                        {donor_interface.record_id: absorbed.record_id},
                    )
                    client.absorb_subnet(donor_subnet)
                    time.sleep(0.005)  # let the interval fsync come due
                time.sleep(0.1)
        finally:
            server.stop()
            store.close(checkpoint=False)
        assert self.LOOP not in fsync_threads
        assert self.LOOP not in checkpoint_threads
        # ...and yet the writes were inline, and syncs and checkpoints ran.
        for op, threads in handler_threads.items():
            assert self.LOOP in threads, f"{op} never ran inline"
        assert "journal-server-checkpoint" in fsync_threads
        assert checkpoint_threads

    def test_pool_batch_then_inline_write_apply_in_order(
        self, tmp_path, handler_threads
    ):
        store, server = self._durable_server(tmp_path, fsync="interval")
        try:
            sock, frames = _raw_connection(server)
            batch = [
                {"op": "observe",
                 "observation": {"source": "t", "ip": f"10.0.1.{i + 1}"}}
                for i in range(64)
            ] + [{"op": "observe",
                  "observation": {"source": "t", "ip": "10.0.0.1", "vendor": "batch"}}]
            try:
                # One segment: the oversized batch goes to the pool, the
                # observe behind it is inline-eligible but must wait.
                sock.sendall(
                    wire.encode_message({**wire.batch_request(batch), "id": 1})
                    + wire.encode_message(
                        {"op": "observe", "id": 2,
                         "observation": {"source": "t", "ip": "10.0.0.1",
                                         "vendor": "inline"}}
                    )
                )
                replies = {frame["id"]: frame for frame in
                           (frames.read(10.0), frames.read(10.0))}
            finally:
                sock.close()
            assert replies[1]["ok"] and replies[2]["ok"]
            (record,) = server.journal.interfaces_by_ip("10.0.0.1")
            assert record.get("vendor") == "inline"
            assert handler_threads["observe_batch"][0].startswith("journal-worker")
        finally:
            server.stop()
            store.close(checkpoint=False)

    def test_point_lookup_overtakes_bulk_selector(self, tmp_path):
        store, server = self._durable_server(tmp_path, fsync="interval")
        journal = server.journal
        try:
            for index in range(500):
                journal.observe_interface(
                    Observation(source="seed", ip=f"10.{index // 200}.{index % 200}.9")
                )
            sock, frames = _raw_connection(server)
            try:
                # by="all" serialises every record on the worker pool; the
                # by="ip" point lookup is answered inline, so it lands first.
                sock.sendall(
                    wire.encode_message({"op": "get_interfaces", "by": "all", "id": 1})
                    + wire.encode_message(
                        {"op": "get_interfaces", "by": "ip", "key": "10.0.7.9", "id": 2}
                    )
                )
                first = frames.read(10.0)
                second = frames.read(10.0)
            finally:
                sock.close()
            assert first["id"] == 2 and len(first["records"]) == 1
            assert second["id"] == 1 and len(second["records"]) == 500
        finally:
            server.stop()
            store.close(checkpoint=False)

    def test_fsync_always_writes_stay_on_the_pool(self, tmp_path, handler_threads):
        store, server = self._durable_server(tmp_path, fsync="always")
        try:
            with RemoteClient(*server.address) as client:
                for index in range(5):
                    client.observe_interface(
                        Observation(source="t", ip=f"10.0.0.{index + 1}")
                    )
                client.negative_put("ip", "10.0.9.9", ttl=60.0)
        finally:
            server.stop()
            store.close(checkpoint=False)
        for op in ("observe", "negative_put"):
            assert handler_threads[op]
            assert all(name.startswith("journal-worker")
                       for name in handler_threads[op])


class TestBatchAckContract:
    """``observe_batch`` acknowledges each ``observe`` item with
    ``{"ok", "changed"}`` and no record (DESIGN.md §10); every other
    item answers exactly as its standalone op."""

    def test_observe_items_ack_changed_only(self, served):
        _journal, server = served
        sock, frames = _raw_connection(server)
        sighting = {"source": "t", "ip": "10.0.0.1", "mac": "aa:00:00:00:00:01"}
        try:
            sock.sendall(
                wire.encode_message(
                    wire.batch_request(
                        [
                            {"op": "observe", "observation": sighting},
                            {"op": "observe", "observation": sighting},
                            {"op": "observe", "observation": {"ip": "10.0.0.2"}},
                            {"op": "observe", "observation": "not-a-sighting"},
                        ]
                    )
                )
            )
            response = frames.read(10.0)
        finally:
            sock.close()
        assert response["ok"]
        new, verified, no_source, garbage = response["responses"]
        assert new == {"ok": True, "changed": True}
        assert verified == {"ok": True, "changed": False}
        for malformed in (no_source, garbage):
            assert set(malformed) == {"ok", "error"}
            assert malformed["ok"] is False
        # Standalone observe still returns the record.
        host, port = server.address
        with RemoteClient(host, port) as client:
            reply = client._call({"op": "observe", "observation": sighting})
        assert reply["changed"] is False
        assert reply["record"]["attributes"]["ip"]["value"] == "10.0.0.1"

    def test_other_items_answer_as_standalone(self, served):
        journal, server = served
        host, port = server.address
        negative = {"op": "negative_put", "kind": "dns", "key": "x", "ttl": 60.0}
        with RemoteClient(host, port) as client:
            batched = client._call(
                wire.batch_request([{"op": "ping"}, dict(negative)])
            )["responses"]
            # Standalone replies also carry the request id; items do not.
            standalone_ping = client._call({"op": "ping"})
            standalone_ping.pop("id")
            standalone_put = client._call(dict(negative))
            standalone_put.pop("id")
        assert batched[1] == standalone_put == {"ok": True}
        assert set(batched[0]) == set(standalone_ping) == {"ok", "counts", "revision"}
        assert batched[0]["revision"] == standalone_ping["revision"] == journal.revision
        assert set(batched[0]["counts"]) == set(standalone_ping["counts"])


def _ack_sightings():
    """Batches whose changed flags differ: new hosts, verify-only
    refreshes, an IP moving to a new MAC, and a name attached later."""
    first = [
        Observation(source="t", ip=f"10.{shard}.0.{host}", mac=f"aa:00:00:00:{shard:02x}:{host:02x}")
        for shard in (1, 2)
        for host in (1, 2, 3)
    ]
    second = [
        first[0],
        Observation(source="t", ip="10.1.0.1", mac="aa:00:00:00:ff:ff"),
        first[4],
        Observation(source="t", ip="10.2.0.2", dns_name="b.test"),
        Observation(source="t", ip="10.2.0.9"),
        first[1],
    ]
    return [first, second, second]


def _flags(client, nowait: bool):
    flags = []
    for batch in _ack_sightings():
        if nowait:
            response = client.observe_batch_nowait(batch).wait()
            flags.append([item["changed"] for item in response["responses"]])
            assert all(set(item) == {"ok", "changed"} for item in response["responses"])
        else:
            flags.append(client.observe_batch(batch))
    return flags


class TestBatchAckClients:
    """Every batch path reads the same changed flags from the
    record-free acks as the in-process clients compute."""

    @pytest.fixture
    def expected(self):
        return _flags(LocalClient(Journal()), nowait=False)

    @pytest.mark.parametrize("nowait", [False, True])
    def test_remote_client(self, served, expected, nowait):
        _journal, server = served
        with RemoteClient(*server.address) as client:
            assert _flags(client, nowait) == expected

    @pytest.mark.parametrize("nowait", [False, True])
    def test_failover_client(self, served, expected, nowait):
        _journal, server = served
        client = FailoverClient([server.address])
        try:
            assert _flags(client, nowait) == expected
        finally:
            client.close()

    @pytest.mark.parametrize("nowait", [False, True])
    def test_sharded_client(self, expected, nowait):
        local = connect([None, None])
        assert _flags(local, nowait=False) == expected
        servers = []
        try:
            for index in range(2):
                server = JournalServer(Journal())
                server.dispatcher.shard_identity = ShardMap(2).identity(index)
                server.start()
                servers.append(server)
            router = connect([f"{h}:{p}" for h, p in (s.address for s in servers)])
            try:
                assert _flags(router, nowait) == expected
                assert sum(len(s.journal.interfaces) for s in servers) == len(
                    local.clients[0].journal.interfaces
                ) + len(local.clients[1].journal.interfaces)
            finally:
                router.close()
        finally:
            for server in servers:
                server.stop()
