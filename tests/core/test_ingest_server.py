"""Server-side ingest pipeline: concurrent readers, the batch op,
the changes_since/subscribe wire ops, and connection reaping."""

import threading
import time

import pytest

from repro.core import (
    BatchingSink,
    Journal,
    JournalServer,
    RemoteClient,
)
from repro.core.records import Observation


def _obs(**fields):
    fields.setdefault("source", "test")
    return Observation(**fields)


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
    host, port = server.address
    client = RemoteClient(host, port)
    yield journal, server, client
    client.close()
    server.stop()


class TestServerLockModes:
    def test_readers_overlap_while_rw(self, served):
        journal, server, client = served
        for index in range(20):
            client.submit(_obs(ip=f"10.0.0.{index + 1}"))
        host, port = server.address
        errors = []

        def dumper():
            try:
                with RemoteClient(host, port) as mine:
                    for _ in range(5):
                        assert len(mine.all_interfaces()) == 20
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=dumper) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestBatchIngest:
    def test_observe_batch_one_round_trip(self, served):
        journal, server, client = served
        flags = client.observe_batch(
            [_obs(ip="10.0.0.1"), _obs(ip="10.0.0.2"), _obs(ip="10.0.0.1")],
            coalesced=4,
        )
        assert flags == [True, True, False]
        counts = journal.counts()
        assert counts["interfaces"] == 2
        assert counts["batches_flushed"] == 1
        assert counts["observations_coalesced"] == 4
        assert counts["observations_submitted"] == 7  # 3 applied + 4 merged

    def test_batching_sink_over_remote(self, served):
        journal, server, client = served
        sink = BatchingSink(client, max_batch=50)
        for _ in range(5):
            sink.submit(_obs(ip="10.0.0.1", mac="aa:00:00:00:00:01"))
        sink.submit(_obs(ip="10.0.0.2"))
        requests_before = server.requests_served
        sink.flush()
        assert server.requests_served == requests_before + 1
        counts = journal.counts()
        assert counts["interfaces"] == 2
        assert counts["observations_submitted"] == 6
        assert counts["observations_coalesced"] == 4
        assert sink.take_changes() == 2

    def test_resolve_through_remote_sink_returns_canonical_id(self, served):
        journal, server, client = served
        sink = BatchingSink(client, max_batch=50)
        sink.submit(_obs(ip="10.0.0.1"))
        record, changed = sink.resolve(_obs(ip="10.0.0.1", dns_name="h.test"))
        assert changed is True
        assert record.record_id in journal.interfaces
        assert journal.counts()["interfaces"] == 1


class TestChangesSinceOp:
    def test_remote_polling_fallback(self, served):
        journal, server, client = served
        base = client.revision()
        record, _ = client.submit(_obs(ip="10.0.0.1"))
        changes = client.changes_since(base)
        assert changes.complete is True
        assert record.record_id in changes.interfaces
        assert client.changes_since(changes.revision).empty()

    def test_missing_since_is_an_error(self, served):
        journal, server, client = served
        with pytest.raises(RuntimeError):
            client._call({"op": "changes_since"})


class TestSubscribeStream:
    def test_writes_push_frames_to_subscriber(self, served):
        journal, server, client = served
        with client.subscribe(since=journal.revision) as feed:
            record, _ = client.submit(_obs(ip="10.0.0.1"))
            changes = feed.poll(timeout=5.0)
            assert changes is not None
            assert record.record_id in changes.interfaces
            assert feed.revision == changes.revision
            # Quiet journal: poll times out without a frame.
            assert feed.poll(timeout=0.1) is None

    def test_backlog_delivered_after_handshake(self, served):
        journal, server, client = served
        record, _ = client.submit(_obs(ip="10.0.0.1"))
        with client.subscribe(since=0) as feed:
            changes = feed.poll(timeout=5.0)
            assert changes is not None
            assert record.record_id in changes.interfaces

    def test_drain_collapses_a_burst(self, served):
        journal, server, client = served
        with client.subscribe(since=journal.revision) as feed:
            for index in range(5):
                client.submit(_obs(ip=f"10.0.0.{index + 1}"))
            merged = feed.drain(timeout=5.0)
            total = set(merged.interfaces)
            # Frames may still be in flight; keep draining until the
            # stream is quiet.
            while True:
                more = feed.drain(timeout=0.3)
                if more is None:
                    break
                total |= more.interfaces
            assert len(total) == 5

    def test_dead_subscriber_does_not_wedge_writes(self, served):
        journal, server, client = served
        feed = client.subscribe(since=journal.revision)
        feed.close()
        for index in range(3):
            client.submit(_obs(ip=f"10.0.1.{index + 1}"))
        assert journal.counts()["interfaces"] == 3
        assert _wait_for(lambda: journal.feed_subscribers == 0)


class TestConnectionReaping:
    def test_stop_reaps_everything_async(self):
        journal = Journal()
        server = JournalServer(journal)
        server.start()
        host, port = server.address
        with RemoteClient(host, port) as client:
            client.submit(_obs(ip="10.0.0.1"))
        server.stop()
        assert server.live_connections == 0
