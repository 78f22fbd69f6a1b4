"""Wire-client fault tolerance: bounded reconnect with backoff, the
buffered-replay queue, the batch replay op, and server thread reaping."""

import time

import pytest

from repro.core import Journal, JournalServer, RemoteClient
from repro.core.records import Observation


FAST = dict(reconnect_attempts=2, reconnect_backoff=0.01, reconnect_backoff_cap=0.05)


def make_server(journal, port=0):
    server = JournalServer(journal, port=port)
    server.start()
    return server


class TestReconnect:
    def test_client_survives_server_restart(self):
        journal = Journal()
        server = make_server(journal)
        host, port = server.address
        client = RemoteClient(host, port, **FAST)
        try:
            client.observe_interface(Observation(source="t", ip="10.0.0.1"))
            server.stop()
            # Same journal, same port: the paper's Journal Server coming
            # back after a crash.
            server = make_server(journal, port=port)
            record, changed = client.observe_interface(
                Observation(source="t", ip="10.0.0.2")
            )
            assert record.record_id >= 0  # canonical id: the call went through
            assert client.reconnects == 1
            assert journal.counts()["interfaces"] == 2
        finally:
            client.close()
            server.stop()

    def test_bounded_reconnect_raises_when_server_stays_down(self):
        journal = Journal()
        server = make_server(journal)
        host, port = server.address
        client = RemoteClient(host, port, **FAST)
        try:
            server.stop()
            started = time.monotonic()
            with pytest.raises(ConnectionError, match="unreachable"):
                client.all_interfaces()  # queries are not bufferable
            assert time.monotonic() - started < 5.0  # bounded, not forever
            assert client.reconnects == 0
        finally:
            client.close()

    def test_queries_resume_after_restart(self):
        journal = Journal()
        server = make_server(journal)
        host, port = server.address
        client = RemoteClient(host, port, **FAST)
        try:
            client.observe_interface(Observation(source="t", ip="10.0.0.1"))
            server.stop()
            with pytest.raises(ConnectionError):
                client.counts()
            server = make_server(journal, port=port)
            assert client.counts()["interfaces"] == 1
        finally:
            client.close()
            server.stop()


class TestBufferedReplay:
    def test_observations_buffered_and_flushed_on_reconnect(self):
        journal = Journal()
        server = make_server(journal)
        host, port = server.address
        client = RemoteClient(host, port, **FAST)
        try:
            server.stop()
            # Observations made while disconnected are parked, not lost.
            for suffix in (1, 2, 3):
                record, changed = client.observe_interface(
                    Observation(source="t", ip=f"10.0.0.{suffix}")
                )
                assert changed is True
                assert record.record_id == -1  # provisional stand-in
                assert record.ip == f"10.0.0.{suffix}"
            assert client.pending_replay == 3
            assert journal.counts()["interfaces"] == 0

            server = make_server(journal, port=port)
            # The next successful call flushes the buffer first.
            counts = client.counts()
            assert client.pending_replay == 0
            assert client.replayed == 3
            assert counts["interfaces"] == 3
            assert {r.ip for r in client.all_interfaces()} == {
                "10.0.0.1",
                "10.0.0.2",
                "10.0.0.3",
            }
        finally:
            client.close()
            server.stop()

    def test_explicit_flush(self):
        journal = Journal()
        server = make_server(journal)
        host, port = server.address
        client = RemoteClient(host, port, **FAST)
        try:
            server.stop()
            client.observe_interface(Observation(source="t", ip="10.0.0.7"))
            client.negative_put("subnet-mask", "10.0.0.9", ttl=1e9)
            assert client.pending_replay == 2
            server = make_server(journal, port=port)
            assert client.flush() == 2
            assert journal.counts()["interfaces"] == 1
            assert journal.negative_check("subnet-mask", "10.0.0.9") is True
        finally:
            client.close()
            server.stop()

    def test_buffer_limit_enforced(self):
        journal = Journal()
        server = make_server(journal)
        host, port = server.address
        client = RemoteClient(host, port, buffer_limit=2, **FAST)
        try:
            server.stop()
            client.observe_interface(Observation(source="t", ip="10.0.0.1"))
            client.observe_interface(Observation(source="t", ip="10.0.0.2"))
            with pytest.raises(ConnectionError):
                client.observe_interface(Observation(source="t", ip="10.0.0.3"))
            assert client.pending_replay == 2
        finally:
            client.close()

    def test_close_flushes_pending_when_server_is_back(self):
        journal = Journal()
        server = make_server(journal)
        host, port = server.address
        client = RemoteClient(host, port, **FAST)
        server.stop()
        client.observe_interface(Observation(source="t", ip="10.0.0.1"))
        server = make_server(journal, port=port)
        try:
            client.close()
            assert journal.counts()["interfaces"] == 1
        finally:
            server.stop()


class TestBatchOp:
    def test_batch_applies_items_and_isolates_failures(self):
        journal = Journal()
        server = make_server(journal)
        host, port = server.address
        try:
            with RemoteClient(host, port, **FAST) as client:
                response = client._call(
                    {
                        "op": "observe_batch",
                        "requests": [
                            {
                                "op": "observe",
                                "observation": {"source": "t", "ip": "10.0.0.1"},
                            },
                            {"op": "no-such-op"},
                            {"op": "observe_batch", "requests": []},  # no recursion
                            {"op": "counts"},
                        ],
                    }
                )
            ok_flags = [item["ok"] for item in response["responses"]]
            assert ok_flags == [True, False, False, True]
            assert response["responses"][3]["counts"]["interfaces"] == 1
        finally:
            server.stop()
