"""The wire op/counter naming schema."""

import socket

import pytest

from repro.core import FailoverClient, Journal, JournalServer, RemoteClient
from repro.core import wire
from repro.core.records import Observation
from repro.core.server import JournalDispatcher


@pytest.fixture
def served_journal():
    journal = Journal()
    server = JournalServer(journal)
    server.start()
    host, port = server.address
    yield journal, server, f"{host}:{port}"
    server.stop()


class TestOpSchema:
    def test_every_wire_op_has_a_dispatcher_handler(self):
        # ... and every handler serves an op.  subscribe is served on
        # its own streaming path, not by a handler.
        dispatcher = JournalDispatcher(Journal())
        resolved = {op for op in wire.WIRE_OPS if dispatcher.handler_for(op)}
        assert resolved == wire.WIRE_OPS - {"subscribe"}
        handwritten = {
            name[len("_op_"):]
            for name in vars(JournalDispatcher)
            if name.startswith("_op_")
        }
        assert handwritten <= resolved

    def test_batch_request_emits_canonical_name(self):
        request = wire.batch_request([])
        assert request["op"] == "observe_batch"

    def test_op_alias_table_is_gone(self):
        # The one-release "batch" -> "observe_batch" shim was dropped.
        assert not hasattr(wire, "OP_ALIASES")
        assert not hasattr(wire, "canonical_op")


class TestOpTable:
    """``wire.OPS`` declares each op once; the dispatcher's sets, the
    client's stamping and handoff rules and FailoverClient's proxies
    are all derived from it."""

    def test_declared_methods_exist_on_both_clients(self):
        for op, spec in wire.OPS.items():
            for name in spec.methods:
                assert callable(getattr(RemoteClient, name, None)), (op, name)
                assert callable(getattr(FailoverClient, name, None)), (op, name)

    def test_no_method_declared_under_two_ops(self):
        names = [name for spec in wire.OPS.values() for name in spec.methods]
        assert len(names) == len(set(names))

    def test_kinds_are_known_and_only_reads_and_writes_run_inline(self):
        for op, spec in wire.OPS.items():
            assert spec.kind in ("read", "write", "control", "stream"), op
            if spec.inline:
                assert spec.kind in ("read", "write"), op

    def test_failover_proxies_follow_the_kind(self):
        for spec in wire.OPS.values():
            for name in spec.methods:
                doc = getattr(FailoverClient, name).__doc__ or ""
                if not doc.startswith("``RemoteClient."):
                    continue  # FailoverClient's own method
                hedged = "follower hedging" in doc
                assert hedged == (spec.kind == "read"), name

    def test_derived_sets_equal_the_lists_they_replaced(self):
        assert wire.READ_OPS == frozenset({
            "ping", "counts", "metrics", "shard_info", "query", "path",
            "impact", "negative_check", "changes_since", "pull", "dump",
        })
        inline_writes = frozenset({
            "observe", "negative_put", "ensure_gateway", "ensure_subnet",
            "link_gateway_subnet", "delete_interface", "absorb_interface",
            "absorb_gateway", "absorb_subnet",
        })
        assert wire.INLINE_WRITES == inline_writes
        assert wire.INLINE_OPS == inline_writes | frozenset({
            "ping", "counts", "metrics", "shard_info", "negative_check",
            "changes_since",
        })
        assert wire.CONTROL_OPS == frozenset({"promote", "fence"})
        assert wire.WIRE_OPS == (
            wire.READ_OPS | wire.WRITE_OPS | wire.CONTROL_OPS | {"subscribe"}
        )


class TestOpCompatibility:
    def test_legacy_batch_op_is_rejected(self, served_journal):
        journal, server, _address = served_journal
        retired = [
            {
                "op": "batch",  # pre-rename spelling, no longer accepted
                "requests": [
                    {
                        "op": "observe",
                        "observation": wire.observation_to_dict(
                            Observation(source="old", ip="10.0.0.1")
                        ),
                    }
                ],
                "coalesced": 0,
            },
            # the selector read, folded into the query op
            {"op": "get_interfaces", "by": "ip", "key": "10.0.0.1"},
        ]
        for request in retired:
            with pytest.raises(wire.WireError, match="unknown op"):
                server._dispatch(request)
        assert journal.counts()["interfaces"] == 0

    def test_save_op_writes_no_file(self, served_journal, tmp_path):
        """A peer cannot make the server write a file at a path it
        names: ``save`` is no op, and the connection stays usable."""
        _journal, server, _address = served_journal
        target = tmp_path / "overwritten.json"
        with socket.create_connection(server.address, timeout=5.0) as sock:
            reader = wire.FrameReader(sock)
            sock.sendall(wire.encode_message({"op": "save", "path": str(target)}))
            reply = reader.read(5.0)
            assert reply["ok"] is False
            assert "unknown op" in reply["error"]
            sock.sendall(wire.encode_message({"op": "ping"}))
            assert reader.read(5.0)["ok"] is True
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_unknown_op_is_still_rejected(self, served_journal):
        _journal, server, _address = served_journal
        with pytest.raises(wire.WireError, match="unknown op"):
            server._dispatch({"op": "explode"})

    def test_op_metrics_is_a_read_op(self, served_journal):
        _journal, server, _address = served_journal
        assert "metrics" in wire.READ_OPS
        response = server._dispatch({"op": "metrics", "spans": 3})
        assert response["ok"] is True
        assert "metrics" in response["metrics"]


class TestCounterSchema:
    def test_schema_covers_every_counts_key(self):
        counts = Journal().counts()
        assert set(counts) == set(wire.COUNTER_SCHEMA)

    def test_metric_names_follow_prometheus_conventions(self):
        for key, metric_name in wire.COUNTER_SCHEMA.items():
            assert metric_name.startswith("fremont_"), key
            # monotonic counters end in _total; point-in-time gauges don't
            monotone = key not in (
                "interfaces", "gateways", "subnets", "revision",
                "negative_cache_size", "feed_subscribers",
            )
            assert metric_name.endswith("_total") == monotone, key

    def test_counts_survive_wire_round_trip(self):
        journal = Journal()
        journal.observe_interface(Observation(source="t", ip="10.0.0.1"))
        journal.negative_put("ip", "10.9.9.9", ttl=5.0)
        journal.flush()
        # Where a saved journal keeps each counter: saved files depend
        # on these names, so they are pinned here, not read off the table.
        on_disk = {
            "observations_submitted": ("ingest", "submitted"),
            "observations_applied": ("ingest", "applied"),
            "observations_coalesced": ("ingest", "coalesced"),
            "batches_flushed": ("ingest", "batches"),
            "feed_deliveries": ("ingest", "feed_deliveries"),
            "negative_evictions": ("ingest", "negative_evictions"),
            "queries_served": ("ingest", "queries"),
            "wal_appends": ("durability", "wal_appends"),
            "wal_bytes": ("durability", "wal_bytes"),
            "wal_checkpoints": ("durability", "checkpoints"),
            "wal_recovered_records": ("durability", "recovered"),
            "wal_torn_tails": ("durability", "torn_dropped"),
        }
        # A distinct non-zero value per counter, so a swapped row shows.
        journal.count(**{key: 100 * (i + 1) for i, key in enumerate(on_disk)})
        counts = journal.counts()
        values = [counts[key] for key in on_disk]
        assert 0 not in values and len(set(values)) == len(values)
        saved = journal.to_dict()
        for section in ("ingest", "durability"):
            assert set(saved[section]) == {
                name for where, name in on_disk.values() if where == section
            }
        for key, (section, name) in on_disk.items():
            assert saved[section][name] == counts[key], key
        restored = Journal.from_dict(saved)
        assert restored.counts() == counts
