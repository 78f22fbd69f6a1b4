"""The durability layer: WAL framing, checkpoints, and recovery."""

import errno
import json
import os
import shutil
import struct
import zlib

import pytest

from repro.core import Journal, JournalDispatcher, JournalStore, Observation, wire
from repro.core.durability import (
    SEGMENT_MAGIC,
    atomic_write_json,
    encode_frame,
    scan_segment,
)
from repro.netsim.faults import corrupt_file, truncate_file


def obs(index, *, source="test"):
    return Observation(
        source=source,
        ip=f"10.0.{index // 250}.{index % 250 + 1}",
        mac="08:00:20:00:{:02x}:{:02x}".format((index >> 8) & 0xFF, index & 0xFF),
    )


def make_store(directory, **overrides):
    """A store with automatic checkpoints off unless a test opts in."""
    settings = dict(
        fsync="never", checkpoint_ops=None, checkpoint_bytes=None, checkpoint_age=None
    )
    settings.update(overrides)
    return JournalStore(str(directory), **settings)


def ingest(journal, count, *, start=0):
    for index in range(start, start + count):
        journal.submit(obs(index))


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_frame_round_trips(self, tmp_path):
        path = tmp_path / "seg.log"
        entries = [{"seq": i, "kind": "observe", "n": i * 7} for i in range(5)]
        with open(path, "wb") as handle:
            handle.write(SEGMENT_MAGIC)
            for entry in entries:
                handle.write(encode_frame(entry))
        scan = scan_segment(str(path))
        assert scan.entries == entries
        assert not scan.torn_tail and not scan.corrupt
        assert scan.valid_bytes == os.path.getsize(path)

    def test_empty_file_is_clean(self, tmp_path):
        path = tmp_path / "seg.log"
        path.write_bytes(b"")
        scan = scan_segment(str(path))
        assert scan.entries == [] and not scan.torn_tail and not scan.corrupt

    def test_torn_header_and_payload(self, tmp_path):
        path = tmp_path / "seg.log"
        frame = encode_frame({"seq": 0})
        for cut in (len(SEGMENT_MAGIC) + 3, len(SEGMENT_MAGIC) + len(frame) - 1):
            path.write_bytes((SEGMENT_MAGIC + frame)[:cut])
            scan = scan_segment(str(path))
            assert scan.torn_tail and not scan.corrupt
            assert scan.entries == []
            assert scan.valid_bytes == len(SEGMENT_MAGIC)

    def test_torn_after_valid_prefix(self, tmp_path):
        path = tmp_path / "seg.log"
        good = encode_frame({"seq": 0})
        path.write_bytes(SEGMENT_MAGIC + good + encode_frame({"seq": 1})[:-2])
        scan = scan_segment(str(path))
        assert [e["seq"] for e in scan.entries] == [0]
        assert scan.torn_tail
        assert scan.valid_bytes == len(SEGMENT_MAGIC) + len(good)

    def test_crc_mismatch_is_corrupt(self, tmp_path):
        path = tmp_path / "seg.log"
        path.write_bytes(SEGMENT_MAGIC + encode_frame({"seq": 0, "pad": "x" * 40}))
        corrupt_file(str(path), len(SEGMENT_MAGIC) + 12)
        scan = scan_segment(str(path))
        assert scan.corrupt and not scan.torn_tail

    def test_bad_magic_is_corrupt(self, tmp_path):
        path = tmp_path / "seg.log"
        path.write_bytes(b"NOTMAGIC" + encode_frame({"seq": 0}))
        assert scan_segment(str(path)).corrupt

    def test_implausible_length_is_corrupt(self, tmp_path):
        path = tmp_path / "seg.log"
        path.write_bytes(
            SEGMENT_MAGIC + struct.pack(">II", 2**31, 0) + b"garbagegarbage"
        )
        assert scan_segment(str(path)).corrupt


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------


class TestAtomicWrite:
    def test_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(str(path), {"v": 1})
        atomic_write_json(str(path), {"v": 2})
        assert json.loads(path.read_text())["v"] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_journal_save_is_atomic(self, tmp_path, monkeypatch):
        """A crash at the final rename leaves the previous file intact
        (and no temp litter) instead of a torn file."""
        path = tmp_path / "journal.json"
        journal = Journal()
        ingest(journal, 3)
        journal.save(str(path))
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("injected crash during rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            journal.save(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["journal.json"]


# ----------------------------------------------------------------------
# JournalStore: WAL + recovery
# ----------------------------------------------------------------------


class TestStoreRecovery:
    def test_wal_only_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 20)
        journal.negative_put("dns", "ghost.example", ttl=500.0)
        reference = journal.canonical_state()
        negatives = dict(journal._negative)
        store.close(checkpoint=False)

        recovered = make_store(tmp_path).recover()
        assert recovered.canonical_state() == reference
        assert recovered._negative == negatives
        assert recovered.counts()["wal_recovered_records"] == 21

    def test_checkpoint_plus_tail_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 10)
        store.checkpoint()
        ingest(journal, 5, start=10)
        reference = journal.canonical_state()
        store.close(checkpoint=False)

        store2 = make_store(tmp_path)
        recovered = store2.recover()
        assert recovered.canonical_state() == reference
        assert store2.last_recovery.checkpoint_loaded
        assert store2.last_recovery.recovered_records == 5

    def test_checkpoint_rotates_and_prunes_segments(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 5)
        first_segment = store._segment_seq
        store.checkpoint()
        assert store._segment_seq == first_segment + 1
        remaining = [name for name in os.listdir(tmp_path) if name.startswith("wal-")]
        assert remaining == [f"wal-{first_segment + 1:08d}.log"]
        store.close(checkpoint=False)

    def test_close_takes_final_checkpoint(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 4)
        store.close()  # checkpoint=True default
        assert os.path.exists(tmp_path / "checkpoint.json")
        store2 = make_store(tmp_path)
        recovered = store2.recover()
        assert store2.last_recovery.checkpoint_loaded
        assert store2.last_recovery.recovered_records == 0
        assert len(recovered.interfaces) == 4
        store2.close(checkpoint=False)

    def test_torn_tail_dropped_and_truncated(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 6)
        segment = store._segment_path(store._segment_seq)
        store.close(checkpoint=False)
        truncate_file(segment, os.path.getsize(segment) - 2)

        store2 = make_store(tmp_path)
        recovered = store2.recover()
        assert store2.last_recovery.torn_tail_dropped == 1
        assert store2.last_recovery.recovered_records == 5
        assert recovered.counts()["wal_torn_tails"] == 1
        assert len(recovered.interfaces) == 5
        store2.close(checkpoint=False)
        # The dangling bytes were trimmed: the next recovery is clean.
        store3 = make_store(tmp_path)
        store3.recover()
        assert store3.last_recovery.torn_tail_dropped == 0
        assert store3.last_recovery.clean

    def test_corrupt_segment_quarantined_with_later_segments(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 4)
        first = store._segment_path(store._segment_seq)
        # Rotate by hand so a later segment exists after the damage.
        store._handle.close()
        store._segment_seq += 1
        store._open_segment(store._segment_seq)
        ingest(journal, 4, start=4)
        later = store._segment_path(store._segment_seq)
        store.close(checkpoint=False)
        corrupt_file(first, len(SEGMENT_MAGIC) + 10, length=3)

        store2 = make_store(tmp_path)
        recovered = store2.recover()
        report = store2.last_recovery
        assert len(report.quarantined) == 2
        assert all(".corrupt" in q for q in report.quarantined)
        assert all(os.path.exists(q) for q in report.quarantined)
        # The damaged later segment was moved aside, not replayed.
        assert not os.path.exists(later)
        # Nothing replayed past the damage: recovery is empty but sane.
        assert report.recovered_records == 0
        assert len(recovered.interfaces) == 0
        store2.close(checkpoint=False)

    def test_corrupt_checkpoint_quarantined_falls_back_to_wal(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 3)
        store.checkpoint()
        store.close(checkpoint=False)
        checkpoint = str(tmp_path / "checkpoint.json")
        corrupt_file(checkpoint, os.path.getsize(checkpoint) // 2, length=4)

        store2 = make_store(tmp_path)
        recovered = store2.recover()
        report = store2.last_recovery
        assert not report.checkpoint_loaded
        assert any("checkpoint" in q for q in report.quarantined)
        # The checkpointed records lived only in the snapshot (the WAL
        # rotated); recovery starts empty rather than guessing.
        assert len(recovered.interfaces) == 0
        store2.close(checkpoint=False)

    def test_non_monotonic_seq_is_corruption(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 2)
        segment = store._segment_path(store._segment_seq)
        store.close(checkpoint=False)
        # Append a frame whose seq runs backwards: valid CRC, bad order.
        with open(segment, "ab") as handle:
            handle.write(
                encode_frame(
                    {
                        "seq": 0,
                        "kind": "negative",
                        "neg": "dns",
                        "key": "x",
                        "expiry": 1.0,
                    }
                )
            )
        store2 = make_store(tmp_path)
        store2.recover()
        report = store2.last_recovery
        assert report.quarantined
        assert any("non-monotonic" in error for error in report.errors)
        store2.close(checkpoint=False)

    def test_unknown_entry_kind_skipped(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 1)
        store._append({"kind": "hologram", "payload": 42})
        ingest(journal, 1, start=1)
        store.close(checkpoint=False)
        store2 = make_store(tmp_path)
        recovered = store2.recover()
        assert store2.last_recovery.skipped_unknown == 1
        assert store2.last_recovery.recovered_records == 2
        assert len(recovered.interfaces) == 2
        store2.close(checkpoint=False)

    @pytest.mark.parametrize("fields", [
        {"op": "ensure_subnet", "subnet_key": "10.0.0.0/24", "source": "t", "bogus": 1},
        {"op": "ensure_gateway", "source": "t", "interface_ids": [99]},
        {"op": "delete_interface"},
    ], ids=["unknown-field", "unknown-member", "missing-field"])
    def test_unreplayable_record_is_corruption(self, tmp_path, fields):
        # A CRC-valid record the replay refuses stops replay there, as a
        # CRC failure does: later records may name what it would have made.
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 1)
        store.log(dict(fields), 1.0)
        ingest(journal, 1, start=1)
        store.close(checkpoint=False)
        store2 = make_store(tmp_path)
        recovered = store2.recover()
        report = store2.last_recovery
        assert report.quarantined and report.recovered_records == 1
        assert any("cannot replay" in error for error in report.errors)
        assert len(recovered.interfaces) == 1
        store2.close(checkpoint=False)

    def test_a_quarantining_recovery_checkpoints_what_it_replayed(self, tmp_path):
        # The replayed prefix of a quarantined segment is in no segment
        # now; without a snapshot the next crash would lose it and
        # replay later records under other ids.
        store = make_store(tmp_path / "live")
        ingest(store.recover(), 2)
        store.log({"op": "delete_interface"}, 1.0)
        store.close(checkpoint=False)
        store2 = make_store(tmp_path / "live")
        journal = store2.recover()
        assert store2.last_recovery.quarantined and sorted(journal.interfaces) == [1, 2]
        ingest(journal, 1, start=2)
        shutil.copytree(tmp_path / "live", tmp_path / "crashed")
        recovered_store = make_store(tmp_path / "crashed")
        recovered = recovered_store.recover()
        assert recovered.canonical_state() == journal.canonical_state()
        assert sorted(recovered.interfaces) == [1, 2, 3]
        recovered_store.close(checkpoint=False)
        store2.close(checkpoint=False)

    def test_replay_preserves_timestamps(self, tmp_path):
        """WAL entries carry their original apply time; replay must not
        stamp the recovery clock's."""
        ticks = iter(float(n) for n in range(100, 200))
        store = make_store(tmp_path)
        journal = store.recover(clock=lambda: next(ticks))
        ingest(journal, 3)
        times = {r.ip: r.last_modified for r in journal.all_interfaces()}
        store.close(checkpoint=False)
        recovered = make_store(tmp_path).recover(clock=lambda: 0.0)
        assert {r.ip: r.last_modified for r in recovered.all_interfaces()} == times

    def test_recovered_journal_keeps_logging(self, tmp_path):
        """Appends made after a recovery land in the new segment and
        survive the next recovery."""
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 3)
        store.close(checkpoint=False)
        store2 = make_store(tmp_path)
        journal2 = store2.recover()
        ingest(journal2, 3, start=3)
        reference = journal2.canonical_state()
        store2.close(checkpoint=False)
        recovered = make_store(tmp_path).recover()
        assert recovered.canonical_state() == reference
        assert len(recovered.interfaces) == 6


# ----------------------------------------------------------------------
# Policies and counters
# ----------------------------------------------------------------------


class TestPoliciesAndCounters:
    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError):
            JournalStore(str(tmp_path), fsync="sometimes")

    @pytest.mark.parametrize("policy", ["always", "interval", "never"])
    def test_all_policies_round_trip(self, tmp_path, policy):
        store = make_store(tmp_path / policy, fsync=policy)
        journal = store.recover()
        ingest(journal, 8)
        journal.flush()  # the sink-pipeline durability point
        reference = journal.canonical_state()
        store.close(checkpoint=False)
        recovered = make_store(tmp_path / policy).recover()
        assert recovered.canonical_state() == reference

    def test_counters_surface_in_counts(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 5)
        store.checkpoint()
        counts = journal.counts()
        assert counts["wal_appends"] == 5
        assert counts["wal_bytes"] > 0
        assert counts["wal_checkpoints"] == 1
        store.close(checkpoint=False)
        recovered = make_store(tmp_path).recover()
        counts = recovered.counts()
        # Lifetime counters came back from the snapshot.
        assert counts["wal_checkpoints"] == 1
        assert counts["wal_appends"] == 5

    def test_ops_threshold_makes_due(self, tmp_path):
        store = make_store(tmp_path, checkpoint_ops=3)
        journal = store.recover()
        assert not store.due()
        ingest(journal, 2)
        assert not store.due()
        ingest(journal, 1, start=2)
        assert store.due()
        store.checkpoint()
        assert not store.due()
        store.close(checkpoint=False)

    def test_bytes_threshold_makes_due(self, tmp_path):
        store = make_store(tmp_path, checkpoint_bytes=64)
        journal = store.recover()
        ingest(journal, 2)
        assert store.due()
        store.close(checkpoint=False)

    def test_age_threshold_needs_dirty_store(self, tmp_path):
        store = make_store(tmp_path, checkpoint_age=0.0)
        journal = store.recover()
        assert not store.due()  # nothing written: age alone never trips
        ingest(journal, 1)
        assert store.due()
        store.close(checkpoint=False)

    def test_recovery_counters_wire_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 3)
        store.close(checkpoint=False)
        recovered_store = make_store(tmp_path)
        recovered = recovered_store.recover()
        assert recovered.counts()["wal_recovered_records"] == 3
        clone = Journal.from_dict(recovered.to_dict())
        assert clone.counts()["wal_recovered_records"] == 3
        recovered_store.close(checkpoint=False)

    def test_stale_tmp_files_cleaned_at_init(self, tmp_path):
        (tmp_path / "checkpoint.json.tmp.1234").write_text("partial")
        make_store(tmp_path)
        assert not (tmp_path / "checkpoint.json.tmp.1234").exists()


# ----------------------------------------------------------------------
# Load-path regressions the recovery work depends on
# ----------------------------------------------------------------------


class TestLoadedJournalAllocators:
    def test_record_ids_do_not_collide_after_load(self):
        journal = Journal()
        ingest(journal, 3)
        loaded = Journal.from_dict(journal.to_dict())
        existing = set(loaded.interfaces)
        record, _ = loaded.submit(obs(99))
        assert record.record_id not in existing

    def test_default_clock_resumes_after_load(self):
        journal = Journal()  # step clock
        ingest(journal, 3)
        newest = max(r.last_modified for r in journal.all_interfaces())
        loaded = Journal.from_dict(journal.to_dict())
        record, _ = loaded.submit(obs(99))
        assert record.last_modified > newest

    def test_ids_resume_past_deleted_records_after_load(self):
        # Ids are never reused, even for the newest record, deleted
        # before the save: the allocator travels in the document.
        journal = Journal()
        ingest(journal, 3)
        newest = max(journal.interfaces)
        journal.delete_interface(newest)
        loaded = Journal.from_dict(journal.to_dict())
        record, _ = loaded.submit(obs(99))
        assert record.record_id > newest

    def test_document_without_allocator_resumes_past_its_ids(self):
        journal = Journal()
        ingest(journal, 3)
        document = journal.to_dict()
        del document["next_id"]
        record, _ = Journal.from_dict(document).submit(obs(99))
        assert record.record_id == max(journal.interfaces) + 1

    def test_changes_since_before_a_load_asks_for_a_rescan(self, tmp_path):
        # Regression: a loaded Journal has no change history, yet it
        # answered changes_since(0) as complete and empty, so a consumer
        # starting from scratch saw none of the loaded records.
        store = make_store(tmp_path)
        journal = store.recover()
        ingest(journal, 3)
        store.close()
        recovered = make_store(tmp_path).recover()
        assert recovered.revision == journal.revision > 0
        changes = recovered.changes_since(0)
        assert not changes.complete
        assert changes.revision == recovered.revision
        assert recovered.changes_since(recovered.revision).complete


# ----------------------------------------------------------------------
# Every write is one WAL record
# ----------------------------------------------------------------------


def _far_records():
    """Records of another site's Journal, for the absorb ops."""
    far = Journal(clock=lambda: 5.0)
    member, _ = far.submit(obs(1, source="far"))
    gateway, _ = far.ensure_gateway(
        source="far", name="gw-far", interface_ids=[member.record_id]
    )
    far.link_gateway_subnet(gateway.record_id, "10.0.9.0/24", source="far")
    return member, gateway, far.subnet_by_key("10.0.9.0/24")


def _call(op, *args, **kwargs):
    return wire.JournalCall(op).request(args, kwargs)


#: write op -> (member id, gateway id, far records) -> one request
WRITE_REQUESTS = {
    "observe": lambda m, g, far: {
        "op": "observe", "observation": wire.observation_to_dict(obs(7))
    },
    "observe_batch": lambda m, g, far: wire.batch_request(
        [{"op": "observe", "observation": wire.observation_to_dict(obs(8))}]
    ),
    "ensure_gateway": lambda m, g, far: _call(
        "ensure_gateway", source="t", name="gw-2", interface_ids=[m]
    ),
    "rename_gateway": lambda m, g, far: _call("rename_gateway", g, "gw-3", source="t"),
    "link_gateway_subnet": lambda m, g, far: _call(
        "link_gateway_subnet", g, "10.0.5.0/24", source="t"
    ),
    "ensure_subnet": lambda m, g, far: _call(
        "ensure_subnet", "10.0.6.0/24", source="t", host_count=3
    ),
    "delete_interface": lambda m, g, far: _call("delete_interface", m),
    "negative_put": lambda m, g, far: _call("negative_put", "ip", "10.0.8.8", ttl=60.0),
    "absorb_interface": lambda m, g, far: _call("absorb_interface", far[0]),
    "absorb_gateway": lambda m, g, far: _call(
        "absorb_gateway", far[1], {far[0].record_id: m}
    ),
    "absorb_subnet": lambda m, g, far: _call("absorb_subnet", far[2]),
}


class TestEveryWriteIsLogged:
    """One call of each write op adds exactly one WAL record, and that
    record replays to the live state — so a write row added to
    ``wire.OPS`` without a replay path fails here."""

    @pytest.mark.parametrize("op", sorted(wire.WRITE_OPS))
    def test_one_call_appends_one_replayable_record(self, tmp_path, op):
        store = make_store(tmp_path / "live")
        journal = store.recover()
        member, _ = journal.submit(obs(1))
        journal.submit(obs(2))
        gateway, _ = journal.ensure_gateway(
            source="t", name="gw-1", interface_ids=[member.record_id]
        )
        journal.link_gateway_subnet(gateway.record_id, "10.0.0.0/24", source="t")
        store.checkpoint()
        appends = journal.counts()["wal_appends"]
        request = WRITE_REQUESTS[op](member.record_id, gateway.record_id, _far_records())
        response = JournalDispatcher(journal).dispatch(request)
        assert response["ok"] and all(r["ok"] for r in response.get("responses", ()))
        assert journal.counts()["wal_appends"] == appends + 1
        shutil.copytree(tmp_path / "live", tmp_path / "crashed")
        recovered_store = make_store(tmp_path / "crashed")
        recovered = recovered_store.recover()
        assert recovered_store.last_recovery.recovered_records == 1
        assert recovered.canonical_state() == journal.canonical_state()
        recovered_store.close(checkpoint=False)
        store.close(checkpoint=False)

    def test_legacy_entries_still_replay(self, tmp_path):
        # Segments written before writes were logged as requests hold
        # ``kind: observe`` and ``kind: negative`` entries.
        observation = wire.observation_to_dict(obs(1))
        with open(tmp_path / "wal-00000000.log", "wb") as handle:
            handle.write(SEGMENT_MAGIC)
            handle.write(encode_frame(
                {"seq": 0, "kind": "observe", "at": 3.0, "observation": observation}
            ))
            handle.write(encode_frame(
                {"seq": 1, "kind": "negative", "neg": "ip", "key": "10.0.0.9", "expiry": 9.0}
            ))
        store = make_store(tmp_path)
        recovered = store.recover(clock=lambda: 4.0)
        assert store.last_recovery.recovered_records == 2
        (record,) = recovered.interfaces.values()
        assert record.ip == obs(1).ip and record.last_modified == 3.0
        assert recovered.negative_check("ip", "10.0.0.9")
        store.close(checkpoint=False)

    def test_a_one_shot_iterator_reaches_the_write_and_its_record(self, tmp_path):
        store = make_store(tmp_path / "live")
        journal = store.recover()
        members = [journal.submit(obs(index))[0] for index in range(3)]
        gateway, _ = journal.ensure_gateway(
            source="t", interface_ids=(member.record_id for member in members)
        )
        assert gateway.interface_ids == [member.record_id for member in members]
        shutil.copytree(tmp_path / "live", tmp_path / "crashed")
        recovered_store = make_store(tmp_path / "crashed")
        recovered = recovered_store.recover()
        assert recovered.canonical_state() == journal.canonical_state()
        assert recovered.gateways[gateway.record_id].interface_ids == gateway.interface_ids
        recovered_store.close(checkpoint=False)
        store.close(checkpoint=False)

    def test_a_failed_append_refuses_writes_until_a_checkpoint(self, tmp_path):
        # The failed write stays applied (it took a record id), so a
        # later record replayed without it would name the wrong ids.
        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def write(self, frame):
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.handle, name)

        store = make_store(tmp_path / "live")
        journal = store.recover()
        ingest(journal, 1)
        handle, store._handle = store._handle, FullDisk(store._handle)
        with pytest.raises(OSError):
            journal.submit(obs(1))
        assert len(journal.interfaces) == 2 and store.due()
        with pytest.raises(RuntimeError, match="checkpoint"):
            journal.submit(obs(2))
        assert len(journal.interfaces) == 2
        store._handle = handle
        store.checkpoint()
        assert not store.due()
        ingest(journal, 1, start=2)
        journal.delete_interface(2)
        shutil.copytree(tmp_path / "live", tmp_path / "crashed")
        recovered_store = make_store(tmp_path / "crashed")
        recovered = recovered_store.recover()
        assert recovered.canonical_state() == journal.canonical_state()
        assert sorted(recovered.interfaces) == sorted(journal.interfaces) == [1, 3]
        recovered_store.close(checkpoint=False)
        store.close(checkpoint=False)

    def test_a_nested_write_runs_at_its_outer_writes_instant(self):
        # link_gateway_subnet ensures the subnet itself; the pair is one
        # write, read off the clock once.
        journal = Journal()  # step clock: every read is a new instant
        member, _ = journal.submit(obs(1))
        gateway, _ = journal.ensure_gateway(source="t", interface_ids=[member.record_id])
        journal.link_gateway_subnet(gateway.record_id, "10.0.0.0/24", source="t")
        subnet = journal.subnet_by_key("10.0.0.0/24")
        assert subnet.last_modified == journal.gateways[gateway.record_id].last_modified
