"""The durability layer: WAL framing, checkpoints, and recovery."""

import json
import os
import struct
import zlib

import pytest

from repro.core import Journal, JournalStore, Observation
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
