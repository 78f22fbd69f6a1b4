"""Journal change tracking: revisions, dirty sets, and pruning.

The incremental Correlator is the consumer these semantics exist for;
its own behaviour is covered in test_correlate_incremental.py.  Here we
pin down the Journal-side contract: what bumps the revision, what lands
in a delta, and what pruning forgets.
"""

import pytest

from repro.core import Journal
from repro.core.records import Observation


@pytest.fixture
def clock_state():
    return {"now": 0.0}


@pytest.fixture
def journal(clock_state):
    return Journal(clock=lambda: clock_state["now"])


def _observe(journal, **kwargs):
    source = kwargs.pop("source", "ARPwatch")
    record, _ = journal.observe_interface(Observation(source=source, **kwargs))
    return record


class TestRevision:
    def test_new_journal_at_revision_zero(self, journal):
        assert journal.revision == 0

    def test_new_observation_bumps_revision(self, journal):
        _observe(journal, ip="10.0.0.1")
        assert journal.revision == 1

    def test_unchanged_reobservation_keeps_revision(self, journal):
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        before = journal.revision
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        assert journal.revision == before

    def test_record_stamped_with_touch_revision(self, journal):
        record = _observe(journal, ip="10.0.0.1")
        assert record.revision == journal.revision
        _observe(journal, ip="10.0.0.2")
        assert record.revision < journal.revision

    def test_counts_reports_revision_and_negative_size(self, journal):
        _observe(journal, ip="10.0.0.1")
        counts = journal.counts()
        assert counts["revision"] == journal.revision
        assert counts["negative_cache_size"] == 0


class TestChangesSince:
    def test_empty_delta_when_nothing_happened(self, journal):
        changes = journal.changes_since(journal.revision)
        assert changes.empty()
        assert changes.complete

    def test_new_interface_reported(self, journal):
        base = journal.revision
        record = _observe(journal, ip="10.0.0.1")
        changes = journal.changes_since(base)
        assert changes.interfaces == {record.record_id}
        assert not changes.gateways and not changes.subnets

    def test_delta_excludes_older_touches(self, journal):
        _observe(journal, ip="10.0.0.1")
        base = journal.revision
        newer = _observe(journal, ip="10.0.0.2")
        assert journal.changes_since(base).interfaces == {newer.record_id}

    def test_gateway_and_subnet_touches_reported(self, journal):
        record = _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        base = journal.revision
        gateway, _ = journal.ensure_gateway(
            source="x", name="gw", interface_ids=[record.record_id]
        )
        subnet, _ = journal.ensure_subnet("10.0.0.0/24", source="x")
        journal.link_gateway_subnet(gateway.record_id, "10.0.0.0/24", source="x")
        changes = journal.changes_since(base)
        assert gateway.record_id in changes.gateways
        assert subnet.record_id in changes.subnets
        # ensure_gateway re-pointed the member's gateway_id attribute.
        assert record.record_id in changes.interfaces

    def test_delete_reported_and_owner_touched(self, journal):
        record = _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        gateway, _ = journal.ensure_gateway(
            source="x", name="gw", interface_ids=[record.record_id]
        )
        base = journal.revision
        assert journal.delete_interface(record.record_id)
        changes = journal.changes_since(base)
        assert changes.deleted_interfaces == {record.record_id}
        assert record.record_id not in changes.interfaces
        assert gateway.record_id in changes.gateways  # lost a member

    def test_merged_gateway_reported_deleted(self, journal):
        a = _observe(journal, ip="10.0.1.1", mac="aa:00:03:00:00:01")
        b = _observe(journal, ip="10.0.2.1", mac="aa:00:03:00:00:01")
        g1, _ = journal.ensure_gateway(source="x", interface_ids=[a.record_id])
        g2, _ = journal.ensure_gateway(source="y", interface_ids=[b.record_id])
        base = journal.revision
        merged, _ = journal.ensure_gateway(
            source="z", interface_ids=[a.record_id, b.record_id]
        )
        changes = journal.changes_since(base)
        survivor = merged.record_id
        gone = g2.record_id if survivor == g1.record_id else g1.record_id
        assert changes.deleted_gateways == {gone}
        assert survivor in changes.gateways


class TestPruning:
    def test_pruned_base_reports_incomplete(self, journal):
        _observe(journal, ip="10.0.0.1")
        journal.prune_changes(journal.revision)
        assert not journal.changes_since(0).complete
        assert journal.changes_since(journal.revision).complete

    def test_prune_keeps_newer_touches(self, journal):
        _observe(journal, ip="10.0.0.1")
        cut = journal.revision
        journal.prune_changes(cut)
        newer = _observe(journal, ip="10.0.0.2")
        changes = journal.changes_since(cut)
        assert changes.complete
        assert changes.interfaces == {newer.record_id}

    def test_prune_is_monotonic(self, journal):
        _observe(journal, ip="10.0.0.1")
        journal.prune_changes(journal.revision)
        high = journal._pruned_through
        journal.prune_changes(0)  # lower watermark: no-op
        assert journal._pruned_through == high

    def test_retouched_record_survives_prune(self, journal):
        record = _observe(journal, ip="10.0.0.1")
        cut = journal.revision
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        journal.prune_changes(cut)
        assert journal.changes_since(cut).interfaces == {record.record_id}


class TestGatewayReverseMap:
    def test_member_lookup_is_consistent(self, journal):
        record = _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        assert journal.gateway_for_interface(record.record_id) is None
        gateway, _ = journal.ensure_gateway(
            source="x", name="gw", interface_ids=[record.record_id]
        )
        assert journal.gateway_for_interface(record.record_id) is gateway
        journal.delete_interface(record.record_id)
        assert journal.gateway_for_interface(record.record_id) is None

    def test_merge_repoints_members(self, journal):
        a = _observe(journal, ip="10.0.1.1", mac="aa:00:03:00:00:01")
        b = _observe(journal, ip="10.0.2.1", mac="aa:00:03:00:00:01")
        journal.ensure_gateway(source="x", interface_ids=[a.record_id])
        journal.ensure_gateway(source="y", interface_ids=[b.record_id])
        merged, _ = journal.ensure_gateway(
            source="z", interface_ids=[a.record_id, b.record_id]
        )
        assert journal.gateway_for_interface(a.record_id) is merged
        assert journal.gateway_for_interface(b.record_id) is merged


class TestNegativeCachePruning:
    def test_expired_entries_swept_on_growth(self, journal, clock_state):
        # Fill to just below the sweep threshold with entries that will
        # have expired by the time the threshold-crossing put arrives.
        for index in range(127):
            journal.negative_put("ping", f"10.9.0.{index}", ttl=10.0)
        clock_state["now"] = 100.0
        journal.negative_put("ping", "10.9.1.1", ttl=1000.0)
        assert journal.counts()["negative_cache_size"] == 1
        assert journal.counts()["negative_evictions"] == 127
        assert journal.negative_check("ping", "10.9.1.1")
        assert not journal.negative_check("ping", "10.9.0.5")

    def test_live_entries_survive_sweep(self, journal, clock_state):
        for index in range(127):
            ttl = 10.0 if index % 2 else 1000.0
            journal.negative_put("ping", f"10.9.0.{index}", ttl=ttl)
        clock_state["now"] = 100.0
        journal.negative_put("ping", "10.9.1.1", ttl=1000.0)
        # 64 even-index long-ttl entries plus the fresh one survive.
        assert journal.counts()["negative_cache_size"] == 65
        assert journal.negative_check("ping", "10.9.0.0")

    def test_small_cache_not_swept(self, journal, clock_state):
        journal.negative_put("ping", "10.9.0.1", ttl=10.0)
        clock_state["now"] = 100.0
        journal.negative_put("ping", "10.9.0.2", ttl=10.0)
        # Expired entry still sitting there: size stays below the sweep
        # threshold, and lookups still answer correctly.
        assert journal.counts()["negative_cache_size"] == 2
        assert not journal.negative_check("ping", "10.9.0.1")

    def test_persisted_negative_cache_round_trips(self, journal, tmp_path, clock_state):
        journal.negative_put("ping", "10.9.0.1", ttl=1000.0)
        _observe(journal, ip="10.0.0.1")
        path = str(tmp_path / "journal.json")
        journal.save(path)
        loaded = Journal.load(path, clock=lambda: clock_state["now"])
        assert loaded.counts() == journal.counts()
        assert loaded.negative_check("ping", "10.9.0.1")


class TestPruneClampMultipleSubscribers:
    """prune_changes never prunes past the slowest open subscription,
    even with several consumers parked at different cursors."""

    def test_clamped_to_slowest_cursor(self, journal):
        for index in range(1, 6):
            _observe(journal, ip=f"10.0.0.{index}")
        slow = journal.subscribe(since=2)
        fast = journal.subscribe(since=5)
        try:
            journal.prune_changes(journal.revision)
            # Clamped to the slow consumer: its window stays replayable.
            replay = journal.changes_since(2)
            assert replay.complete
            assert len(replay.interfaces) == 3
            # History at or below the clamp is gone.
            assert not journal.changes_since(1).complete
        finally:
            slow.close()
            fast.close()

    def test_clamp_follows_consumption(self, journal):
        for index in range(1, 6):
            _observe(journal, ip=f"10.0.0.{index}")
        slow = journal.subscribe(since=0)
        fast = journal.subscribe(since=journal.revision)
        try:
            journal.prune_changes(journal.revision)
            # The slow subscriber still holds the whole window open.
            assert journal.changes_since(0).complete
            # Consuming its backlog advances its cursor; the next prune
            # may now discard what it consumed.
            delta = slow.poll()
            assert delta is not None and delta.revision == journal.revision
            journal.prune_changes(journal.revision)
            assert not journal.changes_since(0).complete
            assert journal.changes_since(journal.revision).complete
        finally:
            slow.close()
            fast.close()

    def test_closing_slow_subscriber_releases_clamp(self, journal):
        for index in range(1, 4):
            _observe(journal, ip=f"10.0.0.{index}")
        slow = journal.subscribe(since=0)
        fast = journal.subscribe(since=journal.revision)
        journal.prune_changes(journal.revision)
        assert journal.changes_since(0).complete
        slow.close()
        journal.prune_changes(journal.revision)
        assert not journal.changes_since(0).complete
        fast.close()
