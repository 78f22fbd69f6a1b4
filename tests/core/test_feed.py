"""Journal change feed: subscriptions, publish, pruning, and the
feed-driven Correlator / AnalysisMonitor consumers."""

from repro.core import Correlator, Journal
from repro.core.analysis import AnalysisMonitor
from repro.core.journal import JournalChanges
from repro.core.records import Observation


def _obs(**fields):
    fields.setdefault("source", "test")
    return Observation(**fields)


class TestSubscription:
    def test_pull_style_poll_advances_cursor(self):
        journal = Journal()
        subscription = journal.subscribe()
        record, _ = journal.submit(_obs(ip="10.0.0.1"))
        assert subscription.pending is True
        changes = subscription.poll()
        assert changes.interfaces == {record.record_id}
        assert subscription.pending is False
        assert subscription.poll().empty()

    def test_push_style_publish_invokes_callback(self):
        journal = Journal()
        seen = []
        journal.subscribe(seen.append)
        journal.submit(_obs(ip="10.0.0.1"))
        journal.submit(_obs(ip="10.0.0.2"))
        assert journal.publish() == 1
        assert len(seen) == 1  # both writes arrive as one merged delta
        assert len(seen[0].interfaces) == 2
        # Nothing new: publish is silent.
        assert journal.publish() == 0
        assert len(seen) == 1

    def test_since_revision_skips_existing_state(self):
        journal = Journal()
        journal.submit(_obs(ip="10.0.0.1"))
        seen = []
        journal.subscribe(seen.append, since=journal.revision)
        assert journal.publish() == 0
        journal.submit(_obs(ip="10.0.0.2"))
        journal.publish()
        assert len(seen) == 1
        assert len(seen[0].interfaces) == 1

    def test_feed_counters_surface_in_counts(self):
        journal = Journal()
        journal.subscribe(lambda changes: None)
        journal.submit(_obs(ip="10.0.0.1"))
        journal.publish()
        counts = journal.counts()
        assert counts["feed_subscribers"] == 1
        assert counts["feed_deliveries"] == 1


class TestPruneClamping:
    def test_prune_respects_slowest_subscriber(self):
        journal = Journal()
        fast = journal.subscribe()
        slow = journal.subscribe()
        journal.submit(_obs(ip="10.0.0.1"))
        fast.poll()
        # The fast consumer prunes, but the clamp keeps history for the
        # slow one: its delta must still be complete.
        journal.prune_changes(journal.revision)
        changes = slow.poll()
        assert changes.complete is True
        assert changes.interfaces

    def test_closed_subscription_releases_the_clamp(self):
        journal = Journal()
        laggard = journal.subscribe()
        journal.submit(_obs(ip="10.0.0.1"))
        laggard.close()
        journal.prune_changes(journal.revision)
        assert not journal.changes_since(0).complete
        assert journal.counts()["feed_subscribers"] == 0


class TestChangesMerge:
    def test_merge_unions_and_tracks_revisions(self):
        a = JournalChanges(since=0, revision=2, interfaces={1})
        b = JournalChanges(since=2, revision=5, interfaces={2}, gateways={7})
        a.merge(b)
        assert a.interfaces == {1, 2}
        assert a.gateways == {7}
        assert (a.since, a.revision) == (0, 5)

    def test_merge_deletion_supersedes_touch(self):
        a = JournalChanges(since=0, revision=2, interfaces={1})
        b = JournalChanges(since=2, revision=3, deleted_interfaces={1})
        a.merge(b)
        assert a.interfaces == set()
        assert a.deleted_interfaces == {1}

    def test_merge_propagates_incompleteness(self):
        a = JournalChanges(since=0, revision=2)
        b = JournalChanges(since=2, revision=3, complete=False)
        assert a.merge(b).complete is False


class TestFeedDrivenCorrelator:
    def _grow(self, journal, octet):
        # Two subnets sharing one MAC: a gateway for the correlator.
        mac = f"aa:00:00:00:00:{octet:02x}"
        journal.submit(_obs(ip=f"10.0.{octet}.1", mac=mac,
                            subnet_mask="255.255.255.0"))
        journal.submit(_obs(ip=f"10.1.{octet}.1", mac=mac,
                            subnet_mask="255.255.255.0"))

    def test_incremental_passes_converge_with_full_rescans(self):
        polled, rescanned = Journal(), Journal()
        poll_correlator = Correlator(polled)
        rescan_correlator = Correlator(rescanned)
        for octet in range(1, 4):
            self._grow(polled, octet)
            poll_correlator.correlate()
            self._grow(rescanned, octet)
            rescan_correlator.correlate(full=True)
        assert polled.canonical_state() == rescanned.canonical_state()
        # After warmup every pass consumed the polled delta, not a rescan.
        assert poll_correlator.incremental_passes == 2

    def test_correlator_does_not_chase_its_own_echo(self):
        journal = Journal()
        correlator = Correlator(journal)
        self._grow(journal, 1)
        correlator.correlate()
        # The pass's own gateway/subnet writes must not come back as a
        # delta for the next pass.
        report = correlator.correlate()
        assert report.mode == "incremental"
        assert report.interfaces_examined == 0


class TestAnalysisMonitor:
    def test_recomputes_only_when_journal_moves(self):
        journal = Journal()
        journal.submit(_obs(ip="10.0.0.1", promiscuous_rip=True))
        with AnalysisMonitor(journal, stale_horizon=0.0) as monitor:
            first = monitor.refresh()
            assert first["promiscuous-rip"]
            second = monitor.refresh()
            assert second is first
            assert (monitor.recomputes, monitor.skips) == (1, 1)
            journal.submit(_obs(ip="10.0.0.2", promiscuous_rip=True))
            third = monitor.refresh()
            assert len(third["promiscuous-rip"]) == 2
            assert monitor.recomputes == 2
        assert journal.counts()["feed_subscribers"] == 0

    def test_monitor_matches_direct_analysis(self):
        from repro.core.analysis import run_all_analyses

        journal = Journal()
        journal.submit(_obs(ip="10.0.0.1", mac="aa:00:00:00:00:01"))
        journal.submit(_obs(ip="10.0.0.1", mac="aa:00:00:00:00:02"))
        monitor = AnalysisMonitor(journal, stale_horizon=0.0)
        direct = run_all_analyses(journal, stale_horizon=0.0)
        via_feed = monitor.refresh()
        assert {k: [str(f) for f in v] for k, v in direct.items()} == {
            k: [str(f) for f in v] for k, v in via_feed.items()
        }
        monitor.close()
