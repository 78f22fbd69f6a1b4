"""BatchingSink buffering, coalescing, and accounting."""

import pytest

from repro.core import BatchingSink, Journal, LocalClient
from repro.core.records import Observation
from repro.core.sink import FlushStats


def _obs(**fields):
    fields.setdefault("source", "test")
    return Observation(**fields)


class TestCoalescing:
    def test_consecutive_duplicates_merge_into_tail(self):
        sink = BatchingSink(Journal(), max_batch=100)
        sink.submit(_obs(ip="10.0.0.1", mac="aa:00:00:00:00:01"))
        sink.submit(_obs(ip="10.0.0.1", mac="aa:00:00:00:00:01", vendor="Sun"))
        assert sink.pending == 1
        assert sink.submitted == 2
        assert sink.coalesced == 1
        # The merged entry carries the union of the fields.
        assert sink._entries[0].vendor == "Sun"

    def test_key_change_breaks_the_run(self):
        sink = BatchingSink(Journal(), max_batch=100)
        sink.submit(_obs(ip="10.0.0.1"))
        sink.submit(_obs(ip="10.0.0.2"))
        sink.submit(_obs(ip="10.0.0.1"))  # not adjacent: must not merge
        assert sink.pending == 3
        assert sink.coalesced == 0

    def test_source_and_quality_are_part_of_the_key(self):
        sink = BatchingSink(Journal(), max_batch=100)
        sink.submit(_obs(ip="10.0.0.1", source="a"))
        sink.submit(_obs(ip="10.0.0.1", source="b"))
        sink.submit(_obs(ip="10.0.0.1", source="b", quality="poor"))
        assert sink.pending == 3

    def test_dns_only_observations_coalesce_by_name(self):
        sink = BatchingSink(Journal(), max_batch=100)
        sink.submit(_obs(dns_name="h.test"))
        sink.submit(_obs(dns_name="h.test"))
        assert sink.pending == 1
        assert sink.coalesced == 1

    def test_identityless_observations_never_coalesce(self):
        sink = BatchingSink(Journal(), max_batch=100)
        sink.submit(_obs(subnet_mask="255.255.255.0"))
        sink.submit(_obs(subnet_mask="255.255.255.0"))
        assert sink.pending == 2

    def test_submitted_observation_is_copied_not_aliased(self):
        sink = BatchingSink(Journal(), max_batch=100)
        original = _obs(ip="10.0.0.1")
        sink.submit(original)
        original.ip = "10.0.0.99"
        assert sink._entries[0].ip == "10.0.0.1"


class TestFlushTriggers:
    def test_size_threshold_flushes(self):
        journal = Journal()
        sink = BatchingSink(journal, max_batch=3)
        for index in range(3):
            sink.submit(_obs(ip=f"10.0.0.{index + 1}"))
        assert sink.pending == 0
        assert journal.counts()["interfaces"] == 3
        assert sink.flushes == 1

    def test_age_threshold_flushes(self):
        state = {"now": 0.0}
        journal = Journal()
        sink = BatchingSink(journal, max_batch=100, max_age=5.0,
                            clock=lambda: state["now"])
        sink.submit(_obs(ip="10.0.0.1"))
        assert sink.pending == 1
        state["now"] = 6.0
        sink.submit(_obs(ip="10.0.0.2"))
        assert sink.pending == 0
        assert journal.counts()["interfaces"] == 2

    def test_explicit_flush_and_close_drain(self):
        journal = Journal()
        sink = BatchingSink(journal, max_batch=100)
        sink.submit(_obs(ip="10.0.0.1"))
        sink.close()
        assert sink.pending == 0
        assert journal.counts()["interfaces"] == 1

    def test_max_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchingSink(Journal(), max_batch=0)


class TestFlushAccounting:
    def test_flush_stats_report_the_batch(self):
        sink = BatchingSink(Journal(), max_batch=100)
        sink.submit(_obs(ip="10.0.0.1"))
        sink.submit(_obs(ip="10.0.0.1"))
        sink.submit(_obs(ip="10.0.0.2"))
        stats = sink.flush()
        assert (stats.applied, stats.coalesced, stats.batches) == (2, 1, 1)
        assert stats.changed == 2
        assert bool(stats) is True
        assert bool(FlushStats()) is False

    @pytest.mark.parametrize("wrap", [lambda j: j, LocalClient])
    def test_journal_counters_tally_submitted_applied_coalesced(self, wrap):
        # Both targets — a bare Journal (wrapped in a LocalClient when
        # the sink is built) and a LocalClient — must account identically.
        journal = Journal()
        sink = BatchingSink(wrap(journal), max_batch=100)
        for _ in range(4):
            sink.submit(_obs(ip="10.0.0.1", mac="aa:00:00:00:00:01"))
        sink.submit(_obs(ip="10.0.0.2"))
        sink.flush()
        counts = journal.counts()
        assert counts["observations_submitted"] == 5
        assert counts["observations_applied"] == 2
        assert counts["observations_coalesced"] == 3
        assert counts["batches_flushed"] == 1
        assert (
            counts["observations_submitted"]
            == counts["observations_applied"] + counts["observations_coalesced"]
        )

    def test_take_changes_claims_flushed_outcomes_once(self):
        journal = Journal()
        sink = BatchingSink(journal, max_batch=100)
        sink.submit(_obs(ip="10.0.0.1"))
        sink.submit(_obs(ip="10.0.0.2"))
        sink.flush()
        sink.submit(_obs(ip="10.0.0.1"))  # re-verification: no change
        sink.flush()
        assert sink.take_changes() == 2
        assert sink.take_changes() == 0

    def test_empty_flush_is_a_no_op(self):
        journal = Journal()
        sink = BatchingSink(journal, max_batch=100)
        stats = sink.flush()
        assert not stats
        assert journal.counts()["batches_flushed"] == 0


class TestResolve:
    def test_resolve_flushes_queue_first_preserving_order(self):
        journal = Journal()
        sink = BatchingSink(journal, max_batch=100)
        sink.submit(_obs(ip="10.0.0.1"))
        record, changed = sink.resolve(
            _obs(ip="10.0.0.1", mac="aa:00:00:00:00:01")
        )
        assert sink.pending == 0
        assert changed is True
        # The queued ip-only sighting landed first, so resolve merged
        # into the same record instead of creating a second one.
        assert journal.counts()["interfaces"] == 1
        assert record.record_id >= 0
        assert record.mac == "aa:00:00:00:00:01"

    def test_resolve_outcome_not_double_counted_by_take_changes(self):
        journal = Journal()
        sink = BatchingSink(journal, max_batch=100)
        _record, changed = sink.resolve(_obs(ip="10.0.0.1"))
        assert changed is True
        assert sink.take_changes() == 0
