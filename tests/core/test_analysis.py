"""Analysis program tests: every Table 8 problem class must be found."""

import pytest

from repro.core import Journal
from repro.core.analysis import (
    KIND_ADDRESS_CONFLICT,
    KIND_DUPLICATE,
    KIND_HARDWARE,
    KIND_MASK,
    KIND_PROMISCUOUS,
    KIND_STALE,
    analysis_programs,
    find_address_conflicts,
    find_duplicate_addresses,
    find_hardware_changes,
    find_mask_conflicts,
    find_promiscuous_rip,
    find_stale_addresses,
    run_all_analyses,
)
from repro.core.records import Observation


def _clock():
    state = {"now": 0.0}
    return (lambda: state["now"]), state


@pytest.fixture
def timed_journal():
    clock, state = _clock()
    journal = Journal(clock=clock)
    return journal, state


def _observe(journal, **kwargs):
    source = kwargs.pop("source", "ARPwatch")
    record, _ = journal.observe_interface(Observation(source=source, **kwargs))
    return record


class TestStaleAddresses:
    def test_silent_interface_flagged(self, timed_journal):
        journal, state = timed_journal
        state["now"] = 10.0
        _observe(journal, ip="10.0.0.1")
        state["now"] = 1000.0
        _observe(journal, ip="10.0.0.2")
        findings = find_stale_addresses(journal, horizon=500.0)
        assert [f.subject for f in findings] == ["10.0.0.1"]

    def test_dns_verification_does_not_count(self, timed_journal):
        # The paper's display ignores "time of last DNS verification":
        # a host kept alive only by its stale DNS record is still stale.
        journal, state = timed_journal
        state["now"] = 10.0
        _observe(journal, ip="10.0.0.1", source="SeqPing")
        state["now"] = 1000.0
        _observe(journal, ip="10.0.0.1", source="DNS")  # re-verifies via DNS
        findings = find_stale_addresses(journal, horizon=500.0)
        assert [f.subject for f in findings] == ["10.0.0.1"]

    def test_live_probe_clears_staleness(self, timed_journal):
        journal, state = timed_journal
        state["now"] = 10.0
        _observe(journal, ip="10.0.0.1")
        state["now"] = 1000.0
        _observe(journal, ip="10.0.0.1", source="SeqPing")
        assert find_stale_addresses(journal, horizon=500.0) == []

    def test_dns_only_interface_always_stale(self, timed_journal):
        journal, state = timed_journal
        state["now"] = 600.0
        _observe(journal, ip="10.0.0.1", source="DNS")
        findings = find_stale_addresses(journal, horizon=500.0)
        assert len(findings) == 1
        assert "never verified" in findings[0].details


class TestHardwareChanges:
    def test_sequential_mac_records_detected(self, timed_journal):
        journal, state = timed_journal
        state["now"] = 10.0
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        state["now"] = 500.0  # old interface last verified at t=10
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:02")
        findings = find_hardware_changes(journal)
        assert len(findings) == 1
        assert findings[0].kind == KIND_HARDWARE
        assert "aa:00:03:00:00:01" in findings[0].details

    def test_in_place_mac_history_detected(self, timed_journal):
        journal, state = timed_journal
        record = _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        record.attributes["mac"].change("aa:00:03:00:00:09", 50.0, "manual")
        findings = find_hardware_changes(journal)
        assert len(findings) == 1

    def test_stable_interface_clean(self, timed_journal):
        journal, state = timed_journal
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        assert find_hardware_changes(journal) == []


class TestDuplicateAddresses:
    def test_overlapping_lifetimes_flagged(self, timed_journal):
        journal, state = timed_journal
        state["now"] = 10.0
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        state["now"] = 100.0
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:02")
        state["now"] = 200.0
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")  # old mac again!
        findings = find_duplicate_addresses(journal)
        assert len(findings) == 1
        assert findings[0].kind == KIND_DUPLICATE
        assert findings[0].subject == "10.0.0.1"

    def test_clean_handoff_not_duplicate(self, timed_journal):
        journal, state = timed_journal
        state["now"] = 10.0
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        state["now"] = 500.0
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:02")
        assert find_duplicate_addresses(journal) == []

    def test_one_address_in_two_spellings_is_one_address(self, timed_journal):
        """The finders group by the Journal's IP index, which compares
        addresses by ``ip_key``: zero-padded text is the same address."""
        journal, state = timed_journal
        state["now"] = 10.0
        first = _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        state["now"] = 100.0
        second = _observe(journal, ip="010.000.000.001", mac="aa:00:03:00:00:02")
        state["now"] = 200.0
        _observe(journal, ip="10.0.0.1", mac="aa:00:03:00:00:01")
        assert first.record_id != second.record_id
        findings = run_all_analyses(journal)[KIND_DUPLICATE]
        assert len(findings) == 1
        assert findings[0].subject == "10.0.0.1"
        assert findings[0].record_ids == [first.record_id, second.record_id]


class TestMaskConflicts:
    def test_minority_mask_flagged(self, timed_journal):
        journal, state = timed_journal
        for suffix in (1, 2, 3):
            _observe(journal, ip=f"10.0.0.{suffix}", subnet_mask="255.255.255.0")
        _observe(journal, ip="10.0.0.9", subnet_mask="255.255.255.192")
        findings = find_mask_conflicts(journal)
        assert len(findings) == 1
        assert findings[0].subject == "10.0.0.9"
        assert findings[0].kind == KIND_MASK

    def test_consistent_masks_clean(self, timed_journal):
        journal, state = timed_journal
        for suffix in (1, 2):
            _observe(journal, ip=f"10.0.0.{suffix}", subnet_mask="255.255.255.0")
        assert find_mask_conflicts(journal) == []

    def test_different_subnets_do_not_conflict(self, timed_journal):
        journal, state = timed_journal
        _observe(journal, ip="10.0.0.1", subnet_mask="255.255.255.0")
        _observe(journal, ip="10.0.9.1", subnet_mask="255.255.255.192")
        assert find_mask_conflicts(journal) == []


class TestPromiscuousRip:
    def test_flagged_record_reported(self, timed_journal):
        journal, state = timed_journal
        _observe(journal, ip="10.0.0.1", rip_source=True, promiscuous_rip=True)
        _observe(journal, ip="10.0.0.2", rip_source=True, promiscuous_rip=False)
        findings = find_promiscuous_rip(journal)
        assert [f.subject for f in findings] == ["10.0.0.1"]


class TestAddressConflicts:
    def test_multi_ip_mac_reported(self, timed_journal):
        journal, state = timed_journal
        _observe(journal, ip="10.0.0.5", mac="00:00:0c:00:00:01")
        _observe(journal, ip="10.0.0.6", mac="00:00:0c:00:00:01")
        findings = find_address_conflicts(journal)
        assert len(findings) == 1
        assert findings[0].subject == "00:00:0c:00:00:01"

    def test_known_gateway_interfaces_excluded(self, timed_journal):
        journal, state = timed_journal
        r1 = _observe(journal, ip="10.0.1.1", mac="08:00:20:00:00:01")
        r2 = _observe(journal, ip="10.0.2.1", mac="08:00:20:00:00:01")
        journal.ensure_gateway(
            source="x", interface_ids=[r1.record_id, r2.record_id]
        )
        assert find_address_conflicts(journal) == []


class TestRunAll:
    def test_all_kinds_present(self, timed_journal):
        journal, state = timed_journal
        results = run_all_analyses(journal)
        assert set(results) == set(analysis_programs())
        assert set(results) > {
            KIND_STALE,
            KIND_HARDWARE,
            KIND_MASK,
            KIND_DUPLICATE,
            KIND_PROMISCUOUS,
            KIND_ADDRESS_CONFLICT,
        }

    def test_finding_str(self, timed_journal):
        journal, state = timed_journal
        _observe(journal, ip="10.0.0.1", rip_source=True, promiscuous_rip=True)
        finding = find_promiscuous_rip(journal)[0]
        assert "promiscuous-rip" in str(finding)
        assert "10.0.0.1" in str(finding)
