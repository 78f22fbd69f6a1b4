"""Incremental correlation: delta-driven passes vs the full rescan.

The contract under test: a persistent Correlator consuming Journal
dirty sets must leave the Journal in the same canonical state as the
classic whole-Journal rescan, for any observation history.  Two
Journals receive identical operation streams; one is correlated
incrementally after every batch, the other by a fresh full-rescan
Correlator, and their canonical states are compared throughout.
"""

import random

import pytest

from repro.core import Journal
from repro.core.correlate import Correlator
from repro.core.records import Observation

SOURCE = "test"


@pytest.fixture
def clock_state():
    return {"now": 0.0}


@pytest.fixture
def pair(clock_state):
    """Two journals on one shared clock, plus their correlators."""
    inc = Journal(clock=lambda: clock_state["now"])
    full = Journal(clock=lambda: clock_state["now"])
    return inc, full, Correlator(inc)


def _observe_both(journals, **fields):
    for journal in journals:
        journal.observe_interface(Observation(source=SOURCE, **fields))


def _correlate_both(inc_correlator, full_journal):
    report = inc_correlator.correlate()
    Correlator(full_journal).correlate(full=True)
    return report


def _assert_equivalent(inc, full):
    assert inc.canonical_state() == full.canonical_state()


class TestModes:
    def test_first_pass_is_full_then_incremental(self, pair):
        inc, _full, correlator = pair
        inc.observe_interface(Observation(source=SOURCE, ip="10.0.1.1"))
        assert correlator.correlate().mode == "full"
        inc.observe_interface(Observation(source=SOURCE, ip="10.0.1.2"))
        assert correlator.correlate().mode == "incremental"
        assert correlator.full_passes == 1
        assert correlator.incremental_passes == 1

    def test_idle_incremental_pass_examines_nothing(self, pair):
        inc, _full, correlator = pair
        inc.observe_interface(
            Observation(source=SOURCE, ip="10.0.1.1", mac="aa:00:03:00:00:01")
        )
        correlator.correlate()
        report = correlator.correlate()
        assert report.mode == "incremental"
        assert report.interfaces_examined == 0
        assert report.gateways_inferred == 0

    def test_full_flag_forces_rescan(self, pair):
        inc, _full, correlator = pair
        correlator.correlate()
        assert correlator.correlate(full=True).mode == "full"

    def test_pruned_history_falls_back_to_full(self, pair):
        inc, _full, correlator = pair
        correlator.correlate()
        inc.observe_interface(Observation(source=SOURCE, ip="10.0.1.1"))
        # Another consumer pruned past our watermark: the delta is gone.
        inc.prune_changes(inc.revision)
        inc.observe_interface(Observation(source=SOURCE, ip="10.0.1.2"))
        assert correlator.correlate().mode == "full"


class TestIncrementalEffects:
    def test_gateway_inferred_from_delta_only(self, pair):
        inc, full, correlator = pair
        journals = (inc, full)
        for index in range(20):
            _observe_both(
                journals,
                ip=f"10.0.1.{10 + index}",
                mac=f"08:00:20:00:01:{index:02x}",
                subnet_mask="255.255.255.0",
            )
        _correlate_both(correlator, full)
        # A workstation-gateway appears: one MAC on two subnets.
        _observe_both(journals, ip="10.0.1.1", mac="aa:00:03:00:00:99",
                      subnet_mask="255.255.255.0")
        _observe_both(journals, ip="10.0.2.1", mac="aa:00:03:00:00:99",
                      subnet_mask="255.255.255.0")
        report = _correlate_both(correlator, full)
        assert report.mode == "incremental"
        assert report.gateways_inferred == 1
        # Only the two dirty records were examined, not all 22.
        assert report.interfaces_examined == 2
        _assert_equivalent(inc, full)

    def test_late_mask_relinks_gateway(self, pair):
        inc, full, correlator = pair
        journals = (inc, full)
        _observe_both(journals, ip="10.0.1.1", mac="aa:00:03:00:00:01")
        _observe_both(journals, ip="10.0.2.1", mac="aa:00:03:00:00:01")
        _correlate_both(correlator, full)
        # The member's mask arrives later, moving it to a /26 subnet:
        # the owning gateway must be re-linked by the incremental pass.
        _observe_both(journals, ip="10.0.2.1", mac="aa:00:03:00:00:01",
                      subnet_mask="255.255.255.192")
        report = _correlate_both(correlator, full)
        assert report.subnet_links_added >= 1
        _assert_equivalent(inc, full)
        assert "10.0.2.0/26" in inc.all_gateways()[0].connected_subnets

    def test_deleted_interface_drops_out_of_indexes(self, pair):
        inc, full, correlator = pair
        journals = (inc, full)
        _observe_both(journals, ip="10.0.1.1", mac="aa:00:03:00:00:01")
        _observe_both(journals, ip="10.0.2.1", mac="aa:00:03:00:00:01")
        _correlate_both(correlator, full)
        victims = []
        for journal in journals:
            victim = journal.interfaces_by_ip("10.0.2.1")[0]
            journal.delete_interface(victim.record_id)
            victims.append(victim.record_id)
        _correlate_both(correlator, full)
        _assert_equivalent(inc, full)
        # The pass reads the Journal's own index, which lost the record;
        # the Correlator's subnet memo forgets it too.
        assert len(inc.interfaces_by_mac("aa:00:03:00:00:01")) == 1
        assert victims[0] not in correlator._subnet_memo

    def test_subnet_memo_invalidated_by_record_revision(self, pair):
        inc, _full, correlator = pair
        record, _ = inc.observe_interface(
            Observation(source=SOURCE, ip="10.0.1.1")
        )
        first = correlator.subnet_of_record(record)
        assert str(first) == "10.0.1.0/24"
        assert correlator.subnet_of_record(record) is first  # memo hit
        inc.observe_interface(
            Observation(source=SOURCE, ip="10.0.1.1",
                        subnet_mask="255.255.255.192")
        )
        assert str(correlator.subnet_of_record(record)) == "10.0.1.0/26"


class _Campaign:
    """Randomized but seed-deterministic observation stream applied to
    every journal identically (mirrors the benchmark harness)."""

    def __init__(self, seed, journals, clock_state):
        self.rng = random.Random(seed)
        self.journals = journals
        self.clock_state = clock_state
        self.hosts = []
        self.subnets = 1
        self.serial = 0

    def _mac(self):
        self.serial += 1
        return f"08:00:20:00:{self.serial >> 8:02x}:{self.serial & 0xFF:02x}"

    def _observe(self, **fields):
        _observe_both(self.journals, **fields)

    def batch(self):
        self.clock_state["now"] += 60.0
        if self.rng.random() < 0.3:
            self.subnets += 1
        for _ in range(self.rng.randint(1, 6)):
            subnet = self.rng.randint(1, self.subnets)
            host = {
                "ip": f"10.0.{subnet}.{10 + len(self.hosts)}",
                "mac": self._mac(),
                "mask": "255.255.255.0" if self.rng.random() < 0.5 else None,
            }
            self.hosts.append(host)
            self._observe(ip=host["ip"], mac=host["mac"],
                          subnet_mask=host["mask"])
        if self.hosts:
            # Re-verify a few hosts (no-ops for the incremental engine).
            for host in self.rng.sample(
                self.hosts, min(3, len(self.hosts))
            ):
                self._observe(ip=host["ip"], mac=host["mac"],
                              subnet_mask=host["mask"])
        if self.subnets >= 2 and self.rng.random() < 0.6:
            # A gateway MAC spanning two subnets.
            mac = self._mac()
            a, b = self.rng.sample(range(1, self.subnets + 1), 2)
            for subnet in (a, b):
                self._observe(ip=f"10.0.{subnet}.1", mac=mac,
                              subnet_mask="255.255.255.0")
        if self.hosts and self.rng.random() < 0.3:
            # A host learns its mask late.
            host = self.rng.choice(self.hosts)
            host["mask"] = "255.255.255.0"
            self._observe(ip=host["ip"], mac=host["mac"],
                          subnet_mask=host["mask"])
        if self.hosts and self.rng.random() < 0.15:
            # A host is retired from every journal.
            host = self.hosts.pop(self.rng.randrange(len(self.hosts)))
            for journal in self.journals:
                for record in journal.interfaces_by_ip(host["ip"]):
                    journal.delete_interface(record.record_id)


class TestRandomizedConvergence:
    @pytest.mark.parametrize("seed", [0, 7, 42, 1993, 20260806])
    def test_incremental_equals_full_after_every_batch(
        self, seed, pair, clock_state
    ):
        inc, full, correlator = pair
        campaign = _Campaign(seed, (inc, full), clock_state)
        for _round in range(25):
            campaign.batch()
            report = _correlate_both(correlator, full)
            _assert_equivalent(inc, full)
        assert report.mode == "incremental"
        assert correlator.incremental_passes >= 24

    @pytest.mark.parametrize("seed", [3, 11])
    def test_single_final_full_rescan_changes_nothing(
        self, seed, pair, clock_state
    ):
        """After incremental correlation, a forced full rescan must be a
        no-op: the delta-driven passes left nothing undone."""
        inc, _full, correlator = pair
        campaign = _Campaign(seed, (inc,), clock_state)
        for _round in range(25):
            campaign.batch()
            correlator.correlate()
        before = inc.canonical_state()
        correlator.correlate(full=True)
        assert inc.canonical_state() == before
