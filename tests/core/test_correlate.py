"""Cross-correlation tests: the Journal as more than the sum of parts."""

import pytest

from repro.core import Journal
from repro.core.correlate import Correlator
from repro.core.records import Observation


@pytest.fixture
def journal():
    return Journal()


def _observe(journal, **kwargs):
    source = kwargs.pop("source", "test")
    record, _ = journal.observe_interface(Observation(source=source, **kwargs))
    return record


class TestSharedMacInference:
    def test_same_mac_two_subnets_becomes_gateway(self, journal):
        # The paper's canonical example: two ARP modules on different
        # subnets each saw the same station MAC.
        _observe(journal, ip="10.0.1.1", mac="08:00:20:00:00:07")
        _observe(journal, ip="10.0.2.1", mac="08:00:20:00:00:07")
        report = Correlator(journal).correlate()
        assert report.gateways_inferred == 1
        gateway = journal.all_gateways()[0]
        assert len(gateway.interface_ids) == 2
        assert set(gateway.connected_subnets) == {"10.0.1.0/24", "10.0.2.0/24"}

    def test_same_mac_same_subnet_is_proxy_arp_not_gateway(self, journal):
        _observe(journal, ip="10.0.1.5", mac="00:00:0c:00:00:01")
        _observe(journal, ip="10.0.1.6", mac="00:00:0c:00:00:01")
        report = Correlator(journal).correlate()
        assert report.gateways_inferred == 0
        assert "00:00:0c:00:00:01" in report.proxy_arp_devices
        assert journal.counts()["gateways"] == 0

    def test_recorded_masks_drive_subnet_assignment(self, journal):
        # With a /26 mask, 10.0.1.5 and 10.0.1.200 are different subnets.
        _observe(journal, ip="10.0.1.5", mac="aa:00:03:00:00:01",
                 subnet_mask="255.255.255.192")
        _observe(journal, ip="10.0.1.200", mac="aa:00:03:00:00:01",
                 subnet_mask="255.255.255.192")
        report = Correlator(journal).correlate()
        assert report.gateways_inferred == 1

    def test_unique_macs_no_inference(self, journal):
        _observe(journal, ip="10.0.1.1", mac="aa:00:03:00:00:01")
        _observe(journal, ip="10.0.2.1", mac="aa:00:03:00:00:02")
        report = Correlator(journal).correlate()
        assert report.gateways_inferred == 0


class TestGatewayMergeAcrossModules:
    def test_two_partial_gateways_sharing_interface_merge(self, journal):
        shared = _observe(journal, ip="10.0.1.1")
        other = _observe(journal, ip="10.0.2.1")
        third = _observe(journal, ip="10.0.3.1")
        # Traceroute built one gateway around the shared interface...
        a, _ = journal.ensure_gateway(source="Traceroute",
                                      interface_ids=[shared.record_id])
        # ...and DNS built another, via a *different* record for the
        # same address is impossible here, so simulate the split by
        # directly constructing two gateways around distinct members.
        b, _ = journal.ensure_gateway(source="DNS",
                                      interface_ids=[other.record_id])
        c, _ = journal.ensure_gateway(source="DNS",
                                      interface_ids=[third.record_id])
        assert journal.counts()["gateways"] == 3
        # Now DNS learns the shared interface belongs with `other`.
        journal.ensure_gateway(
            source="DNS", interface_ids=[shared.record_id, other.record_id]
        )
        assert journal.counts()["gateways"] == 2

    def test_correlator_merges_duplicate_records_same_ip(self, journal):
        # Two records exist for one IP (e.g. conflicting MAC sightings),
        # and different modules hung gateways off each.
        r1, _ = journal.observe_interface(
            Observation(source="a", ip="10.0.1.1", mac="aa:00:03:00:00:01")
        )
        r2, _ = journal.observe_interface(
            Observation(source="b", ip="10.0.1.1", mac="aa:00:03:00:00:02")
        )
        journal.ensure_gateway(source="a", interface_ids=[r1.record_id])
        journal.ensure_gateway(source="b", interface_ids=[r2.record_id])
        report = Correlator(journal).correlate()
        assert journal.counts()["gateways"] == 1
        assert report.gateways_merged >= 1


class TestLinking:
    def test_gateways_linked_to_member_subnets(self, journal):
        record = _observe(journal, ip="10.0.7.1", subnet_mask="255.255.255.0")
        gateway, _ = journal.ensure_gateway(
            source="x", interface_ids=[record.record_id]
        )
        report = Correlator(journal).correlate()
        assert "10.0.7.0/24" in gateway.connected_subnets
        assert report.subnet_links_added >= 1

    def test_interfaces_get_gateway_id_backfilled(self, journal):
        record = _observe(journal, ip="10.0.7.1")
        gateway, _ = journal.ensure_gateway(
            source="x", interface_ids=[record.record_id]
        )
        record.attributes.pop("gateway_id", None)
        report = Correlator(journal).correlate()
        assert record.gateway_id == gateway.record_id
        assert report.interfaces_assigned >= 1


class TestTopology:
    def _build_simple(self, journal):
        a = _observe(journal, ip="10.0.1.1", mac="08:00:20:00:00:01")
        b = _observe(journal, ip="10.0.2.1", mac="08:00:20:00:00:01")
        Correlator(journal).correlate()

    def test_topology_graph_structure(self, journal):
        self._build_simple(journal)
        graph = journal.topology().graph()
        assert set(graph.subnets) == {"10.0.1.0/24", "10.0.2.0/24"}
        assert len(graph.gateways) == 1
        assert len(graph.edges()) == 2

    def test_connected_components(self, journal):
        self._build_simple(journal)
        # An isolated subnet with no gateway.
        journal.ensure_subnet("10.0.9.0/24", source="RIPwatch")
        graph = journal.topology().graph()
        components = graph.connected_components()
        assert len(components) == 2
        assert {"10.0.1.0/24", "10.0.2.0/24"} in components
        assert {"10.0.9.0/24"} in components

    def test_idempotent_correlation(self, journal):
        self._build_simple(journal)
        before = journal.counts()
        report = Correlator(journal).correlate()
        assert journal.counts() == before
        assert report.gateways_inferred == 0
