"""End-to-end integration: the Figure 1 pipeline on a small campus.

Explorer Modules -> Journal (local and via the socket Journal Server)
-> Discovery Manager -> cross-correlation -> analysis -> presentation.
"""

import pytest

from repro.core import (
    BatchingSink,
    Journal,
    JournalServer,
    LocalClient,
    RemoteClient,
)
from repro.core.analysis import run_all_analyses
from repro.core.correlate import Correlator
from repro.core.explorers import (
    ArpWatch,
    DnsExplorer,
    EtherHostProbe,
    RipWatch,
    SubnetMaskModule,
    TracerouteModule,
)
from repro.core.manager import DiscoveryManager
from repro.core.presentation import render_report
from repro.netsim import TrafficGenerator, faults
from repro.netsim.campus import CampusProfile, build_campus


SMALL_PROFILE = CampusProfile(
    seed=99,
    assigned_subnets=14,
    unconnected_subnets=1,
    dnsless_subnets=2,
    dns_gateway_mix=((1, 2), (2, 1)),
    plain_gateway_mix=((2, 2),),
    buggy_gateway_mix=((1, 4),),
    cs_octet=5,
    cs_registered_hosts=12,
    cs_stale_hosts=1,
)


@pytest.fixture
def small_campus():
    return build_campus(SMALL_PROFILE)


def _run_campaign(campus, client):
    campus.network.start_rip()
    campus.set_cs_uptime(0.9)
    traffic = TrafficGenerator(
        campus.network, seed=5, hosts=campus.cs_real_hosts()
    )
    traffic.start()
    nameserver = campus.network.dns.addresses_for(
        campus.network.dns.nameserver
    )[0]
    results = {}
    results["rip"] = RipWatch(campus.monitor, client).run(duration=65.0)
    results["arp"] = ArpWatch(campus.cs_monitor, client).run(duration=1800.0)
    results["ehp"] = EtherHostProbe(campus.cs_monitor, client).run()
    results["mask"] = SubnetMaskModule(campus.cs_monitor, client).run()
    results["trace"] = TracerouteModule(campus.monitor, client).run()
    results["dns"] = DnsExplorer(
        campus.monitor, client, nameserver=nameserver, domain="cs.colorado.edu"
    ).run()
    traffic.stop()
    return results


class TestLocalPipeline:
    def test_full_campaign_builds_complete_picture(self, small_campus):
        campus = small_campus
        journal = Journal(clock=lambda: campus.sim.now)
        client = LocalClient(journal)
        results = _run_campaign(campus, client)

        # Every module contributed.
        assert results["rip"].discovered["subnets"] == len(campus.connected)
        assert results["ehp"].discovered["interfaces"] > 0
        assert results["trace"].discovered["confirmed_subnets"] == len(
            campus.traceroute_visible_subnets()
        )
        assert results["dns"].discovered["subnets"] == len(
            campus.dns_registered_subnets()
        )
        assert results["dns"].discovered["gateways"] == len(campus.dns_gateways)

        report = Correlator(journal).correlate()
        graph = journal.topology().graph()
        # The discovered picture is connected around the backbone.
        components = graph.connected_components()
        assert len(components[0]) >= len(campus.traceroute_visible_subnets())

        # Presentation programs run on the result.
        assert "connection" in render_report(journal, "sunnet")
        assert "graph fremont" in render_report(journal, "dot")

    def test_journal_grows_monotonically_across_modules(self, small_campus):
        campus = small_campus
        journal = Journal(clock=lambda: campus.sim.now)
        client = LocalClient(journal)
        campus.network.start_rip()
        counts = []
        RipWatch(campus.monitor, client).run(duration=65.0)
        counts.append(journal.counts()["subnets"])
        TracerouteModule(campus.monitor, client).run()
        counts.append(journal.counts()["subnets"])
        assert counts[0] >= len(campus.connected)
        assert counts[1] >= counts[0]


class TestRemotePipeline:
    def test_explorers_work_through_socket_journal(self, small_campus):
        campus = small_campus
        journal = Journal(clock=lambda: campus.sim.now)
        server = JournalServer(journal)
        server.start()
        try:
            host, port = server.address
            with RemoteClient(host, port) as client:
                campus.network.start_rip()
                campus.set_cs_uptime(1.0)
                RipWatch(campus.monitor, client).run(duration=65.0)
                EtherHostProbe(campus.cs_monitor, client).run()
                trace = TracerouteModule(campus.monitor, client).run()
                assert trace.discovered["confirmed_subnets"] > 0
                snapshot = client.snapshot()
        finally:
            server.stop()
        # The server-side journal holds everything the snapshot shows.
        assert snapshot.counts() == journal.counts()
        assert journal.counts()["interfaces"] > 10
        assert journal.counts()["subnets"] >= len(campus.connected)


class TestManagerDrivenCampaign:
    def test_manager_schedules_and_correlates(self, small_campus, tmp_path):
        campus = small_campus
        journal = Journal(clock=lambda: campus.sim.now)
        client = LocalClient(journal)
        campus.network.start_rip()
        campus.set_cs_uptime(0.9)
        manager = DiscoveryManager(
            campus.sim, client, state_path=str(tmp_path / "history.json")
        )
        manager.register(RipWatch(campus.monitor, client),
                         directive={"duration": 65.0})
        manager.register(EtherHostProbe(campus.cs_monitor, client))
        manager.register(TracerouteModule(campus.monitor, client))
        runs = manager.run_until(campus.sim.now + 1200.0)
        assert len(runs) == 3
        # Correlation ran after each module: gateway records exist and
        # interfaces carry their gateway_id.
        members = [
            record
            for record in journal.all_interfaces()
            if record.gateway_id is not None
        ]
        assert members
        assert (tmp_path / "history.json").exists()


class TestFeedDrivenPipeline:
    def _campaign(self, *, batch=False, full=False):
        campus = build_campus(SMALL_PROFILE)
        journal = Journal(clock=lambda: campus.sim.now)
        client = LocalClient(journal)
        sink = BatchingSink(client, max_batch=32) if batch else client
        campus.network.start_rip()
        campus.set_cs_uptime(1.0)
        correlator = Correlator(journal)
        reports = []
        for module, directive in (
            (RipWatch(campus.monitor, sink), {"duration": 65.0}),
            (EtherHostProbe(campus.cs_monitor, sink), {}),
            (SubnetMaskModule(campus.cs_monitor, sink), {}),
            (TracerouteModule(campus.monitor, sink), {}),
        ):
            module.run(**directive)
            reports.append(correlator.correlate(full=full))
        return journal, reports

    def test_incremental_correlation_matches_full_rescans(self):
        polled_journal, polled_reports = self._campaign()
        rescanned_journal, _ = self._campaign(full=True)
        assert polled_journal.canonical_state() == rescanned_journal.canonical_state()
        # The polling engine degrades to full only on the cold start.
        assert [r.mode for r in polled_reports] == ["full"] + ["incremental"] * 3

    def test_batched_ingest_through_full_campaign(self):
        direct_journal, _ = self._campaign()
        batched_journal, _ = self._campaign(batch=True)
        assert (
            direct_journal.canonical_state() == batched_journal.canonical_state()
        )
        counts = batched_journal.counts()
        assert counts["batches_flushed"] > 0
        assert (
            counts["observations_submitted"]
            == counts["observations_applied"] + counts["observations_coalesced"]
        )


class TestProblemDetectionEndToEnd:
    def test_injected_faults_all_detected(self, small_campus):
        campus = small_campus
        network = campus.network
        journal = Journal(clock=lambda: campus.sim.now)
        client = LocalClient(journal)
        campus.set_cs_uptime(1.0)

        victims = campus.cs_real_hosts()
        duplicate_victim = victims[0]
        mask_victim = victims[1]
        swap_victim = victims[2]
        rip_victim = victims[3]

        from repro.netsim import Netmask

        faults.misconfigure_mask(mask_victim, Netmask.from_prefix(26))
        faults.make_promiscuous_rip(rip_victim)
        network.start_rip()

        # Round 1: learn the original world.
        EtherHostProbe(campus.cs_monitor, client).run()
        SubnetMaskModule(campus.cs_monitor, client).run()
        RipWatch(campus.cs_monitor, client).run(duration=95.0)

        # Inject the temporal faults and observe again.
        faults.inject_duplicate_ip(network, duplicate_victim)
        faults.swap_hardware(network, swap_victim)
        campus.sim.run_for(1500.0)  # let ARP caches age out
        EtherHostProbe(campus.cs_monitor, client).run()
        # The duplicate race: make sure both MACs were recorded at some
        # point by probing twice more.
        EtherHostProbe(campus.cs_monitor, client).run()

        findings = run_all_analyses(journal, stale_horizon=0.0)
        assert findings["inconsistent-netmask"], "mask conflict missed"
        assert findings["promiscuous-rip"], "promiscuous RIP host missed"
        hardware_or_duplicate = (
            findings["hardware-change"] + findings["duplicate-address"]
        )
        subjects = {f.subject for f in hardware_or_duplicate}
        assert str(swap_victim.ip) in subjects or str(duplicate_victim.ip) in subjects
