"""Table 7 — Characteristics discovered by the prototype.

Paper: interfaces (Ethernet address, IP address, name, subnet mask,
gateway membership); gateways (interfaces on gateway, subnets
connected); subnets (gateways on subnet) — "sufficient to provide
detailed network maps".

A full campaign runs on the campus and the benchmark checks that every
characteristic is populated in the Journal for a substantial share of
records, then times the cross-correlation pass that assembles the
picture.
"""

from __future__ import annotations

import pytest

from repro.core.correlate import Correlator
from repro.core.explorers import (
    ArpWatch,
    DnsExplorer,
    EtherHostProbe,
    RipWatch,
    SubnetMaskModule,
    TracerouteModule,
)
from repro.netsim import TrafficGenerator

from . import paper


@pytest.fixture
def discovered_campus(campus, campus_journal):
    journal, client = campus_journal
    campus.network.start_rip()
    campus.set_cs_uptime(0.95)
    traffic = TrafficGenerator(campus.network, seed=11, hosts=campus.cs_real_hosts())
    traffic.start()
    watcher = ArpWatch(campus.cs_monitor, client)
    watcher.start()
    campus.sim.run_for(3600.0)
    watcher.stop()
    traffic.stop()
    RipWatch(campus.monitor, client).run(duration=65.0)
    EtherHostProbe(campus.cs_monitor, client).run()
    TracerouteModule(campus.monitor, client).run()
    SubnetMaskModule(campus.cs_monitor, client).run()
    nameserver = campus.network.dns.addresses_for(campus.network.dns.nameserver)[0]
    DnsExplorer(
        campus.monitor, client, nameserver=nameserver, domain="cs.colorado.edu"
    ).run()
    return campus, journal


class TestTable7:
    def test_all_characteristics_populated(self, discovered_campus, benchmark):
        campus, journal = discovered_campus
        report = benchmark.pedantic(
            lambda: Correlator(journal).correlate(), rounds=1, iterations=1
        )

        interfaces = journal.all_interfaces()
        gateways = journal.all_gateways()
        subnets = journal.all_subnets()

        def fraction(predicate, population):
            population = list(population)
            if not population:
                return 0.0
            return sum(1 for item in population if predicate(item)) / len(population)

        with_mac = fraction(lambda r: r.mac is not None, interfaces)
        with_ip = fraction(lambda r: r.ip is not None, interfaces)
        with_name = fraction(lambda r: r.dns_name is not None, interfaces)
        with_mask = fraction(lambda r: r.subnet_mask is not None, interfaces)
        gateway_members = sum(1 for r in interfaces if r.gateway_id is not None)
        gateways_with_interfaces = fraction(lambda g: g.interface_ids, gateways)
        gateways_with_subnets = fraction(lambda g: g.connected_subnets, gateways)
        subnets_with_gateways = fraction(lambda s: s.gateway_ids, subnets)

        paper.report(
            "Table 7: characteristics discovered by the prototype",
            [
                ("interfaces recorded", "(all on subnet + routers)", len(interfaces)),
                ("interface: Ethernet address", "discovered", f"{with_mac:.0%}"),
                ("interface: IP address", "discovered", f"{with_ip:.0%}"),
                ("interface: DNS name", "discovered", f"{with_name:.0%}"),
                ("interface: subnet mask", "discovered", f"{with_mask:.0%}"),
                ("interface: gateway membership", "discovered", gateway_members),
                ("gateway: interfaces on gw", "discovered",
                 f"{gateways_with_interfaces:.0%} of {len(gateways)}"),
                ("gateway: subnets connected", "discovered",
                 f"{gateways_with_subnets:.0%}"),
                ("subnet: gateways on subnet", "discovered",
                 f"{subnets_with_gateways:.0%} of {len(subnets)}"),
            ],
        )

        # Every Table 7 characteristic must be represented.
        assert with_mac > 0.2
        assert with_ip > 0.95
        assert with_name > 0.1
        assert with_mask > 0.3
        assert gateway_members > 50
        assert gateways_with_interfaces == 1.0
        assert gateways_with_subnets > 0.9
        assert subnets_with_gateways > 0.7

    def test_topology_assembly_speed(self, discovered_campus, benchmark):
        campus, journal = discovered_campus
        Correlator(journal).correlate()
        graph = benchmark(lambda: journal.topology().graph())
        # The map covers the campus: at least the traceroute-visible
        # subnets are present and connected.
        assert len(graph.subnets) >= len(campus.traceroute_visible_subnets())
        components = journal.topology().components()
        assert len(components[0]) >= len(campus.traceroute_visible_subnets())
