#!/usr/bin/env python
"""Campus discovery: the paper's evaluation campaign, end to end.

Rebuilds the University-of-Colorado-scale campus (114 subnet numbers
assigned, ~74 gateways, a CS subnet with 56 DNS entries), lets the
Discovery Manager schedule all the Explorer Modules, cross-correlates
the Journal, and renders the network picture: the Table 5/6 style
discovery summary plus the Figure 2 topology map (DOT format, written
next to this script).

Run:  python examples/campus_discovery.py
"""

import os

from repro.core import Journal, LocalClient
from repro.core.correlate import Correlator
from repro.core.explorers import (
    ArpWatch,
    DnsExplorer,
    EtherHostProbe,
    RipWatch,
    SequentialPing,
    SubnetMaskModule,
    TracerouteModule,
)
from repro.core.manager import DiscoveryManager
from repro.core.presentation import render_report
from repro.netsim import TrafficGenerator, build_campus


def main() -> None:
    print("building the campus testbed (114 subnets assigned)...")
    campus = build_campus()
    journal = Journal(clock=lambda: campus.sim.now)
    client = LocalClient(journal)

    campus.network.start_rip()
    campus.set_cs_uptime(0.9)
    traffic = TrafficGenerator(
        campus.network, seed=7, hosts=campus.cs_real_hosts()
    )
    traffic.start()

    nameserver = campus.network.dns.addresses_for(campus.network.dns.nameserver)[0]
    manager = DiscoveryManager(campus.sim, client)
    manager.register(RipWatch(campus.monitor, client), directive={"duration": 120.0})
    manager.register(ArpWatch(campus.cs_monitor, client), directive={"duration": 1800.0})
    manager.register(EtherHostProbe(campus.cs_monitor, client))
    manager.register(
        SequentialPing(campus.cs_monitor, client),
        directive={"subnet": campus.cs_subnet},
    )
    manager.register(SubnetMaskModule(campus.cs_monitor, client))
    manager.register(TracerouteModule(campus.monitor, client))
    manager.register(
        DnsExplorer(campus.monitor, client, nameserver=nameserver,
                    domain="cs.colorado.edu")
    )

    print("running the discovery campaign (simulated time)...")
    for key, result in manager.run_until(campus.sim.now + 5000.0):
        print(f"  {result.summary()}")
    traffic.stop()

    report = Correlator(journal).correlate()
    counts = journal.counts()
    print(
        f"\njournal: {counts['interfaces']} interfaces, "
        f"{counts['gateways']} gateways, {counts['subnets']} subnets"
    )
    print(
        f"correlation: {report.gateways_inferred} inferred, "
        f"{report.gateways_merged} merged, "
        f"{report.subnet_links_added} subnet links added"
    )

    store = journal.topology()
    graph = store.graph()
    components = store.components()
    print(
        f"topology: {len(graph.subnets)} subnets on the map, largest "
        f"connected component spans {len(components[0])}"
    )

    print(f"\n--- the CS subnet ({campus.cs_subnet}) " + "-" * 20)
    print(render_report(journal, "subnet", subnet=str(campus.cs_subnet)))

    out_path = os.path.join(os.path.dirname(__file__), "campus_topology.dot")
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(render_report(journal, "dot") + "\n")
    print(f"\nFigure 2 map written to {out_path} (render with `neato -Tpng`)")


if __name__ == "__main__":
    main()
