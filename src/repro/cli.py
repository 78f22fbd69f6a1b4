"""Command-line interface: ``fremont`` / ``python -m repro``.

Subcommands mirror the paper's programs:

* ``campus``   — build the synthetic campus, run a discovery campaign,
  and save the resulting Journal (the end-to-end Figure 1 pipeline);
* ``analyze``  — run the Table 8 problem finders over a saved Journal;
* ``report``   — the three-level interface browser (presentation
  program 2);
* ``dump``     — the flat Journal dump (presentation program 1);
* ``export``   — the topology exporters (presentation program 3 /
  Figure 2), in SunNet-Manager-style or DOT format;
* ``serve``    — run a standalone Journal Server on a TCP port
  (optionally exposing Prometheus metrics on ``--metrics-port``);
* ``stats``    — live telemetry from a running Journal Server (the
  ``metrics`` wire op rendered as a terminal dashboard);
* ``query``    — predicate queries against a saved Journal *or* a live
  server (the ``query`` wire op): filter by subnet, MAC vendor,
  staleness, confidence, or exact field values, combinable with AND;
* ``path``     — confidence-weighted shortest path between two points
  of the discovered topology (saved Journal, live server, or sharded
  fleet — the ``path`` wire op);
* ``impact``   — blast radius of losing a subnet or gateway (the
  ``impact`` wire op).

``report`` dispatches through the presentation registry: any report
registered with :func:`repro.core.presentation.register_report` is
reachable as ``fremont report JOURNAL NAME --param key=value``, and
``--list`` enumerates them.  ``analyze --list`` does the same for the
analysis-program registry.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import Journal, JournalServer, connect
from .core.analysis import (
    address_space_report,
    analysis_programs,
    run_all_analyses,
)
from .core.correlate import Correlator
from .core.inquiry import NetworkPicture
from .core.explorers import (
    ArpWatch,
    DnsExplorer,
    EtherHostProbe,
    RipWatch,
    SequentialPing,
    SubnetMaskModule,
    TracerouteModule,
)
from .core.manager import DiscoveryManager
from .core.presentation import (
    list_reports,
    render_impact,
    render_path,
    render_report,
)
from .netsim import TrafficGenerator, build_campus
from .netsim.campus import CampusProfile

__all__ = ["main"]


def _cmd_campus(args: argparse.Namespace) -> int:
    campus = build_campus(CampusProfile(seed=args.seed))
    journal = Journal(clock=lambda: campus.sim.now)
    client = connect(journal)
    campus.network.start_rip()
    campus.set_cs_uptime(0.9)
    traffic = TrafficGenerator(
        campus.network, seed=args.seed, hosts=campus.cs_real_hosts()
    )
    traffic.start()

    nameserver = campus.network.dns.addresses_for(campus.network.dns.nameserver)[0]
    manager = DiscoveryManager(campus.sim, client, state_path=args.state)
    manager.register(RipWatch(campus.monitor, client), directive={"duration": 120.0})
    manager.register(ArpWatch(campus.cs_monitor, client), directive={"duration": 1800.0})
    manager.register(EtherHostProbe(campus.cs_monitor, client))
    manager.register(SequentialPing(campus.cs_monitor, client))
    manager.register(SubnetMaskModule(campus.cs_monitor, client))
    manager.register(TracerouteModule(campus.monitor, client))
    manager.register(
        DnsExplorer(
            campus.monitor, client, nameserver=nameserver, domain="cs.colorado.edu"
        )
    )
    runs = manager.run_until(campus.sim.now + args.duration)
    for key, result in runs:
        print(result.summary())
    Correlator(journal).correlate()
    print(f"journal: {journal.counts()}")
    if args.output:
        journal.save(args.output)
        print(f"journal written to {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.list:
        for name in analysis_programs():
            print(name)
        return 0
    if args.journal is None:
        print("analyze: a journal is required (or --list)", file=sys.stderr)
        return 2
    journal = Journal.load(args.journal)
    findings = run_all_analyses(journal, stale_horizon=args.stale_horizon)
    total = 0
    for kind, items in findings.items():
        print(f"{kind}: {len(items)}")
        for finding in items:
            print(f"  {finding}")
        total += len(items)
    print(f"total findings: {total}")
    return 0


def _parse_params(specs) -> dict:
    """``k=v`` pairs from repeated ``--param``; digit values become
    ints (the svg report's width/height/seed)."""
    params = {}
    for spec in specs or ():
        name, sep, value = spec.partition("=")
        if not sep:
            raise SystemExit(f"--param wants name=value, got {spec!r}")
        params[name] = int(value) if value.isdigit() else value
    return params


def _cmd_report(args: argparse.Namespace) -> int:
    if args.list:
        for report in list_reports():
            params = (
                " ({})".format(", ".join(report.params)) if report.params else ""
            )
            print(f"{report.name}{params}: {report.description}")
        return 0
    if args.journal is None:
        print("report: a journal is required (or --list)", file=sys.stderr)
        return 2
    journal = Journal.load(args.journal)
    if args.name:
        try:
            params = _parse_params(args.param)
            print(render_report(journal, args.name, **params))
        except ValueError as reason:
            print(f"report: {reason}", file=sys.stderr)
            return 2
        return 0
    # Legacy three-level browser flags, now routed through the registry.
    if args.ip:
        print(render_report(journal, "interface", ip=args.ip))
    elif args.subnet:
        print(render_report(journal, "subnet", subnet=args.subnet))
    else:
        print(render_report(journal, "interfaces", network=args.network))
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    source = _journal_source(args.journal)
    if isinstance(source, Journal):
        journal = source
    else:
        # Every client snapshots what its target knows: one server's
        # journal, or a sharded router's whole fleet.
        with connect(source) as client:
            journal = client.snapshot()
    print(render_report(journal, "dump"))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    journal = Journal.load(args.journal)
    text = render_report(journal, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    journal = Journal.load(args.journal)
    Correlator(journal).correlate()
    picture = NetworkPicture(journal)
    route = picture.route_between(args.source, args.destination)
    print(route.describe())
    suspects = route.suspects(silent_threshold=args.silent_threshold)
    for hop in suspects:
        print(
            f"SUSPECT: gateway '{hop.gateway_name}' on the "
            f"{hop.from_subnet} -> {hop.to_subnet} hop has gone silent"
        )
    return 0 if route.reachable else 1


def _topology_client(spec: str):
    """A client whose ``path``/``impact`` answer for *spec*: a saved
    Journal (correlated first, like ``route``), a ``host:port`` server,
    or a ``shard://`` fleet."""
    source = _journal_source(spec)
    if isinstance(source, Journal):
        Correlator(source).correlate()
    return connect(source)


def _cmd_path(args: argparse.Namespace) -> int:
    with _topology_client(args.target) as client:
        path = client.path(args.source, args.destination)
    print(render_path(path))
    if getattr(client, "partial", False):
        print(f"WARNING: partial answer; unreachable shards: "
              f"{client.missing_shards}", file=sys.stderr)
    return 0 if path.found else 1


def _cmd_impact(args: argparse.Namespace) -> int:
    with _topology_client(args.target) as client:
        impact = client.impact(args.what)
    print(render_impact(impact))
    if getattr(client, "partial", False):
        print(f"WARNING: partial answer; unreachable shards: "
              f"{client.missing_shards}", file=sys.stderr)
    return 0 if impact.found else 1


def _cmd_whereis(args: argparse.Namespace) -> int:
    journal = Journal.load(args.journal)
    picture = NetworkPicture(journal)
    records = picture.where_is(args.what)
    if not records:
        print(f"nothing known about {args.what}")
        return 1
    for record in records:
        print(record.describe())
    subnet = picture.subnet_of(args.what)
    if subnet is not None:
        print(f"subnet: {subnet}")
    last = picture.last_seen(args.what)
    if last is not None:
        print(f"last live verification: {last:.0f}s ago")
    else:
        print("never verified by a live probe (DNS data only)")
    return 0


def _cmd_utilization(args: argparse.Namespace) -> int:
    journal = Journal.load(args.journal)
    rows = address_space_report(journal, stale_horizon=args.stale_horizon)
    for row in rows:
        print(row.describe())
    print(f"{len(rows)} subnet(s) reported")
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    """One replication pass between two running Journal Servers."""
    from .core.replicate import JournalReplicator

    with connect(args.source) as source, connect(args.target) as target:
        replicator = JournalReplicator(source, target)
        stats = replicator.sync(full=True)
    print(
        f"pushed {stats.records_sent} record(s); "
        f"{stats.records_changed} changed on the target"
    )
    return 0


def _journal_source(spec: str):
    """``host:port`` (or a ``shard://`` / comma-separated multi-target)
    means live server(s); anything else is a saved file."""
    import os

    if spec.startswith("shard://") or ("," in spec and not os.path.exists(spec)):
        return spec
    _host, sep, port = spec.rpartition(":")
    if sep and port.isdigit() and not os.path.exists(spec):
        return spec
    return Journal.load(spec)


def _cmd_query(args: argparse.Namespace) -> int:
    """Predicate query over a saved Journal or a running server."""
    from .core import query as q

    terms = []
    if args.subnet:
        terms.append(q.InSubnet(args.subnet))
    if args.mac_prefix:
        terms.append(q.MacPrefix(args.mac_prefix))
    if args.vendor:
        terms.append(q.MacPrefix.vendor(args.vendor))
    if args.modified_since is not None:
        terms.append(q.ModifiedSince(args.modified_since))
    if args.stale is not None:
        terms.append(q.Stale(args.stale))
    if args.confidence:
        terms.append(q.Confidence(args.confidence))
    if args.since_revision is not None:
        terms.append(q.SinceRevision(args.since_revision))
    for spec in args.field or ():
        name, sep, value = spec.partition("=")
        if not sep:
            print(f"--field wants name=value, got {spec!r}", file=sys.stderr)
            return 2
        terms.append(q.FieldEquals(name, value))
    where = None
    for term in terms:
        where = term if where is None else (where & term)
    with connect(_journal_source(args.journal)) as client:
        records = client.query(args.kind, where)
    for record in records:
        print(record.describe())
    print(f"{len(records)} record(s)")
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    """Manually promote a replica to primary (see README 'Failover'
    runbook).  The promotion moves the shard's fencing epoch forward;
    ex-primaries still running at the old epoch reject stamped writes
    and step down on first contact with a current client."""
    from .core import RemoteClient

    host, _sep, port = args.address.rpartition(":")
    with RemoteClient(host or "127.0.0.1", int(port)) as client:
        before = client.replica_info() or {}
        epoch = client.promote(args.epoch)
        print(
            f"promoted {args.address}: {before.get('role', 'unknown')} "
            f"(epoch {before.get('epoch', 0)}) -> primary (epoch {epoch})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    shard_identity = None
    if args.shard:
        from .core.shard import ShardMap, parse_shard_spec

        index, total = parse_shard_spec(args.shard)
        shard_identity = ShardMap(total).identity(index)

    store = None
    if args.durable:
        from repro.core import JournalStore
        from repro.core.durability import shard_store_path

        durable_dir = args.durable
        if shard_identity is not None:
            # Each shard of a fleet owns its own WAL/checkpoint
            # directory under the shared base, so shards never contend
            # for (or corrupt) one another's logs and a single shard
            # can be killed and recovered independently.
            durable_dir = shard_store_path(durable_dir, shard_identity["index"])
        store = JournalStore(durable_dir, fsync=args.fsync)
        journal = store.recover(clock=time.time)
        report = store.last_recovery
        print(
            f"recovered {report.recovered_records} WAL record(s)"
            + (" from checkpoint" if report.checkpoint_loaded else "")
            + (f"; quarantined {report.quarantined}" if report.quarantined else "")
        )
    elif args.journal:
        # A corrupt file is a logged warning + empty journal, not a
        # refusal to start.
        journal = Journal.load_or_empty(args.journal, clock=time.time)
    else:
        journal = Journal(clock=time.time)
    if shard_identity is not None and journal.seat(shard_identity) != shard_identity:
        if store is not None:
            store.close(checkpoint=False)
        raise ValueError(
            f"shard {args.shard} handshake mismatch: the journal holds "
            + (f"shard identity {journal.shard}" if journal.shard else "ids issued unseated")
        )
    replica = None
    if args.standby_of:
        from repro.core import StandbyReplica

        replica = StandbyReplica(
            args.standby_of,
            journal=journal,
            store=store,
            host=args.host,
            port=args.port,
            server_options={"max_workers": args.workers},
        )
        server = replica.server
    else:
        server = JournalServer(
            journal, host=args.host, port=args.port, max_workers=args.workers
        )
    server.persist_path = args.persist
    if replica is not None:
        replica.start()
    else:
        server.start()
    host, port = server.address
    shard_note = (
        f" [shard {shard_identity['index']}/{shard_identity['shards']}]"
        if shard_identity is not None
        else ""
    )
    standby_note = (
        f" [standby of {replica.primary_address[0]}:{replica.primary_address[1]},"
        f" epoch {replica.epoch}]"
        if replica is not None
        else ""
    )
    print(
        f"journal server listening on {host}:{port}"
        f"{shard_note}{standby_note} (ctrl-c to stop)"
    )
    exporter = None
    if args.metrics_port is not None:
        from repro.core import MetricsExporter

        exporter = MetricsExporter(
            journal.telemetry, host=args.host, port=args.metrics_port
        )
        exporter.start()
        metrics_host, metrics_port = exporter.address
        print(f"prometheus metrics on http://{metrics_host}:{metrics_port}/metrics")
    try:
        announced_promotion = False
        while True:
            time.sleep(1.0)
            if (
                replica is not None
                and not announced_promotion
                and replica.role == "primary"
            ):
                announced_promotion = True
                print(f"promoted to primary (epoch {replica.epoch})")
    except KeyboardInterrupt:
        pass
    finally:
        if exporter is not None:
            exporter.stop()
        if replica is not None:
            replica.stop()
        else:
            server.stop()
        if store is not None:
            store.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Telemetry dashboard for a running Journal Server — or, given
    several targets (or a ``shard://`` list), one merged table with a
    column per shard and a totals column."""
    import time

    from .core.client import RemoteClient, parse_replica_targets
    from .core.telemetry import render_fleet_stats, render_stats

    groups = [
        group for spec in args.address for group in parse_replica_targets(spec)
    ]
    if len(groups) == 1 and len(groups[0]) == 1:
        host, port = groups[0][0]
        with connect(f"{host}:{port}") as client:
            try:
                while True:
                    snapshot = client.metrics(spans=args.spans)
                    text = render_stats(snapshot, spans=args.spans)
                    if not args.watch:
                        print(text)
                        return 0
                    # Clear and repaint, terminal-dashboard style.
                    print("\x1b[2J\x1b[H" + text, flush=True)
                    time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0

    # A fleet: one column per shard.  Each shard is asked via the first
    # member of its replica group that answers; a fully unreachable
    # shard keeps its column as an explicit DOWN row (with the epoch it
    # was last seen at) instead of silently dropping out of the table.
    names = [f"{group[0][0]}:{group[0][1]}" for group in groups]
    last_epoch = [0] * len(groups)

    def probe_group(index):
        """(snapshot, down) for shard *index* via any live member."""
        for host, port in groups[index]:
            client = None
            try:
                client = RemoteClient(
                    host, port, timeout=2.0, reconnect_attempts=1
                )
                info = client.replica_info() or {}
                last_epoch[index] = max(
                    last_epoch[index], int(info.get("epoch", 0))
                )
                return client.metrics(spans=0), False
            except (OSError, ConnectionError, TimeoutError, RuntimeError):
                continue
            finally:
                if client is not None:
                    try:
                        client.close()
                    except (OSError, ConnectionError):
                        pass
        return {}, True

    try:
        while True:
            snapshots = []
            down = {}
            for index in range(len(groups)):
                snapshot, is_down = probe_group(index)
                snapshots.append(snapshot)
                if is_down:
                    down[index] = last_epoch[index]
            text = render_fleet_stats(snapshots, names, down=down)
            if not args.watch:
                print(text)
                return 0
            print("\x1b[2J\x1b[H" + text, flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fremont",
        description="Fremont: discovering network characteristics and problems "
        "(USENIX 1993 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    campus = commands.add_parser("campus", help="run a discovery campaign")
    campus.add_argument("--seed", type=int, default=1993)
    campus.add_argument("--duration", type=float, default=4000.0,
                        help="simulated seconds of discovery to schedule")
    campus.add_argument("--state", default=None,
                        help="Discovery Manager startup/history file")
    campus.add_argument("--output", "-o", default=None,
                        help="write the resulting journal here (JSON)")
    campus.set_defaults(func=_cmd_campus)

    analyze = commands.add_parser("analyze", help="find network problems")
    analyze.add_argument("journal", nargs="?", default=None)
    analyze.add_argument("--stale-horizon", type=float, default=0.0)
    analyze.add_argument("--list", action="store_true",
                         help="list the registered analysis programs")
    analyze.set_defaults(func=_cmd_analyze)

    report = commands.add_parser(
        "report", help="registry-dispatched reports (default: interface browser)"
    )
    report.add_argument("journal", nargs="?", default=None)
    report.add_argument(
        "name", nargs="?", default=None,
        help="report name from the registry (see --list); omitted: the "
        "classic three-level interface browser driven by the flags below",
    )
    report.add_argument("--param", action="append", metavar="NAME=VALUE",
                        help="report parameter (repeatable)")
    report.add_argument("--list", action="store_true",
                        help="list the registered reports and their parameters")
    report.add_argument("--network", default=None, help="filter by prefix text")
    report.add_argument("--subnet", default=None, help="level 2: one subnet")
    report.add_argument("--ip", default=None, help="level 3: one interface")
    report.set_defaults(func=_cmd_report)

    dump = commands.add_parser("dump", help="flat journal dump")
    dump.add_argument(
        "journal",
        help="saved journal path, host:port of a running server, or a "
        "shard://... fleet (dumped through an aggregate snapshot)",
    )
    dump.set_defaults(func=_cmd_dump)

    export = commands.add_parser("export", help="topology export (Figure 2)")
    export.add_argument("journal")
    export.add_argument("--format", choices=("sunnet", "dot", "svg"), default="dot")
    export.add_argument("--output", "-o", default=None)
    export.set_defaults(func=_cmd_export)

    route = commands.add_parser(
        "route", help="the designed route between two subnets (inquiry agent)"
    )
    route.add_argument("journal")
    route.add_argument("source", help="source subnet, e.g. 128.138.1.0/24")
    route.add_argument("destination", help="destination subnet")
    route.add_argument("--silent-threshold", type=float, default=600.0)
    route.set_defaults(func=_cmd_route)

    path = commands.add_parser(
        "path",
        help="confidence-weighted route between two topology endpoints",
    )
    path.add_argument(
        "target",
        help="saved journal path, host:port of a running server, or a "
        "shard://... fleet (answered from the merged fleet topology)",
    )
    path.add_argument("source", help="subnet, gateway name, or interface IP")
    path.add_argument("destination", help="subnet, gateway name, or interface IP")
    path.set_defaults(func=_cmd_path)

    impact = commands.add_parser(
        "impact",
        help="blast radius if a subnet or gateway fails (articulation analysis)",
    )
    impact.add_argument(
        "target",
        help="saved journal path, host:port of a running server, or a "
        "shard://... fleet",
    )
    impact.add_argument("what", help="subnet, gateway name, or interface IP")
    impact.set_defaults(func=_cmd_impact)

    whereis = commands.add_parser(
        "whereis", help="locate a host by address or DNS name"
    )
    whereis.add_argument("journal")
    whereis.add_argument("what", help="IP address or DNS name")
    whereis.set_defaults(func=_cmd_whereis)

    utilization = commands.add_parser(
        "utilization", help="per-subnet address-space usage and reclaim candidates"
    )
    utilization.add_argument("journal")
    utilization.add_argument("--stale-horizon", type=float, default=0.0)
    utilization.set_defaults(func=_cmd_utilization)

    replicate = commands.add_parser(
        "replicate", help="push one Journal Server's records to another"
    )
    replicate.add_argument("source", help="host:port of the source server")
    replicate.add_argument("target", help="host:port of the target server")
    replicate.set_defaults(func=_cmd_replicate)

    serve = commands.add_parser("serve", help="run a Journal Server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=3856)
    serve.add_argument("--journal", default=None, help="load this journal at start")
    serve.add_argument("--persist", default=None, help="save here on shutdown")
    serve.add_argument(
        "--durable", default=None, metavar="DIR",
        help="durability directory: recover from (and WAL+checkpoint into) "
        "this directory; takes precedence over --journal (with --shard K/N "
        "the shard uses DIR/shard-K)",
    )
    serve.add_argument(
        "--shard", default=None, metavar="K/N",
        help="serve as shard K of an N-shard fleet (0-based): the journal "
        "issues record ids that name shard K, the shard_info handshake lets "
        "routers verify their shard map, and --durable is scoped to a "
        "per-shard directory",
    )
    serve.add_argument(
        "--fsync", default="interval", choices=["always", "interval", "never"],
        help="WAL fsync policy for --durable (default: %(default)s)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve Prometheus text metrics on this port (0 = ephemeral)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker threads for the server's blocking file work: WAL "
        "fsyncs and checkpoint files (default: %(default)s)",
    )
    serve.add_argument(
        "--standby-of", default=None, metavar="HOST:PORT",
        help="run as a hot-standby replica tailing this primary: serves "
        "reads as a follower, rejects client writes, and is promotable "
        "via 'fremont promote' (or automatically by failover-aware "
        "clients); a non-empty local journal is handed back to the "
        "primary on rejoin",
    )
    serve.set_defaults(func=_cmd_serve)

    promote = commands.add_parser(
        "promote",
        help="promote a replica to primary (moves the fencing epoch)",
    )
    promote.add_argument("address", help="host:port of the replica to promote")
    promote.add_argument(
        "--epoch", type=int, default=None,
        help="explicit new fencing epoch (default: the server picks its "
        "own epoch + 1); must be beyond every epoch the shard has seen",
    )
    promote.set_defaults(func=_cmd_promote)

    stats = commands.add_parser(
        "stats", help="live telemetry from a running Journal Server"
    )
    stats.add_argument(
        "address", nargs="*", default=["127.0.0.1:3856"],
        help="host:port of the server (default: %(default)s); several "
        "targets (or one shard://h1:p1|r1:q1,h2:p2 replica list) render "
        "a merged per-shard table with totals — unreachable shards show "
        "as an explicit 'DOWN (epoch N)' status cell",
    )
    stats.add_argument("--watch", action="store_true",
                       help="repaint continuously until interrupted")
    stats.add_argument("--interval", type=float, default=2.0,
                       help="refresh period for --watch (default: %(default)ss)")
    stats.add_argument("--spans", type=int, default=12,
                       help="recent spans to show (default: %(default)s)")
    stats.set_defaults(func=_cmd_stats)

    query = commands.add_parser(
        "query", help="predicate query over a journal file or live server"
    )
    query.add_argument(
        "journal",
        help="saved journal path, host:port of a running server, or a "
        "shard://... fleet (queried scatter-gather)",
    )
    query.add_argument(
        "--kind", default="interfaces",
        choices=("interfaces", "gateways", "subnets"),
    )
    query.add_argument("--subnet", default=None, metavar="CIDR",
                       help="IP inside this subnet, e.g. 128.138.2.0/24")
    query.add_argument("--mac-prefix", default=None, metavar="PREFIX",
                       help="Ethernet address prefix, e.g. 08:00:20")
    query.add_argument("--vendor", default=None,
                       help="Ethernet vendor name, e.g. Sun")
    query.add_argument("--modified-since", type=float, default=None,
                       metavar="T", help="modified after this timestamp")
    query.add_argument("--stale", type=float, default=None, metavar="T",
                       help="no live verification since this timestamp")
    query.add_argument("--confidence", default=None,
                       choices=("good", "questionable"),
                       help="worst attribute quality at least this")
    query.add_argument("--since-revision", type=int, default=None,
                       metavar="REV", help="journal revision cursor")
    query.add_argument("--field", action="append", metavar="NAME=VALUE",
                       help="exact field match (repeatable)")
    query.set_defaults(func=_cmd_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into something like `head`; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
