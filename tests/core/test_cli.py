"""CLI tests: each subcommand end to end (on a tiny campus)."""

import json

import pytest

from repro.cli import main
from repro.core import Journal
from repro.core.records import Observation


@pytest.fixture
def saved_journal(tmp_path):
    journal = Journal()
    journal.observe_interface(
        Observation(
            source="ARPwatch",
            ip="10.0.1.10",
            mac="08:00:20:00:00:11",
            dns_name="alpha.test",
        )
    )
    journal.observe_interface(
        Observation(source="x", ip="10.0.1.10", mac="08:00:20:00:00:99")
    )
    record, _ = journal.observe_interface(
        Observation(source="RIPwatch", ip="10.0.1.1", rip_source=True,
                    promiscuous_rip=True)
    )
    path = tmp_path / "journal.json"
    journal.save(str(path))
    return str(path)


class TestAnalyze:
    def test_reports_findings(self, saved_journal, capsys):
        assert main(["analyze", saved_journal]) == 0
        out = capsys.readouterr().out
        assert "promiscuous-rip: 1" in out
        assert "total findings:" in out


class TestReport:
    def test_level1(self, saved_journal, capsys):
        assert main(["report", saved_journal]) == 0
        out = capsys.readouterr().out
        assert "10.0.1.10" in out

    def test_level2(self, saved_journal, capsys):
        assert main(["report", saved_journal, "--subnet", "10.0.1.0/24"]) == 0
        out = capsys.readouterr().out
        assert "ETHERNET" in out

    def test_level3(self, saved_journal, capsys):
        assert main(["report", saved_journal, "--ip", "10.0.1.10"]) == 0
        out = capsys.readouterr().out
        assert "quality=good" in out


class TestDumpAndExport:
    def test_dump(self, saved_journal, capsys):
        assert main(["dump", saved_journal]) == 0
        assert "journal dump" in capsys.readouterr().out

    def test_export_dot_stdout(self, saved_journal, capsys):
        assert main(["export", saved_journal, "--format", "dot"]) == 0
        assert "graph fremont" in capsys.readouterr().out

    def test_export_sunnet_to_file(self, saved_journal, tmp_path, capsys):
        out_file = tmp_path / "topology.snm"
        assert main(
            ["export", saved_journal, "--format", "sunnet", "-o", str(out_file)]
        ) == 0
        assert out_file.read_text().startswith("!")


class TestCampus:
    def test_small_campaign_writes_journal(self, tmp_path, capsys, monkeypatch):
        # Shrink the campus so the CLI test stays fast.
        from repro.netsim import campus as campus_module

        small = campus_module.CampusProfile(
            seed=3,
            assigned_subnets=10,
            unconnected_subnets=1,
            dnsless_subnets=1,
            dns_gateway_mix=((1, 2),),
            plain_gateway_mix=((2, 2),),
            buggy_gateway_mix=((1, 2),),
            cs_octet=5,
            cs_registered_hosts=6,
            cs_stale_hosts=1,
        )
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module, "CampusProfile", lambda seed: small)
        out = tmp_path / "campus.json"
        state = tmp_path / "state.json"
        assert main(
            [
                "campus",
                "--seed", "3",
                "--duration", "2500",
                "--output", str(out),
                "--state", str(state),
            ]
        ) == 0
        assert out.exists()
        loaded = Journal.load(str(out))
        assert loaded.counts()["interfaces"] > 0
        manager_state = json.loads(state.read_text())
        assert manager_state["format"] == "fremont-manager-2"
        printed = capsys.readouterr().out
        assert "journal:" in printed


class TestInquiryCommands:
    @pytest.fixture
    def routed_journal(self, tmp_path):
        journal = Journal()
        a, _ = journal.observe_interface(
            Observation(source="probe", ip="10.0.0.1",
                        subnet_mask="255.255.255.0")
        )
        b, _ = journal.observe_interface(
            Observation(source="probe", ip="10.0.1.1",
                        subnet_mask="255.255.255.0",
                        dns_name="gw.test")
        )
        journal.ensure_gateway(
            source="probe", name="gw",
            interface_ids=[a.record_id, b.record_id],
        )
        path = tmp_path / "routed.json"
        journal.save(str(path))
        return str(path)

    def test_route_command(self, routed_journal, capsys):
        code = main(["route", routed_journal, "10.0.0.0/24", "10.0.1.0/24"])
        out = capsys.readouterr().out
        assert code == 0
        assert "designed route" in out
        assert "gw" in out

    def test_route_unreachable_exit_code(self, routed_journal, capsys):
        code = main(["route", routed_journal, "10.0.0.0/24", "172.16.0.0/24"])
        assert code == 1
        assert "no discovered route" in capsys.readouterr().out

    def test_whereis_command(self, routed_journal, capsys):
        assert main(["whereis", routed_journal, "gw.test"]) == 0
        out = capsys.readouterr().out
        assert "10.0.1.1" in out
        assert "subnet: 10.0.1.0/24" in out

    def test_whereis_unknown(self, routed_journal, capsys):
        assert main(["whereis", routed_journal, "10.9.9.9"]) == 1

    def test_utilization_command(self, routed_journal, capsys):
        assert main(["utilization", routed_journal]) == 0
        out = capsys.readouterr().out
        assert "10.0.0.0/24" in out
        assert "subnet(s) reported" in out

    def test_export_svg(self, routed_journal, capsys):
        assert main(["export", routed_journal, "--format", "svg"]) == 0
        assert "<svg" in capsys.readouterr().out


class TestReplicateCommand:
    def test_push_between_two_servers(self, capsys):
        from repro.core import JournalServer
        from repro.core.records import Observation as Obs

        source_journal = Journal()
        source_journal.observe_interface(Obs(source="x", ip="10.0.0.1"))
        target_journal = Journal()
        source_server = JournalServer(source_journal).start()
        target_server = JournalServer(target_journal).start()
        try:
            source_endpoint = "%s:%d" % source_server.address
            target_endpoint = "%s:%d" % target_server.address
            assert main(["replicate", source_endpoint, target_endpoint]) == 0
        finally:
            source_server.stop()
            target_server.stop()
        assert target_journal.counts()["interfaces"] == 1
        assert "pushed" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestFleetStats:
    def test_multi_target_renders_merged_table(self, capsys):
        from repro.core import JournalServer
        from repro.core.records import Observation as Obs

        journals = [Journal(), Journal()]
        journals[0].observe_interface(Obs(source="x", ip="10.0.0.1"))
        servers = [JournalServer(j).start() for j in journals]
        try:
            endpoints = ["%s:%d" % s.address for s in servers]
            assert main(["stats"] + endpoints) == 0
            out = capsys.readouterr().out
            # One column per shard plus the totals column.
            header = out.splitlines()[0]
            for endpoint in endpoints:
                assert endpoint in header
            assert "total" in header
            assert "fremont_journal_revision" in out
        finally:
            for server in servers:
                server.stop()

    def test_shard_url_form(self, capsys):
        from repro.core import JournalServer

        journals = [Journal(), Journal()]
        servers = [JournalServer(j).start() for j in journals]
        try:
            spec = "shard://" + ",".join("%s:%d" % s.address for s in servers)
            assert main(["stats", spec]) == 0
            assert "total" in capsys.readouterr().out
        finally:
            for server in servers:
                server.stop()


def _shard_journals(count):
    """Journals seated as the shards of a *count*-shard fleet, as
    ``serve --shard K/N`` seats them: a router's handshake refuses a
    shard that issued ids unseated."""
    from repro.core import ShardMap

    journals = [Journal() for _ in range(count)]
    for index, journal in enumerate(journals):
        assert journal.seat(ShardMap(count).identity(index))
    return journals


class TestShardedServeAndQuery:
    def test_query_scatter_gathers_across_shards(self, capsys):
        from repro.core import JournalServer
        from repro.core.records import Observation as Obs

        journals = _shard_journals(2)
        journals[0].observe_interface(Obs(source="x", ip="10.1.1.1"))
        journals[1].observe_interface(Obs(source="x", ip="10.2.2.2"))
        servers = [JournalServer(j).start() for j in journals]
        try:
            spec = "shard://" + ",".join("%s:%d" % s.address for s in servers)
            assert main(["query", spec]) == 0
            out = capsys.readouterr().out
            assert "10.1.1.1" in out
            assert "10.2.2.2" in out
            assert "2 record(s)" in out
        finally:
            for server in servers:
                server.stop()

    def test_dump_live_sharded_fleet(self, capsys):
        from repro.core import JournalServer
        from repro.core.records import Observation as Obs

        journals = _shard_journals(2)
        journals[0].observe_interface(Obs(source="x", ip="10.1.1.1"))
        journals[1].observe_interface(Obs(source="x", ip="10.2.2.2"))
        servers = [JournalServer(j).start() for j in journals]
        try:
            spec = "shard://" + ",".join("%s:%d" % s.address for s in servers)
            assert main(["dump", spec]) == 0
            out = capsys.readouterr().out
            assert "10.1.1.1" in out
            assert "10.2.2.2" in out
        finally:
            for server in servers:
                server.stop()

    def test_serve_rejects_bad_shard_spec(self, tmp_path):
        with pytest.raises(ValueError):
            main(["serve", "--shard", "5/2", "--port", "0"])


def _topology_journal(tmp_path):
    """Three subnets in a line behind gw-a and gw-b, saved to disk."""
    journal = Journal()
    journal.observe_interface(
        Observation(source="probe", ip="10.0.1.5", mac="08:00:20:00:00:05")
    )
    journal.observe_interface(
        Observation(source="probe", ip="10.0.3.7", mac="08:00:20:00:00:07")
    )
    a, _ = journal.ensure_gateway(source="RIPwatch", name="gw-a")
    for key in ("10.0.1.0/24", "10.0.2.0/24"):
        journal.link_gateway_subnet(a.record_id, key, source="RIPwatch")
    b, _ = journal.ensure_gateway(source="Traceroute", name="gw-b")
    for key in ("10.0.2.0/24", "10.0.3.0/24"):
        journal.link_gateway_subnet(b.record_id, key, source="Traceroute")
    path = tmp_path / "topology.json"
    journal.save(str(path))
    return str(path)


class TestPathAndImpact:
    def test_path_on_saved_journal(self, tmp_path, capsys):
        saved = _topology_journal(tmp_path)
        assert main(["path", saved, "10.0.1.0/24", "10.0.3.0/24"]) == 0
        out = capsys.readouterr().out
        assert "found" in out
        assert "gw-a" in out and "gw-b" in out
        assert "[+ RIPwatch]" in out

    def test_path_not_found_exits_one(self, tmp_path, capsys):
        saved = _topology_journal(tmp_path)
        assert main(["path", saved, "10.0.1.0/24", "99.0.0.0/24"]) == 1
        assert "unknown node" in capsys.readouterr().out

    def test_impact_on_saved_journal(self, tmp_path, capsys):
        saved = _topology_journal(tmp_path)
        assert main(["impact", saved, "gw-b"]) == 0
        out = capsys.readouterr().out
        assert "single point of failure" in out
        assert "10.0.3.0/24" in out

    def test_impact_unknown_target_exits_one(self, tmp_path, capsys):
        saved = _topology_journal(tmp_path)
        assert main(["impact", saved, "no-such-node"]) == 1

    def test_path_against_live_server(self, tmp_path, capsys):
        from repro.core import JournalServer

        journal = Journal.load(_topology_journal(tmp_path))
        server = JournalServer(journal).start()
        try:
            endpoint = "%s:%d" % server.address
            assert main(["path", endpoint, "10.0.1.0/24", "10.0.3.0/24"]) == 0
            assert "gw-b" in capsys.readouterr().out
        finally:
            server.stop()

    def test_path_and_impact_against_replica_list(self, tmp_path, capsys):
        """A replicated target (``primary|standby``) answers the topology
        queries through FailoverClient; the standby need not be up."""
        import socket

        from repro.core import JournalServer

        journal = Journal.load(_topology_journal(tmp_path))
        server = JournalServer(journal).start()
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        try:
            host, port = server.address
            spec = f"{host}:{port}|{host}:{dead_port}"
            assert main(["path", spec, "10.0.1.0/24", "10.0.3.0/24"]) == 0
            out = capsys.readouterr().out
            assert "gw-a" in out and "gw-b" in out
            assert main(["impact", spec, "gw-b"]) == 0
            out = capsys.readouterr().out
            assert "single point of failure" in out
            assert "10.0.3.0/24" in out
        finally:
            server.stop()

    def test_path_and_impact_across_live_sharded_fleet(self, capsys):
        """The acceptance walk: each shard holds half the topology; the
        router merges per-shard subgraphs and answers from the whole."""
        from repro.core import JournalServer

        journals = _shard_journals(2)
        a, _ = journals[0].ensure_gateway(source="RIPwatch", name="gw-a")
        for key in ("10.0.1.0/24", "10.0.2.0/24"):
            journals[0].link_gateway_subnet(a.record_id, key, source="RIPwatch")
        b, _ = journals[1].ensure_gateway(source="Traceroute", name="gw-b")
        for key in ("10.0.2.0/24", "10.0.3.0/24"):
            journals[1].link_gateway_subnet(
                b.record_id, key, source="Traceroute"
            )
        journals[1].observe_interface(
            Observation(source="probe", ip="10.0.3.9", mac="08:00:20:00:00:09")
        )
        servers = [JournalServer(j).start() for j in journals]
        try:
            spec = "shard://" + ",".join("%s:%d" % s.address for s in servers)
            assert main(["path", spec, "10.0.1.0/24", "10.0.3.0/24"]) == 0
            out = capsys.readouterr().out
            assert "gw-a" in out and "gw-b" in out
            assert main(["impact", spec, "gw-b"]) == 0
            out = capsys.readouterr().out
            assert "single point of failure" in out
            assert "10.0.3.0/24" in out
        finally:
            for server in servers:
                server.stop()


class TestReportRegistryCli:
    def test_report_list(self, capsys):
        assert main(["report", "--list"]) == 0
        out = capsys.readouterr().out
        assert "topology" in out
        assert "path (a, b)" in out

    def test_report_by_name(self, tmp_path, capsys):
        saved = _topology_journal(tmp_path)
        assert main(["report", saved, "topology"]) == 0
        out = capsys.readouterr().out
        assert "gw-a --[+ RIPwatch]-- 10.0.1.0/24" in out

    def test_report_with_params(self, tmp_path, capsys):
        saved = _topology_journal(tmp_path)
        assert main([
            "report", saved, "path",
            "--param", "a=10.0.1.0/24", "--param", "b=10.0.3.0/24",
        ]) == 0
        assert "found" in capsys.readouterr().out

    def test_report_unknown_name_exits_two(self, tmp_path, capsys):
        saved = _topology_journal(tmp_path)
        assert main(["report", saved, "nosuch"]) == 2
        assert "unknown report" in capsys.readouterr().err

    def test_report_without_journal_exits_two(self, capsys):
        assert main(["report"]) == 2

    def test_analyze_list(self, capsys):
        assert main(["analyze", "--list"]) == 0
        out = capsys.readouterr().out
        assert "promiscuous-rip" in out
        assert "single-point-of-failure" in out

    def test_analyze_reports_topology_findings(self, tmp_path, capsys):
        saved = _topology_journal(tmp_path)
        assert main(["analyze", saved]) == 0
        out = capsys.readouterr().out
        assert "single-point-of-failure: 2" in out
