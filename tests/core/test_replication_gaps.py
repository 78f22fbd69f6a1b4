"""Known replication gaps, pinned as strict expected failures.

``Journal.pull`` — what a standby's tail and the router's aggregate view
copy through :class:`~repro.core.replicate.JournalReplicator` — carries
neither deletions nor negative-cache entries.  So a copy that reports
itself caught up can still differ from the journal it copies.  Each
test below states the contract a copy should keep and fails today; the
``strict`` marker turns the day it passes (ROADMAP items 3 and 11: a
standby that replays the write log, a router that stops mirroring the
fleet) into a failure, so the marker comes off with the fix.
"""

import time

import pytest

from repro.core import Journal, JournalServer, RemoteClient, StandbyReplica, connect
from repro.core.records import Observation

pytestmark = pytest.mark.xfail(
    strict=True, reason="Journal.pull carries no deletions or negative-cache entries"
)


def _sighting(ip, mac):
    return Observation(source="gap-test", ip=ip, mac=mac)


@pytest.fixture
def tailed():
    """A primary server, a standby tailing it and a client on the
    primary.  Yields ``(primary journal, standby, client, caught_up)``:
    ``caught_up()`` waits until the standby has replicated every
    revision the primary has handed out."""
    journal = Journal()
    server = JournalServer(journal, port=0)
    server.start()
    host, port = server.address
    try:
        with StandbyReplica((host, port), poll_interval=0.05) as standby, \
                RemoteClient(host, port) as client:

            def caught_up():
                revision = client.revision()
                deadline = time.monotonic() + 10.0
                while (
                    standby.replicated_revision < revision
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                assert standby.replicated_revision == revision
                assert standby.lag == 0

            yield journal, standby, client, caught_up
    finally:
        server.stop()


def test_caught_up_standby_drops_a_deleted_interface(tailed):
    journal, standby, client, caught_up = tailed
    record, _ = client.resolve(_sighting("10.0.0.1", "aa:00:00:00:00:01"))
    caught_up()
    assert len(standby.journal.interfaces) == 1
    assert client.delete_interface(record.record_id)
    caught_up()
    assert len(journal.interfaces) == 0
    assert len(standby.journal.interfaces) == 0


def test_caught_up_standby_holds_an_acked_negative_entry(tailed):
    journal, standby, client, caught_up = tailed
    client.negative_put("arp", "10.0.0.9", ttl=600.0)
    # A later write moves the revision, so catching up covers the entry.
    client.resolve(_sighting("10.0.0.1", "aa:00:00:00:00:01"))
    caught_up()
    assert journal.negative_check("arp", "10.0.0.9")
    assert standby.journal.negative_check("arp", "10.0.0.9")


def test_sharded_impact_forgets_a_deleted_interface():
    def isolated_after_delete(client):
        """gw-a joins .1/.2 and gw joins .2/.3, with two hosts on .3;
        one of them is deleted before gw's impact is asked."""
        client.observe_interface(_sighting("10.0.1.5", "aa:00:00:00:00:05"))
        client.observe_interface(_sighting("10.0.3.7", "aa:00:00:00:00:07"))
        gone, _ = client.observe_interface(_sighting("10.0.3.8", "aa:00:00:00:00:08"))
        for name, subnets in (
            ("gw-a", ["10.0.1.0/24", "10.0.2.0/24"]),
            ("gw", ["10.0.2.0/24", "10.0.3.0/24"]),
        ):
            gateway, _ = client.ensure_gateway(source="gap-test", name=name)
            for key in subnets:
                client.link_gateway_subnet(gateway.record_id, key, source="gap-test")
        assert client.impact("gw").isolated_hosts == 2
        assert client.delete_interface(gone.record_id)
        return client.impact("gw").isolated_hosts

    assert isolated_after_delete(connect(Journal())) == 1
    fleet = connect([connect(Journal()), connect(Journal())])
    assert isolated_after_delete(fleet) == 1
