"""The one journal-client surface, checked on every client.

Each client — in-process, served, one-member failover, and a sharded
router over local or served shards — answers the same batch and feed
calls, so the batching sink, the router and the query cache hold any
of them without asking which.
"""

import contextlib
import threading
import time

import pytest

from repro.core import (
    FailoverClient,
    Journal,
    JournalServer,
    LocalClient,
    RemoteClient,
    ShardedClient,
    ShardMap,
    connect,
)
from repro.core.records import Observation


def _subnets_on_two_shards():
    """Two /24 prefixes the two-shard map places on different shards."""
    shard_map = ShardMap(2)
    first = "10.1.1"
    for third in range(2, 250):
        other = f"10.1.{third}"
        if shard_map.shard_for_ip(f"{other}.1") != shard_map.shard_for_ip(f"{first}.1"):
            return first, other
    raise AssertionError("no two /24s on different shards")


_A, _B = _subnets_on_two_shards()


def _sighting(prefix, host):
    return Observation(source="surface", ip=f"{prefix}.{host}", mac=f"aa:00:00:00:{host // 256:02x}:{host % 256:02x}")


#: a batch over two shards: a new sighting, another shard's, the first
#: again (a re-verification, no change) and one more on the first shard
BATCH = [_sighting(_A, 1), _sighting(_B, 2), _sighting(_A, 1), _sighting(_A, 3)]
FLAGS = [True, True, False, True]

KINDS = ["local", "remote", "failover", "sharded-local", "sharded-remote"]


@contextlib.contextmanager
def _served(journal):
    server = JournalServer(journal, port=0)
    server.start()
    try:
        yield server.address
    finally:
        server.stop()


@contextlib.contextmanager
def _client(kind):
    """A fresh client of *kind* and the journals behind it, in shard order."""
    with contextlib.ExitStack() as stack:
        journals = [Journal() for _ in range(2 if kind.startswith("sharded") else 1)]
        if kind in ("local", "sharded-local"):
            clients = [LocalClient(journal) for journal in journals]
        else:
            addresses = [stack.enter_context(_served(journal)) for journal in journals]
            if kind == "failover":
                clients = [FailoverClient(addresses)]
            else:
                clients = [RemoteClient(host, port) for host, port in addresses]
        client = ShardedClient(clients) if kind.startswith("sharded") else clients[0]
        with client:
            yield client, journals


@pytest.mark.parametrize("kind", KINDS)
def test_batch_reply_flags_arrive_in_submission_order(kind):
    with _client(kind) as (client, journals):
        response = client.observe_batch_nowait(BATCH, coalesced=0).wait()
        assert [item["changed"] for item in response["responses"]] == FLAGS
        pipelined = [journal.canonical_state() for journal in journals]
    with _client(kind) as (client, journals):
        assert client.observe_batch(BATCH) == FLAGS
        assert [journal.canonical_state() for journal in journals] == pipelined


@pytest.mark.parametrize("kind", KINDS)
def test_feed_from_zero_delivers_one_delta_then_nothing(kind):
    with _client(kind) as (client, _journals):
        # One subnet: one shard's feed carries the delta, so it is one.
        client.observe_batch([_sighting(_A, 1), _sighting(_A, 2)])
        with client.subscribe(since=0) as feed:
            delta = feed.poll(5.0)
            assert delta is not None and len(delta.interfaces) == 2
            assert feed.poll(0.0) is None
            assert feed.revision == client.revision()
            client.observe_batch([_sighting(_A, 3)])
            drained = feed.drain(5.0)
            assert drained is not None and len(drained.interfaces) == 1
            assert feed.revision == client.revision()
        feed.close()  # a second close is harmless


@pytest.mark.parametrize("kind", KINDS)
def test_flush_and_snapshot_answer_on_every_client(kind):
    with _client(kind) as (client, _journals):
        client.observe_batch(BATCH)
        client.flush()
        snapshot = client.snapshot()
        assert isinstance(snapshot, Journal)
        assert snapshot.counts()["interfaces"] == 3


@pytest.mark.parametrize("shards", [1, 2])
def test_feed_inherits_the_connect_retry_settings(shards):
    """A feed reconnects with its opener's settings: one reconnect
    attempt gives up at once, where the default five would sleep for
    at least 0.75 s between attempts.  Over a ``shard://`` router each
    member feed inherits its shard client's settings."""
    servers = [JournalServer(Journal(), port=0).start() for _ in range(shards)]
    try:
        addresses = ",".join(f"{host}:{port}" for host, port in (s.address for s in servers))
        target = addresses if shards == 1 else f"shard://{addresses}"
        with connect(target, retry={"reconnect_attempts": 1}) as client:
            feed = client.subscribe(since=0)
            try:
                for server in servers:
                    server.stop()
                started = time.monotonic()
                with pytest.raises(ConnectionError):
                    feed.poll(2.0)
                assert time.monotonic() - started < 0.5
            finally:
                feed.close()
    finally:
        for server in servers:
            server.stop()


def test_a_closed_feed_stays_closed():
    with _client("remote") as (client, _journals):
        feed = client.subscribe(since=0)
        feed.close()
        with pytest.raises(OSError):
            feed.poll(0.1)
        assert feed.resumes == 0


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.mark.parametrize("kind", ["remote", "sharded-remote"])
def test_a_feed_closed_during_a_poll_raises_and_never_resumes(kind):
    """A close() from another thread while a poll is blocked ends that
    poll with ConnectionError: the blocked read's bad descriptor is not
    a dropped stream, so no member reconnects and subscribes again."""
    with _client(kind) as (client, journals):
        feed = client.subscribe(since=0)
        members = getattr(feed, "_feeds", [feed])
        outcome = {}

        def consume():
            try:
                outcome["delta"] = feed.poll(5.0)
            except ConnectionError as error:
                outcome["error"] = error

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.2)  # the consumer is blocked in its wait
        feed.close()
        # A push on every shard wakes a wait still holding the socket.
        client.observe_batch([_sighting(_A, 1), _sighting(_B, 2)])
        consumer.join(10.0)
        assert not consumer.is_alive()
        assert "change feed closed" in str(outcome.get("error"))
        assert [member.resumes for member in members] == [0] * len(members)
        assert _wait_for(lambda: all(j.feed_subscribers == 0 for j in journals))
