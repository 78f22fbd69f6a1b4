"""One thread owns a served Journal.

While a Journal Server runs, its event loop thread
(``journal-server-loop``) is the only thread that changes the Journal,
publishes its feed or snapshots it: every ``wire.OPS`` write method,
``Journal.publish`` and ``Journal.to_dict`` run there, under every fsync
policy, through checkpoints, feed subscriptions, a standby's tail and
its promotion.  The worker pool only writes files, and the loop never
fsyncs the WAL or a checkpoint — only ``epoch.json`` and ``shard.json``,
written once per promote, fence, step-down or seat.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.core import (
    Journal,
    JournalServer,
    JournalStore,
    RemoteClient,
    ShardMap,
    StandbyReplica,
    durability,
    wire,
)
from repro.core.records import Observation

#: the Journal methods the write ops of wire.OPS name
WRITE_METHODS = sorted({
    name
    for spec in wire.OPS.values()
    if spec.kind == "write"
    for name in spec.methods
    if callable(getattr(Journal, name, None))
})


@pytest.fixture
def owners(monkeypatch):
    """Record ``(journal id, method, thread ident)`` for every write
    method, ``publish``, ``subscribe`` and ``to_dict`` while
    ``owners.on`` is set."""

    class Recorder:
        on = False
        calls = []

        def check(self, *servers):
            """Every recorded call on a served Journal ran on its
            server's loop thread; returns how many were checked."""
            loops = {id(server.journal): server._thread.ident for server in servers}
            checked = [call for call in self.calls if call[0] in loops]
            strays = [
                (name, ident) for journal, name, ident in checked
                if ident != loops[journal]
            ]
            assert not strays, f"calls off the loop thread: {strays[:5]}"
            return len(checked)

    recorder = Recorder()

    def wrap(name):
        original = getattr(Journal, name)

        def recording(self, *args, **kwargs):
            if recorder.on:
                recorder.calls.append((id(self), name, threading.get_ident()))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Journal, name, recording)

    for name in WRITE_METHODS + ["publish", "subscribe", "to_dict"]:
        wrap(name)
    return recorder


def _served(tmp_path, **settings):
    store = JournalStore(str(tmp_path), **settings)
    server = JournalServer(store.recover(), checkpoint_poll=0.05)
    server.start()
    return store, server


def _campaign(client: RemoteClient) -> None:
    """Every write op, the sightings pipelined."""
    observe = [
        {"op": "observe", "observation": {"source": "t", "ip": f"10.0.{i % 4}.{i + 1}"}}
        for i in range(40)
    ]
    batch = wire.batch_request(
        [{"op": "observe", "observation": {"source": "t", "ip": f"10.1.0.{i + 1}"}}
         for i in range(20)]
    )
    negative = {"op": "negative_put", "kind": "ip", "key": "10.9.9.9", "ttl": 60.0}
    for reply in client.begin_many(observe + [batch, negative]):
        assert reply.wait()["ok"]
    record, _ = client.observe_interface(Observation(source="t", ip="10.2.0.1"))
    gateway, _ = client.ensure_gateway(
        source="t", name="gw", interface_ids=[record.record_id]
    )
    client.ensure_subnet("10.2.0.0/24", source="t")
    client.link_gateway_subnet(gateway.record_id, "10.2.0.0/24", source="t")
    client.rename_gateway(gateway.record_id, "gw-2", source="t")
    client.delete_interface(record.record_id)
    donor = Journal()
    member, _ = donor.observe_interface(Observation(source="d", ip="10.3.0.1"))
    donor_gateway, _ = donor.ensure_gateway(
        source="d", name="gw-d", interface_ids=[member.record_id]
    )
    donor_subnet, _ = donor.ensure_subnet("10.3.0.0/24", source="d")
    absorbed, _ = client.absorb_interface(member)
    client.absorb_gateway(donor_gateway, {member.record_id: absorbed.record_id})
    client.absorb_subnet(donor_subnet)


@pytest.mark.parametrize("fsync", ["interval", "always"])
def test_a_pipelined_campaign_runs_on_the_loop(tmp_path, owners, fsync):
    store, server = _served(tmp_path, fsync=fsync, fsync_interval=0.01)
    try:
        owners.on = True
        with RemoteClient(*server.address) as client:
            with client.subscribe(since=0) as feed:
                _campaign(client)
                assert feed.poll(5.0) is not None
        owners.on = False
        assert owners.check(server) > 60
    finally:
        owners.on = False
        server.stop()
        store.close(checkpoint=False)


def test_checkpoints_snapshot_on_the_loop(tmp_path, owners, monkeypatch):
    snapshots = []
    real_write = durability.atomic_write_bytes

    def recording_write(path, *parts, **options):
        if path.endswith(JournalStore.CHECKPOINT_NAME):
            snapshots.append(threading.current_thread().name)
        real_write(path, *parts, **options)

    monkeypatch.setattr(durability, "atomic_write_bytes", recording_write)
    store, server = _served(tmp_path, fsync="interval", checkpoint_ops=8)
    try:
        owners.on = True
        with RemoteClient(*server.address) as client:
            _campaign(client)
            assert client.snapshot().counts()["interfaces"] > 0  # a dump
        deadline = time.monotonic() + 5.0
        while not snapshots and time.monotonic() < deadline:
            time.sleep(0.02)
        owners.on = False
        assert any(name == "to_dict" for _j, name, _t in owners.calls)
        owners.check(server)
        assert snapshots and all(name.startswith("journal-worker") for name in snapshots)
    finally:
        owners.on = False
        server.stop()
        store.close(checkpoint=False)


def test_a_subscribe_registers_and_publishes_on_the_loop(tmp_path, owners):
    store, server = _served(tmp_path, fsync="interval")
    try:
        with RemoteClient(*server.address) as client:
            client.observe_interface(Observation(source="t", ip="10.0.0.1"))
            owners.on = True
            with client.subscribe(since=0) as feed:
                assert feed.poll(5.0) is not None  # the backlog
                client.observe_interface(Observation(source="t", ip="10.0.0.2"))
                assert feed.poll(5.0) is not None  # a published delta
        owners.on = False
        recorded = {name for _j, name, _t in owners.calls}
        assert {"subscribe", "publish"} <= recorded
        owners.check(server)
    finally:
        owners.on = False
        server.stop()
        store.close(checkpoint=False)


def test_a_standby_tails_and_is_promoted_on_its_loop(tmp_path, owners):
    primary_store, primary = _served(tmp_path / "primary", fsync="always")
    standby_store = JournalStore(str(tmp_path / "standby"), fsync="always")
    standby = StandbyReplica(primary.address, store=standby_store, poll_interval=0.05)
    owners.on = True
    standby.start()
    try:
        with RemoteClient(*primary.address) as client:
            _campaign(client)
        deadline = time.monotonic() + 10.0
        while (
            standby.replicated_revision < primary.journal.revision
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert standby.replicated_revision >= primary.journal.revision
        standby.promote()
        with RemoteClient(*standby.address) as client:
            client.observe_interface(Observation(source="t", ip="10.4.0.1"))
        owners.on = False
        tailed = [call for call in owners.calls if call[0] == id(standby.journal)]
        assert any(name.startswith("absorb_") for _j, name, _t in tailed)
        owners.check(primary, standby.server)
    finally:
        owners.on = False
        standby.stop()
        standby_store.close(checkpoint=False)
        primary.stop()
        primary_store.close(checkpoint=False)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_an_always_standby_fsyncs_its_absorbs_and_feeds_them_promptly(tmp_path, monkeypatch):
    """No reply waits on a standby's absorbs, yet under ``always`` each
    one is fsynced on the pool, and the standby's own feed reports it
    without waiting for a checkpoint."""
    standby_dir = os.path.realpath(tmp_path / "standby")
    pooled = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        if threading.current_thread().name.startswith("journal-worker"):
            pooled.append(os.readlink(f"/proc/self/fd/{fd}"))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    primary_store, primary = _served(tmp_path / "primary", fsync="never")
    no_checkpoints = {"checkpoint_ops": None, "checkpoint_bytes": None, "checkpoint_age": None}
    standby_store = JournalStore(standby_dir, fsync="always", **no_checkpoints)
    standby = StandbyReplica(primary.address, store=standby_store, poll_interval=0.05).start()
    try:
        with RemoteClient(*standby.address) as reader, reader.subscribe(since=0) as feed:
            with RemoteClient(*primary.address) as writer:
                for index in range(4):
                    writer.observe_interface(Observation(source="t", ip=f"10.0.0.{index + 1}"))
                    deadline = time.monotonic() + 5.0
                    while (
                        standby.replicated_revision < primary.journal.revision
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.01)
                    wanted, seen = standby.journal.revision, 0
                    while seen < wanted and time.monotonic() < deadline:
                        delta = feed.poll(0.1)
                        if delta is not None:
                            seen = delta.revision
                    assert seen >= wanted > 0, f"absorb {index} never reached the feed"
    finally:
        standby.stop()
        standby_store.close(checkpoint=False)
        primary.stop()
        primary_store.close(checkpoint=False)
    wal = [path for path in pooled if path.startswith(standby_dir)]
    assert len(wal) >= 4 and all(os.path.basename(path).startswith("wal-") for path in wal)


def test_no_always_reply_before_its_fsync_returns(tmp_path, monkeypatch):
    """Each write's reply is encoded only after an fsync that began after
    that write's WAL append has returned."""
    appends, fsyncs, replies = [], [], {}
    real_append, real_fsync, real_encode = JournalStore._append, os.fsync, wire.encode_message

    def recording_append(self, entry):
        real_append(self, entry)
        appends.append(time.monotonic())

    def recording_fsync(fd):
        started = time.monotonic()
        real_fsync(fd)
        fsyncs.append((started, time.monotonic()))

    def recording_encode(message):
        if isinstance(message.get("id"), int) and "ok" in message:
            replies[message["id"]] = time.monotonic()
        return real_encode(message)

    store, server = _served(tmp_path, fsync="always")
    monkeypatch.setattr(JournalStore, "_append", recording_append)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(wire, "encode_message", recording_encode)
    try:
        requests = [
            {"op": "observe", "id": i, "observation": {"source": "t", "ip": f"10.0.0.{i}"}}
            for i in range(1, 31)
        ]
        with socket.create_connection(server.address, timeout=5.0) as sock:
            frames = wire.FrameReader(sock)
            sock.sendall(b"".join(real_encode(request) for request in requests))
            for _ in requests:
                assert frames.read(10.0)["ok"]
    finally:
        server.stop()
        store.close(checkpoint=False)
    assert len(appends) >= len(requests)
    for index, request in enumerate(requests):
        appended, replied = appends[index], replies[request["id"]]
        assert any(appended <= began and ended <= replied for began, ended in fsyncs), (
            f"reply {request['id']} was sent before an fsync covering it returned"
        )


def _fsynced_file(fd) -> str:
    return os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_the_loop_fsyncs_only_epoch_and_shard_files(tmp_path, monkeypatch):
    """A loop fsyncs ``shard.json`` when its Journal is seated (by a
    handshake, or a standby adopting its primary's identity) and
    ``epoch.json`` when it is promoted or fenced, so no later op runs
    under an identity or epoch that could roll back; every WAL and
    checkpoint fsync runs on the pool."""
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append((threading.current_thread().name, _fsynced_file(fd)))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    settings = {"fsync": "always", "checkpoint_ops": 6, "checkpoint_age": None}
    primary_store, primary = _served(tmp_path / "primary", **settings)
    standby_store = JournalStore(str(tmp_path / "standby"), **settings)
    standby = StandbyReplica(primary.address, store=standby_store, poll_interval=0.05).start()
    try:
        with RemoteClient(*primary.address) as client:
            assert client.shard_info(seat=ShardMap(2).identity(1))
            for index in range(10):
                client.observe_interface(Observation(source="t", ip=f"10.0.0.{index + 1}"))
        deadline = time.monotonic() + 10.0
        while (
            standby.replicated_revision < primary.journal.revision
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert standby.journal.shard == primary.journal.shard
        with RemoteClient(*standby.address) as client:
            epoch = client.promote()
            client.observe_interface(Observation(source="t", ip="10.0.1.1"))
            client.fence(epoch + 1)
    finally:
        standby.stop()
        standby_store.close(checkpoint=False)
        primary.stop()
        primary_store.close(checkpoint=False)
    on_loop = {name for thread, name in synced if thread == "journal-server-loop"}
    assert any(name.startswith("shard.json") for name in on_loop)
    assert any(name.startswith("epoch.json") for name in on_loop)
    assert not any(name.startswith(("wal-", "checkpoint.json")) for name in on_loop), on_loop
    pooled = {name for thread, name in synced if thread.startswith("journal-worker")}
    assert any(name.startswith("wal-") for name in pooled)
    assert any(name.startswith("checkpoint.json") for name in pooled)


def test_no_call_runs_beside_the_final_checkpoint():
    """Once the loop has stopped serving, :meth:`JournalServer.call`
    refuses instead of running beside the stopping thread's final
    checkpoint; once stopped, the Journal is its caller's again."""
    server = JournalServer(Journal()).start()
    outcomes = []
    real_finalize = server._finalize_stop

    def finalize():
        def other_thread():
            try:
                outcomes.append(server.call(lambda: "ran"))
            except RuntimeError:
                outcomes.append("refused")

        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join(5.0)
        real_finalize()

    server._finalize_stop = finalize
    server.stop()
    assert outcomes == ["refused"]
    assert server.call(lambda: "ran") == "ran"
