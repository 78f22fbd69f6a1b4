"""Crash-injection suite for the durable Journal.

Three attack surfaces, per the durability contract:

* **Process kill** — a child process ingests through a
  ``fsync="always"`` JournalStore and is SIGKILLed at a random moment.
  Recovery must yield *exactly* the state as of some prefix of the
  child's deterministic stream (never a corrupted or reordered one).
* **Prefix truncation** (hypothesis property) — for *any* byte-level
  truncation of the WAL, recovery yields exactly the state as of the
  last intact record.
* **Random corruption** — flipping bytes at an arbitrary offset never
  crashes recovery, and the recovered state is still some clean prefix
  of history (damaged segments are quarantined, not misapplied).
* **Every write op** (hypothesis property) — a random sequence of all
  of ``wire.WRITE_OPS``, with or without a checkpoint mid-way, is
  crashed by copying the directory: recovery equals the live Journal
  in state, revision, record ids and timestamps.

Plus the server integration: a Journal Server over a durable store
checkpoints by policy while running, syncs an idle WAL's tail within
``fsync_interval``, loses no acknowledged write to a SIGKILL of
``serve --fsync interval``, and a restart rehydrates every record that
was synced before the stop.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Journal, JournalDispatcher, JournalServer, JournalStore, RemoteClient
from repro.core import wire
from repro.core.durability import SEGMENT_MAGIC, scan_segment
from repro.core.records import Observation
from repro.netsim.faults import corrupt_file, truncate_file

# The child process and the parent must agree on the stream exactly;
# both sides exec this one definition.
STREAM_SRC = '''
def build_stream(count):
    from repro.core.records import Observation
    stream = []
    for index in range(count):
        stream.append(Observation(
            source="crash-test",
            ip="10.{}.{}.{}".format(index // 62500, (index // 250) % 250,
                                    index % 250 + 1),
            mac="08:00:20:{:02x}:{:02x}:{:02x}".format(
                (index >> 16) & 0xFF, (index >> 8) & 0xFF, index & 0xFF),
            subnet_mask="255.255.255.0" if index % 3 == 0 else None,
        ))
    return stream
'''
exec(STREAM_SRC)  # defines build_stream for the parent side

CHILD_SRC = STREAM_SRC + '''
import sys
from repro.core import JournalStore

store = JournalStore(sys.argv[1], fsync="always",
                     checkpoint_ops=None, checkpoint_bytes=None,
                     checkpoint_age=None)
journal = store.recover()
stream = build_stream(int(sys.argv[2]))
print("READY", flush=True)
for observation in stream:
    journal.submit(observation)
print("DONE", flush=True)
store.close(checkpoint=False)
'''


def state_after(prefix_len):
    """Canonical Journal state after the first *prefix_len* stream
    observations (the oracle every recovery is judged against)."""
    journal = Journal()
    for observation in build_stream(prefix_len):
        journal.submit(observation)
    return journal.canonical_state()


def assert_is_clean_prefix(recovered, total):
    """The recovered journal must equal *some* prefix of the stream."""
    # recovered_records counts replayed WAL entries = applied prefix.
    prefix = recovered.counts()["wal_recovered_records"]
    assert 0 <= prefix <= total
    assert recovered.canonical_state() == state_after(prefix)
    return prefix


class TestProcessKill:
    STREAM_LEN = 4000

    def _run_and_kill(self, directory, delay):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SRC, str(directory), str(self.STREAM_LEN)],
            stdout=subprocess.PIPE,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            assert child.stdout.readline().strip() == b"READY"
            time.sleep(delay)
            child.kill()  # SIGKILL: no atexit, no flush, no mercy
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        return child.returncode

    @pytest.mark.parametrize("delay", [0.02, 0.1, 0.25])
    def test_sigkill_mid_ingest_recovers_a_clean_prefix(self, tmp_path, delay):
        returncode = self._run_and_kill(tmp_path, delay)
        assert returncode == -signal.SIGKILL
        store = JournalStore(str(tmp_path))
        recovered = store.recover()
        prefix = assert_is_clean_prefix(recovered, self.STREAM_LEN)
        # fsync="always" and the kill landed mid-campaign: the child
        # must have synced at least one record before dying (a kill this
        # late with zero durable records would mean the WAL is a no-op).
        assert prefix > 0
        store.close(checkpoint=False)

    def test_recovery_after_kill_continues_ingesting(self, tmp_path):
        self._run_and_kill(tmp_path, 0.05)
        store = JournalStore(str(tmp_path), fsync="never", checkpoint_ops=None,
                             checkpoint_bytes=None, checkpoint_age=None)
        recovered = store.recover()
        prefix = recovered.counts()["wal_recovered_records"]
        # Resume exactly where the dead process stopped.
        for observation in build_stream(self.STREAM_LEN)[prefix : prefix + 50]:
            recovered.submit(observation)
        store.close(checkpoint=False)
        store2 = JournalStore(str(tmp_path))
        resumed = store2.recover()
        assert resumed.canonical_state() == state_after(prefix + 50)
        store2.close(checkpoint=False)


class TestServedIntervalKill:
    """Inline writes on a ``serve --durable --fsync interval`` server
    never fsync on the append path, but every append still flushes to
    the OS before its acknowledgement — so a process crash right after
    the acks loses none of them."""

    def test_sigkill_after_acked_inline_writes_loses_nothing(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--durable", str(tmp_path), "--fsync", "interval"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        stream = build_stream(60)
        negatives = [f"10.99.0.{index}" for index in range(1, 21)]
        try:
            port = None
            deadline = time.monotonic() + 30.0
            while port is None and time.monotonic() < deadline:
                match = re.search(
                    rb"listening on [\d.]+:(\d+)", child.stdout.readline()
                )
                if match:
                    port = int(match.group(1))
            assert port is not None, "server never reported its port"
            with RemoteClient("127.0.0.1", port) as client:
                for observation, key in zip(stream, negatives * 3):
                    client.observe_interface(observation)
                    client.negative_put("ip", key, ttl=3600.0)
                client.counts()  # every write above is acknowledged
                child.kill()  # SIGKILL: no final checkpoint, no fsync
                child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
            child.stdout.close()
        store = JournalStore(str(tmp_path))
        recovered = store.recover(clock=time.time)
        assert store.last_recovery.recovered_records == len(stream) * 2
        assert recovered.canonical_state() == state_after(len(stream))
        assert all(recovered.negative_check("ip", key) for key in negatives)
        store.close(checkpoint=False)


class TestPrefixTruncation:
    """ISSUE satellite: for any prefix-truncation of the WAL, recovery
    yields exactly the state as of the last intact record."""

    STREAM_LEN = 30

    @pytest.fixture(scope="class")
    def wal_fixture(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("wal-master")
        store = JournalStore(
            str(base), fsync="never", checkpoint_ops=None,
            checkpoint_bytes=None, checkpoint_age=None,
        )
        journal = store.recover()
        for observation in build_stream(self.STREAM_LEN):
            journal.submit(observation)
        segment = store._segment_path(store._segment_seq)
        store.close(checkpoint=False)
        scan = scan_segment(segment)
        assert len(scan.entries) == self.STREAM_LEN
        oracle = [state_after(n) for n in range(self.STREAM_LEN + 1)]
        return base, segment, scan, oracle

    @settings(max_examples=30, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=4096))
    def test_any_truncation_recovers_last_intact_record(self, wal_fixture, cut, tmp_path_factory):
        base, segment, scan, oracle = wal_fixture
        cut = min(cut, os.path.getsize(segment))
        workdir = tmp_path_factory.mktemp("wal-cut")
        shutil.rmtree(workdir)
        shutil.copytree(base, workdir)
        truncate_file(os.path.join(workdir, os.path.basename(segment)), cut)
        expected = sum(1 for end in scan.end_offsets if end <= cut)
        store = JournalStore(str(workdir))
        recovered = store.recover()
        assert recovered.counts()["wal_recovered_records"] == expected
        assert recovered.canonical_state() == oracle[expected]
        # Clean cut points drop nothing: the empty file, the bare magic
        # header (a segment opened but never appended to), any whole-
        # frame boundary, and the untruncated file.  Everything else
        # lands mid-frame and must be counted as a torn tail.
        clean = {0, len(SEGMENT_MAGIC), os.path.getsize(segment), *scan.end_offsets}
        if cut not in clean:
            assert store.last_recovery.torn_tail_dropped == 1
        store.close(checkpoint=False)


class TestRandomCorruption:
    STREAM_LEN = 20

    @given(offset=st.integers(min_value=0, max_value=4096), flip=st.integers(1, 255))
    @settings(max_examples=20, deadline=None)
    def test_corruption_never_breaks_recovery(self, offset, flip, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("wal-corrupt")
        store = JournalStore(
            str(workdir), fsync="never", checkpoint_ops=None,
            checkpoint_bytes=None, checkpoint_age=None,
        )
        journal = store.recover()
        for observation in build_stream(self.STREAM_LEN):
            journal.submit(observation)
        segment = store._segment_path(store._segment_seq)
        store.close(checkpoint=False)
        corrupt_file(segment, offset % os.path.getsize(segment), flip=flip)
        store2 = JournalStore(str(workdir))
        recovered = store2.recover()  # must not raise, whatever broke
        assert_is_clean_prefix(recovered, self.STREAM_LEN)
        store2.close(checkpoint=False)


class TestServerIntegration:
    def test_restart_rehydrates_synced_records(self, tmp_path):
        store = JournalStore(str(tmp_path), fsync="always")
        journal = store.recover()
        stream = build_stream(40)
        with JournalServer(journal) as server:
            host, port = server.address
            with RemoteClient(host, port) as client:
                for observation in stream:
                    client.observe_interface(observation)
        store.close(checkpoint=False)
        # "Restart": a brand-new process would do exactly this.
        store2 = JournalStore(str(tmp_path))
        recovered = store2.recover()
        assert store2.last_recovery.checkpoint_loaded  # stop() checkpointed
        reference = Journal()
        for observation in stream:
            reference.submit(observation)
        assert recovered.canonical_state() == reference.canonical_state()
        store2.close(checkpoint=False)

    def test_background_checkpoint_policy_runs_mid_flight(self, tmp_path):
        """Checkpoints are no longer stop-only: the ops threshold fires
        during service, visible as segment rotation and counters."""
        store = JournalStore(str(tmp_path), fsync="never", checkpoint_ops=10)
        journal = store.recover()
        with JournalServer(journal, checkpoint_poll=0.05) as server:
            host, port = server.address
            with RemoteClient(host, port) as client:
                for observation in build_stream(25):
                    client.observe_interface(observation)
                counts = client.counts()
        assert counts["wal_checkpoints"] >= 2
        store.close(checkpoint=False)

    def test_age_threshold_checkpoints_quiet_server(self, tmp_path):
        store = JournalStore(
            str(tmp_path), fsync="never",
            checkpoint_ops=None, checkpoint_bytes=None, checkpoint_age=0.1,
        )
        journal = store.recover()
        with JournalServer(journal, checkpoint_poll=0.05) as server:
            host, port = server.address
            with RemoteClient(host, port) as client:
                client.observe_interface(build_stream(1)[0])
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    if client.counts()["wal_checkpoints"] >= 1:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("age threshold never tripped a checkpoint")
        store.close(checkpoint=False)

    def test_idle_server_syncs_wal_tail_under_interval(self, tmp_path, monkeypatch):
        """Regression: the interval fsync used to run only inside the
        next append, so a server that went quiet never synced the end
        of its WAL.  The watchdog must sync it within fsync_interval
        with no further writes arriving."""
        synced_at = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced_at.append(time.monotonic())
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store = JournalStore(
            str(tmp_path), fsync="interval", fsync_interval=0.2,
            checkpoint_ops=None, checkpoint_bytes=None, checkpoint_age=None,
        )
        journal = store.recover()
        with JournalServer(journal) as server:
            host, port = server.address
            with RemoteClient(host, port) as client:
                for observation in build_stream(48):
                    client.observe_interface(observation)
                acked_at = time.monotonic()
                time.sleep(1.0)  # idle, well past fsync_interval
                metrics = client.metrics(spans=0)
        fsyncs = [
            sample["count"]
            for family in metrics["metrics"]
            if family["name"] == "fremont_wal_fsync_seconds"
            for sample in family["samples"]
        ]
        assert fsyncs and fsyncs[0] >= 1
        assert any(when > acked_at for when in synced_at), (
            "no fsync after the last acknowledged write"
        )
        store.close(checkpoint=False)

    def test_server_falls_back_on_corrupt_journal_file(self, tmp_path, caplog):
        """Satellite: a corrupt --journal file degrades to an empty
        journal with a warning instead of refusing to start."""
        path = tmp_path / "journal.json"
        journal = Journal()
        for observation in build_stream(5):
            journal.submit(observation)
        journal.save(str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn write
        with caplog.at_level("WARNING", logger="repro.core.journal"):
            fallback = Journal.load_or_empty(str(path))
        assert len(fallback.interfaces) == 0
        assert any("corrupt journal" in r.message for r in caplog.records)
        with JournalServer(fallback) as server:  # and it serves fine
            host, port = server.address
            with RemoteClient(host, port) as client:
                assert client.counts()["interfaces"] == 0


def test_checkpoint_file_has_versioned_checksummed_header(tmp_path):
    store = JournalStore(str(tmp_path), fsync="never")
    journal = store.recover()
    for observation in build_stream(3):
        journal.submit(observation)
    store.checkpoint()
    with open(tmp_path / "checkpoint.json", "rb") as handle:
        header = json.loads(handle.readline())
        body = handle.read()
    assert header["format"] == "fremont-checkpoint-2"
    assert header["revision"] == journal.revision
    import zlib

    assert header["crc32"] == zlib.crc32(body)
    store.close(checkpoint=False)


# ----------------------------------------------------------------------
# Every write op: the recovered Journal is the live one
# ----------------------------------------------------------------------

HOSTS = 5


def _sighting(n):
    """One of a few hosts, with one of two MACs (a conflict splits the
    record) and sometimes a DNS name."""
    host = n % HOSTS
    return wire.observation_to_dict(Observation(
        source="crash-ops",
        ip=f"10.7.0.{host + 1}",
        mac=None if n % 5 == 0 else f"08:00:20:00:{n % 2:02x}:{host:02x}",
        dns_name=f"h{host}.test" if n % 3 == 0 else None,
    ))


def _foreign():
    """Records of another site's Journal, for the absorb ops."""
    far = Journal(clock=lambda: 50.0)
    member, _ = far.observe_interface(
        Observation(source="far", ip="10.7.0.1", mac="08:00:20:00:00:00")
    )
    other, _ = far.observe_interface(Observation(source="far", ip="10.7.0.9"))
    gateway, _ = far.ensure_gateway(
        source="far", name="gw-far", interface_ids=[member.record_id]
    )
    far.link_gateway_subnet(gateway.record_id, "10.7.1.0/24", source="far")
    subnet, _ = far.ensure_subnet("10.7.2.0/24", source="far", host_count=4)
    return [member, other], gateway, far.subnet_by_key("10.7.1.0/24"), subnet


FAR_INTERFACES, FAR_GATEWAY, FAR_LINKED, FAR_SUBNET = _foreign()
CALLS = {op: wire.JournalCall(op) for op in wire.WRITE_OPS if op != "observe_batch"}


def _call(op, *args, **kwargs):
    return CALLS[op].request(args, kwargs)


def _pick(table, n):
    ids = sorted(table)
    return ids[n % len(ids)] if ids else None


def _with(record_id, make):
    return None if record_id is None else make(record_id)


#: write op -> (journal, a, b) -> one request of it (None when the
#: journal holds nothing it could name yet)
BUILDERS = {
    "observe": lambda j, a, b: {"op": "observe", "observation": _sighting(a)},
    "observe_batch": lambda j, a, b: wire.batch_request([
        {"op": "observe", "observation": _sighting(a)},
        {"op": "observe", "observation": _sighting(b)},
    ]),
    "ensure_gateway": lambda j, a, b: _call(
        "ensure_gateway", source="crash-ops", name=f"gw{a % 3}",
        interface_ids=[i for i in (_pick(j.interfaces, b),) if i is not None],
    ),
    "rename_gateway": lambda j, a, b: _with(_pick(j.gateways, a), lambda g: _call(
        "rename_gateway", g, f"gw{b % 3}", source="crash-ops"
    )),
    "link_gateway_subnet": lambda j, a, b: _with(_pick(j.gateways, a), lambda g: _call(
        "link_gateway_subnet", g, f"10.7.{b % 3}.0/24", source="crash-ops"
    )),
    "ensure_subnet": lambda j, a, b: _call(
        "ensure_subnet", f"10.7.{a % 3}.0/24", source="crash-ops", host_count=b
    ),
    "delete_interface": lambda j, a, b: _with(_pick(j.interfaces, a), lambda i: _call(
        "delete_interface", i
    )),
    "negative_put": lambda j, a, b: _call(
        "negative_put", "ip", f"10.9.0.{a % 4}", ttl=(5.0, 500.0)[b % 2]
    ),
    "absorb_interface": lambda j, a, b: _call(
        "absorb_interface", FAR_INTERFACES[a % len(FAR_INTERFACES)]
    ),
    "absorb_gateway": lambda j, a, b: _call(
        "absorb_gateway", FAR_GATEWAY,
        {FAR_GATEWAY.interface_ids[0]: i for i in (_pick(j.interfaces, b),) if i is not None},
    ),
    "absorb_subnet": lambda j, a, b: _call(
        "absorb_subnet", (FAR_LINKED, FAR_SUBNET)[a % 2]
    ),
}

STEPS = st.lists(
    st.tuples(st.sampled_from(sorted(BUILDERS)), st.integers(0, 30), st.integers(0, 30)),
    min_size=1,
    max_size=30,
)


def _state(journal):
    """Everything a replay must reproduce: the structure, the revision,
    the id allocator and every record's id and modification time."""
    return {
        "canonical": journal.canonical_state(),
        "revision": journal.revision,
        "next_id": journal._next_id,
        "last_modified": [
            {rid: record.last_modified for rid, record in table.items()}
            for table in (journal.interfaces, journal.gateways, journal.subnets)
        ],
        "negative": journal._negative,
    }


class TestEveryWriteOpRecovers:
    def test_builders_cover_every_write_op(self):
        assert set(BUILDERS) == wire.WRITE_OPS

    @settings(max_examples=60, deadline=None)
    @given(steps=STEPS, checkpoint_at=st.none() | st.integers(0, 29))
    def test_crashed_copy_recovers_the_live_journal(self, steps, checkpoint_at):
        with tempfile.TemporaryDirectory() as workdir:
            live = os.path.join(workdir, "live")
            store = JournalStore(
                live, fsync="never", checkpoint_ops=None,
                checkpoint_bytes=None, checkpoint_age=None,
            )
            journal = store.recover()
            dispatcher = JournalDispatcher(journal)
            for index, (op, a, b) in enumerate(steps):
                if index == checkpoint_at:
                    store.checkpoint()
                request = BUILDERS[op](journal, a, b)
                if request is not None:
                    response = dispatcher.dispatch(request)
                    assert response["ok"], response
                    assert all(item["ok"] for item in response.get("responses", ()))
            crashed = os.path.join(workdir, "crashed")
            shutil.copytree(live, crashed)  # no close(): the crash
            recovered_store = JournalStore(crashed)
            recovered = recovered_store.recover()
            assert recovered_store.last_recovery.clean
            assert _state(recovered) == _state(journal)
            recovered_store.close(checkpoint=False)
            store.close(checkpoint=False)
