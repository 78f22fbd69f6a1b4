"""One JSON encoder for frames, WAL records and checkpoints.

:func:`repro.core.wire.encode_json` writes with orjson and falls back
to the stdlib only for what orjson refuses.  These tests check that it
writes the same JSON value the stdlib wrote, that non-finite numbers
can neither arrive over the wire nor be logged, that WAL segments and
checkpoints the stdlib wrote (``\\u`` escapes, integers beyond 64 bits)
still recover, that a checkpoint holds no extra copy of its body, and
that a step-clock Journal recovered from its WAL stamps new writes
after the replayed ones.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import socket
import subprocess
import sys
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FailoverClient, Journal, JournalServer, Observation, RemoteClient, wire,
)
from repro.core.client import LocalClient
from repro.core.durability import SEGMENT_MAGIC, JournalStore, scan_segment
from repro.core.records import Attribute, InterfaceRecord

#: an internationalised host name: raw UTF-8 from orjson, ``\\u``
#: escapes from the stdlib
NAME = "bücher.straße.example"


def _store(directory):
    return JournalStore(
        str(directory), fsync="never", checkpoint_ops=None,
        checkpoint_bytes=None, checkpoint_age=None,
    )


def _stdlib(value, *, sort_keys=False):
    """What the stdlib encoder wrote before orjson."""
    return json.dumps(value, separators=(",", ":"), sort_keys=sort_keys).encode("utf-8")


JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(alphabet=st.characters(), max_size=8),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


class TestEncoder:
    @settings(max_examples=300, deadline=None)
    @given(JSON, st.booleans())
    def test_writes_the_value_the_stdlib_wrote(self, value, sort_keys):
        ours = wire.encode_json(value, sort_keys=sort_keys)
        assert json.loads(ours) == json.loads(_stdlib(value, sort_keys=sort_keys))

    def test_non_string_keys_become_the_stdlibs_strings(self):
        value = {1: "a", 2.5: "b", True: "c", None: "d"}
        assert json.loads(wire.encode_json(value)) == json.loads(_stdlib(value))

    def test_text_is_raw_utf8(self):
        line = wire.encode_message({"dns_name": NAME})
        assert NAME.encode("utf-8") in line and line.endswith(b"\n")
        assert wire.decode_message(line) == {"dns_name": NAME}

    @pytest.mark.parametrize("value", [2**64, -(2**63) - 1, 10**30, "\ud800"])
    def test_what_orjson_refuses_goes_through_the_stdlib(self, value):
        line = wire.encode_message({"v": [value]})
        assert wire.decode_message(line) == {"v": [value]}

    def test_what_neither_encodes_raises_type_error(self):
        @dataclasses.dataclass
        class Point:
            x: int

        for value in ({1, 2}, Point(1), object()):
            with pytest.raises(TypeError):
                wire.encode_message({"v": value})


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_decode_message_refuses_them(self, constant):
        with pytest.raises(wire.WireError, match="non-finite"):
            wire.decode_message(b'{"op":"negative_put","ttl":%s}\n' % constant.encode())

    def test_a_served_infinite_ttl_is_refused_and_the_server_keeps_serving(self):
        journal = Journal()
        server = JournalServer(journal)
        server.start()
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                reader = wire.FrameReader(sock)
                sock.sendall(
                    b'{"op":"negative_put","kind":"dns","key":"x","ttl":Infinity}\n'
                )
                reply = reader.read(5.0)
                assert reply["ok"] is False and "non-finite" in reply["error"]
                sock.sendall(wire.encode_message({"op": "ping", "id": 1}))
                assert reader.read(5.0)["ok"] is True
            assert journal._negative == {}
        finally:
            server.stop()

    @pytest.mark.parametrize("ttl", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_ttl_is_not_applied_or_logged(self, tmp_path, ttl):
        store = _store(tmp_path)
        client = LocalClient(store.recover())
        client.negative_put("dns", "ok.example", ttl=5.0)
        appends = client.journal.counts()["wal_appends"]
        with pytest.raises(ValueError, match="finite"):
            client.negative_put("dns", "ghost.example", ttl=ttl)
        assert client.journal.counts()["wal_appends"] == appends
        assert list(client.journal._negative) == [("dns", "ok.example")]
        store.close(checkpoint=False)
        assert len(scan_segment(str(tmp_path / "wal-00000001.log")).entries) == 1

    @pytest.mark.parametrize("ttl", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("connect", [
        lambda address: RemoteClient(*address),
        lambda address: FailoverClient([address]),
    ], ids=["remote", "failover"])
    def test_a_remote_client_refuses_a_non_finite_ttl_before_sending(self, connect, ttl):
        """orjson would write the float as ``null``; the client raises the
        ValueError a LocalClient raises, and the server sees nothing."""
        journal = Journal()
        server = JournalServer(journal)
        server.start()
        client = connect(server.address)
        try:
            with pytest.raises(ValueError, match="negative_put ttl must be finite"):
                client.negative_put("arp", "ghost", ttl=ttl)
            assert journal._negative == {}
            client.negative_put("arp", "k", ttl=30.0)
            assert list(journal._negative) == [("arp", "k")]
        finally:
            client.close()
            server.stop()


class TestStdlibFilesStillRecover:
    """Segments and checkpoints written by the stdlib encoder, as every
    file before orjson was: non-ASCII text as ``\\u`` escapes, and an
    integer beyond 64 bits (which orjson cannot write at all)."""

    def _live(self, directory):
        store = _store(directory)
        journal = store.recover(clock=iter(float(t) for t in range(1, 100)).__next__)
        journal.submit(Observation(source="DNS", ip="10.0.0.1", dns_name=NAME))
        journal.submit(Observation(source="ARPwatch", ip="10.0.0.2", mac="08:00:20:00:00:02"))
        foreign = InterfaceRecord()
        foreign.attributes = {
            "ip": Attribute("10.0.0.3", 1.0, 1.0, 1.0, "replica"),
            "vendor": Attribute(2**70, 1.0, 1.0, 1.0, "replica"),
        }
        journal.absorb_interface(foreign)
        journal.negative_put("dns", "gone.example", ttl=30.0)
        return store, journal

    def test_a_stdlib_segment_replays(self, tmp_path):
        store, journal = self._live(tmp_path / "live")
        store._handle.flush()
        entries = scan_segment(str(tmp_path / "live" / "wal-00000001.log")).entries
        assert len(entries) == 4
        (tmp_path / "old").mkdir()
        with open(tmp_path / "old" / "wal-00000001.log", "wb") as handle:
            handle.write(SEGMENT_MAGIC)
            for entry in entries:
                payload = _stdlib(entry, sort_keys=True)
                handle.write(len(payload).to_bytes(4, "big"))
                handle.write(zlib.crc32(payload).to_bytes(4, "big"))
                handle.write(payload)
        written = (tmp_path / "old" / "wal-00000001.log").read_bytes()
        assert b"b\\u00fccher" in written and str(2**70).encode() in written
        old = _store(tmp_path / "old")
        recovered = old.recover(clock=lambda: 0.0)
        assert old.last_recovery.recovered_records == 4
        assert recovered.identity_state() == journal.identity_state()
        assert recovered._negative == journal._negative
        old.close(checkpoint=False)
        store.close(checkpoint=False)

    def test_a_stdlib_checkpoint_loads(self, tmp_path):
        store, journal = self._live(tmp_path / "live")
        body = _stdlib(journal.to_dict(), sort_keys=True)
        header = {"format": "fremont-checkpoint-2", "crc32": zlib.crc32(body),
                  "revision": journal.revision, "wal_seg": 9, "next_seq": 4}
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "checkpoint.json").write_bytes(
            _stdlib(header, sort_keys=True) + b"\n" + body
        )
        assert b"b\\u00fccher" in body
        old = _store(tmp_path / "old")
        recovered = old.recover(clock=lambda: 0.0)
        assert old.last_recovery.checkpoint_loaded
        assert recovered.identity_state() == journal.identity_state()
        assert recovered.interfaces_by_name(NAME)
        old.close(checkpoint=False)
        store.close(checkpoint=False)

    def test_a_served_non_ascii_name_round_trips(self):
        journal = Journal()
        server = JournalServer(journal)
        server.start()
        client = RemoteClient(*server.address)
        try:
            record, _ = client.observe_interface(
                Observation(source="DNS", ip="10.0.0.1", dns_name=NAME)
            )
            assert record.dns_name == NAME
            (found,) = client.interfaces_by_name(NAME)
            assert found.dns_name == NAME and found.record_id == record.record_id
            assert journal.interfaces[record.record_id].dns_name == NAME
        finally:
            client.close()
            server.stop()


def _checkpoint_peaks(directory):
    """The ``tracemalloc`` peaks of ``to_dict()`` and of a checkpoint of
    a 2000-interface Journal, and the checkpoint's size."""
    store = _store(directory)
    journal = store.recover()
    for index in range(2000):
        journal.submit(Observation(
            source="ARPwatch", ip=f"10.{index // 250}.0.{index % 250 + 1}",
            mac="08:00:20:00:{:02x}:{:02x}".format(index >> 8, index & 0xFF),
            dns_name=f"host-{index}.example",
        ))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        document = journal.to_dict()
        document_peak = tracemalloc.get_traced_memory()[1] - before
        del document
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        store.checkpoint()
        checkpoint_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = os.path.getsize(store.checkpoint_path)
    store.close(checkpoint=False)
    return document_peak, checkpoint_peak, size


#: runs :func:`_checkpoint_peaks` from this file in a fresh interpreter
_MEASURE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("measured", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps(module._checkpoint_peaks(sys.argv[2])))
"""


def test_a_checkpoint_holds_one_copy_of_its_body(tmp_path):
    """Above what ``to_dict()`` itself needs, a checkpoint's peak is its
    encoded body and little more: no text copy, no joined header+body.
    The peaks are taken in a fresh interpreter, where no other thread
    allocates: ``tracemalloc`` counts every thread's allocations, and
    threads that other tests leave running would count too."""
    result = subprocess.run(
        [sys.executable, "-c", _MEASURE, __file__, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert result.returncode == 0, result.stderr
    document_peak, checkpoint_peak, size = json.loads(result.stdout)
    assert size > 500_000
    assert checkpoint_peak - document_peak < 1.5 * size


def test_a_step_clock_resumes_past_replayed_writes(tmp_path):
    store = _store(tmp_path)
    journal = store.recover(clock=iter(float(t) for t in range(1, 6)).__next__)
    for index in range(5):
        journal.submit(Observation(source="ARPwatch", ip=f"10.0.0.{index + 1}"))
    assert max(r.last_modified for r in journal.interfaces.values()) == 5.0
    store.close(checkpoint=False)
    store = _store(tmp_path)
    recovered = store.recover()  # the default step clock
    assert store.last_recovery.recovered_records == 5
    record, _ = recovered.submit(Observation(source="ARPwatch", ip="10.0.0.99"))
    assert record.last_modified > 5.0
    store.close(checkpoint=False)
